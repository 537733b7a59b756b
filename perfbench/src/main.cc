/**
 * @file
 * perfbench: one run of one workload.
 *
 *   perfbench --workload gd-sweep|sv-20q|replay-64q|serve-mix
 *             --seed N --seconds S --trace 0|1
 *             [--qtenond PATH] [--workdir DIR] [--reference FILE]
 *             [--write-reference] [--commit ID]
 *
 * Prints provenance, a human-readable report, each metric by name
 * and unit, and as its last line one JSON object with the keys
 * correct, attempted, failed and metrics. Exits 1 when any simulated
 * output is wrong, 2 on a usage or set-up error.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hh"
#include "quantum/kernels.hh"
#include "service/json.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--qtenond PATH] "
                 "[--workdir DIR] [--reference FILE] "
                 "[--write-reference] [--commit ID]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        const auto n = std::stoull(v, &used);
        if (used == v.size())
            return n;
    } catch (const std::exception &) {
    }
    usage("bad value for " + flag + ": '" + v + "'");
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to report from a build "
                         "without NDEBUG (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    // A daemon that went away shows as a write error, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    std::string referencePath;
    std::string commit = "unknown";
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = parseUint(a, value());
        } else if (a == "--seconds") {
            opt.seconds = static_cast<double>(parseUint(a, value()));
        } else if (a == "--trace") {
            const auto t = parseUint(a, value());
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
            haveTrace = true;
        } else if (a == "--qtenond") {
            opt.qtenond = value();
        } else if (a == "--workdir") {
            opt.workdir = value();
        } else if (a == "--reference") {
            referencePath = value();
        } else if (a == "--write-reference") {
            opt.writeReference = true;
        } else if (a == "--commit") {
            commit = value();
        } else {
            usage("unknown option '" + a + "'");
        }
    }
    if (opt.workload.empty() || !haveTrace)
        usage("--workload and --trace are required");
    if (opt.seconds < 1)
        usage("--seconds must be at least 1");

    try {
        if (!referencePath.empty())
            opt.references = loadReferences(referencePath);

        namespace json = qtenon::service::json;
        auto prov = json::Value::object();
        prov.set("workload", opt.workload);
        prov.set("seed", opt.seed);
        prov.set("trace", opt.trace);
        prov.set("hw_concurrency", std::thread::hardware_concurrency());
        prov.set("simd_backend",
                 qtenon::quantum::kernels::activeKernels(
                     qtenon::quantum::kernels::SimdMode::Auto)
                     .name);
        prov.set("compiler", std::string("g++ ") + __VERSION__);
        prov.set("build_type", PERFBENCH_BUILD_TYPE);
        prov.set("commit", commit);
        auto head = json::Value::object();
        head.set("provenance", std::move(prov));
        std::printf("%s\n", head.dump(0).c_str());

        Outcome out = opt.workload == "serve-mix" ? runServeMix(opt)
                                                  : runBatchWorkload(opt);

        if (opt.writeReference) {
            auto refs = opt.references;
            refs[opt.workload] = out.recorded;
            saveReferences(referencePath, refs);
            std::printf("reference: wrote %zu digests for %s\n",
                        out.recorded.digests.size(),
                        opt.workload.c_str());
        }

        auto metrics = json::Value::object();
        for (const auto &m : out.metrics) {
            if (!std::isfinite(m.value))
                throw std::runtime_error("metric " + m.name +
                                         " is not finite");
            std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            auto mv = json::Value::object();
            mv.set("value", m.value);
            mv.set("unit", m.unit);
            metrics.set(m.name, std::move(mv));
        }
        std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
                    out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                                  : 0.0,
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted));
        const bool correct = out.correct && out.failed == 0 &&
            out.attempted > 0;
        auto result = json::Value::object();
        result.set("correct", correct);
        result.set("attempted", out.attempted);
        result.set("failed", out.failed);
        result.set("metrics", std::move(metrics));
        std::printf("%s\n", result.dump(0).c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
