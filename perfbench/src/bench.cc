#include "bench.hh"

#include <cstdio>

namespace perfbench {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

const std::vector<std::pair<const char *, const char *>> &
perLayerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> m = {
        {"quantum.evolve.busy_s", "s"},
        {"quantum.evolve.p50_us", "us"},
        {"quantum.kernel.cpu_per_wall", "ratio"},
        {"quantum.sample.busy_s", "s"},
        {"quantum.sample.ns_per_shot", "ns"},
        {"vqa.cost.busy_s", "s"},
        {"vqa.cost.ns_per_shot", "ns"},
        {"vqa.driver.self_s", "s"},
        {"isa.compile.busy_s", "s"},
        {"isa.compile.cache_hit_ratio", "ratio"},
        {"isa.plan.busy_s", "s"},
        {"isa.plan.updates", "count"},
        {"core.setup.count", "count"},
        {"core.setup.p50_ms", "ms"},
        {"runtime.replay.rounds", "count"},
        {"runtime.replay.busy_s", "s"},
        {"runtime.replay.events", "count"},
        {"runtime.replay.ns_per_event", "ns"},
        {"baseline.replay.busy_s", "s"},
        {"service.sched.queue_wait_s", "s"},
        {"service.sched.run_p50_s", "s"},
        {"service.sched.utilization", "ratio"},
        {"daemon.result_cache.hit_ratio", "ratio"},
        {"daemon.queue_wait_p50_ms", "ms"},
        {"daemon.rejected", "count"},
        {"daemon.p50_ms", "ms"},
        {"daemon.p99_ms", "ms"},
        {"daemon.hit_p50_ms", "ms"},
        {"daemon.miss_p50_ms", "ms"},
        {"trace.overhead_s", "s"},
        {"trace.other_share", "ratio"},
    };
    return m;
}

void
checkReference(const Options &opt, const std::string &workload,
               const std::vector<std::string> &digests, Outcome &out)
{
    out.recorded.seed = opt.seed;
    out.recorded.digests = digests;
    if (opt.writeReference)
        return;
    const auto it = opt.references.find(workload);
    if (it == opt.references.end() || it->second.seed != opt.seed)
        return;
    const auto &want = it->second.digests;
    if (want.size() != digests.size()) {
        out.failed += digests.size();
        out.fail(workload + ": reference holds " +
                 std::to_string(want.size()) + " digests, run made " +
                 std::to_string(digests.size()));
        return;
    }
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i] != digests[i]) {
            ++mismatched;
            ++out.failed;
            out.fail(workload + ": operation " + std::to_string(i) +
                     " digest " + digests[i] + " != reference " +
                     want[i]);
        }
    }
    std::printf("reference: %zu of %zu digests match seed %llu\n",
                want.size() - mismatched, want.size(),
                static_cast<unsigned long long>(opt.seed));
}

} // namespace perfbench
