/**
 * @file
 * What one benchmark run takes and reports, shared by the batch
 * workloads (batch.cc) and the serving workload (serve.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "digest.hh"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** The qtenond binary serve-mix starts. */
    std::string qtenond;
    /** Scratch directory inside the checkout (sockets, metrics). */
    std::string workdir = ".";
    /** Reference digests; checked when the seed matches. */
    ReferenceSet references;
    /** Record this run's digests instead of checking them. */
    bool writeReference = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Digests recorded for --write-reference. */
    Reference recorded;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Fail the run with a message on stderr. */
    void fail(const std::string &why);
};

/** Number of setups per run; setup_s is their median. */
constexpr int setupRepeats = 3;

/**
 * Per-layer metric names, in report order, with their units. A
 * traced run reports every one of them on every workload; a layer
 * the workload does not cross reads 0.
 */
const std::vector<std::pair<const char *, const char *>> &
perLayerMetrics();

/** Check @p digests against the reference for @p workload when the
 *  run's seed is the reference seed; count mismatches as failures. */
void checkReference(const Options &opt, const std::string &workload,
                    const std::vector<std::string> &digests,
                    Outcome &out);

Outcome runBatchWorkload(const Options &opt);
Outcome runServeMix(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
