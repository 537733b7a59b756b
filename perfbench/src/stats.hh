/**
 * @file
 * Sample statistics for the benchmark: nearest-rank percentiles over
 * exact (sorted) samples, and wall/CPU clocks.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least @p q
 * percent of the samples at or below it. @p q in (0, 100]. Returns 0
 * for an empty sample set.
 */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/**
 * How many samples lie strictly beyond the nearest-rank @p q
 * percentile of @p n samples (n - ceil(q n / 100)).
 */
std::size_t samplesBeyond(std::size_t n, double q);

/** steady_clock now, in nanoseconds. */
std::uint64_t nowNs();
/** CPU time of the whole process (all threads), in nanoseconds. */
std::uint64_t processCpuNs();
/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
