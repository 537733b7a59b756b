#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include <sys/resource.h>

namespace perfbench {

namespace {

/** ceil(q n / 100), robust to q n / 100 landing a rounding error
 *  above an integer (99.9 of 1000 is rank 999, not 1000). */
std::size_t
nearestRank(std::size_t n, double q)
{
    return static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
}

} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    auto rank = nearestRank(n, q);
    rank = std::clamp<std::size_t>(rank, 1, n);
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n - std::min(nearestRank(n, q), n);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
        static_cast<std::uint64_t>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
