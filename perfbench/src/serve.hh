/**
 * @file
 * serve-mix: open-loop traffic from one process over two connections
 * to a qtenond child with two workers. The schedule (send times and
 * request contents) is a pure function of the seed; part of the
 * requests repeat an earlier one, so they take the result-cache hit
 * path beside the computed path.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <cstdint>
#include <vector>

#include "service/daemon/protocol.hh"

namespace perfbench {

/** One scheduled send. */
struct Planned {
    /** Send time from the start of its segment, in seconds. */
    double atS = 0.0;
    /** Index into Schedule::pool. */
    std::uint32_t req = 0;
    /** Repeats an earlier request (expected cache hit). */
    bool repeat = false;
    /** Which rate segment the send belongs to. */
    std::uint32_t segment = 0;
};

struct Schedule {
    std::vector<qtenon::service::daemon::JobRequest> pool;
    std::vector<Planned> sends;
    std::vector<double> rates;
};

/** Share of sends that repeat an earlier request. Below one half, so
 *  the median request is a computed one, not the hit/miss boundary. */
constexpr double repeatShare = 0.4;
/** A repeat targets a request scheduled at least this long before
 *  it, so the original has completed and sits in the cache. */
constexpr double repeatMinAgeS = 1.0;

/**
 * Segments at @p rates (req/s) with @p counts sends, evenly spaced;
 * contents drawn from @p seed: 6-8 qubit QAOA/VQE requests with
 * distinct request seeds, and repeats of requests scheduled
 * repeatMinAgeS earlier or more (in schedule time across segments).
 */
Schedule makeSchedule(std::uint64_t seed,
                      const std::vector<double> &rates,
                      const std::vector<std::size_t> &counts);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
