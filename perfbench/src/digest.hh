/**
 * @file
 * Simulated-output digests: the correctness gate of the benchmark.
 * A job's digest covers everything the simulator computes for it
 * (cost history, rounds, per-system modeled times, sim ticks, bus
 * transactions, pulses, SLT hits and misses) and nothing measured on
 * the host, so a change that only speeds the simulator up must leave
 * every digest identical.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <map>
#include <string>
#include <vector>

#include "service/job.hh"

namespace perfbench {

/** 32 hex digits over the simulated fields of @p r. */
std::string jobDigest(const qtenon::service::JobResult &r);

/** 32 hex digits over a byte string (serve-mix result bytes). */
std::string bytesDigest(const std::string &bytes);

/**
 * Reference digests kept with the benchmark: workload name -> the
 * seed they were recorded at and the digests in operation order.
 */
struct Reference {
    std::uint64_t seed = 0;
    std::vector<std::string> digests;
};
using ReferenceSet = std::map<std::string, Reference>;

/** Load @p path; an absent file gives an empty set. Throws on a
 *  malformed file. */
ReferenceSet loadReferences(const std::string &path);
/** Write @p refs to @p path (the --write-reference mode). */
void saveReferences(const std::string &path, const ReferenceSet &refs);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
