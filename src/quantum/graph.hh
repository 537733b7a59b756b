/**
 * @file
 * Undirected graphs for the MAX-CUT workloads QAOA targets, plus
 * deterministic generators for the benchmark sweeps.
 */

#ifndef QTENON_QUANTUM_GRAPH_HH
#define QTENON_QUANTUM_GRAPH_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"

namespace qtenon::quantum {

/** A simple undirected graph on nodes 0..n-1. */
class Graph
{
  public:
    struct Edge {
        std::uint32_t u;
        std::uint32_t v;
    };

    explicit Graph(std::uint32_t num_nodes) : _numNodes(num_nodes) {}

    std::uint32_t numNodes() const { return _numNodes; }
    const std::vector<Edge> &edges() const { return _edges; }
    std::size_t numEdges() const { return _edges.size(); }

    /** Add an undirected edge (duplicates and self-loops rejected). */
    void addEdge(std::uint32_t u, std::uint32_t v);

    bool hasEdge(std::uint32_t u, std::uint32_t v) const;

    /**
     * Cut value of the 0/1 node assignment encoded in @p bits (edges
     * on nodes 0..63): one popcount per distinct edge span d,
     * popcount((bits ^ (bits >> d)) & mask_d), where mask_d holds the
     * lower endpoint of every edge spanning d.
     */
    std::uint64_t cutValue(std::uint64_t bits) const;

    /** Exhaustive MAX-CUT (only feasible for small n). */
    std::uint64_t maxCutBruteForce() const;

    /** A cycle graph 0-1-...-n-1-0. */
    static Graph ring(std::uint32_t n);

    /**
     * A 3-regular circulant-style graph: ring edges plus chords to
     * node i + n/2 (n must be even, n >= 4). This matches the paper's
     * "3-regular MAX-CUT" workload shape deterministically.
     */
    static Graph threeRegular(std::uint32_t n);

    /** Erdos-Renyi G(n, p) using the supplied RNG. */
    static Graph erdosRenyi(std::uint32_t n, double p, sim::Rng &rng);

  private:
    /** The lower endpoints of every edge spanning @c d nodes. */
    struct SpanMask {
        std::uint32_t d;
        std::uint64_t mask;
    };

    std::uint32_t _numNodes;
    std::vector<Edge> _edges;
    std::vector<SpanMask> _spans;
    /** Whether some edge lies beyond a 64-bit assignment word. */
    bool _wide = false;
};

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_GRAPH_HH
