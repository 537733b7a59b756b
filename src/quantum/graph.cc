#include "graph.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace qtenon::quantum {

void
Graph::addEdge(std::uint32_t u, std::uint32_t v)
{
    if (u >= _numNodes || v >= _numNodes)
        sim::fatal("edge (", u, ",", v, ") outside graph of ",
                   _numNodes, " nodes");
    if (u == v)
        sim::fatal("self-loop on node ", u);
    if (hasEdge(u, v))
        sim::fatal("duplicate edge (", u, ",", v, ")");
    _edges.push_back({u, v});

    const std::uint32_t lo = std::min(u, v);
    const std::uint32_t d = std::max(u, v) - lo;
    if (lo + d >= 64) {
        _wide = true;
        return;
    }
    auto it = std::find_if(_spans.begin(), _spans.end(),
                           [d](const SpanMask &m) { return m.d == d; });
    if (it == _spans.end())
        it = _spans.insert(_spans.end(), SpanMask{d, 0});
    it->mask |= std::uint64_t(1) << lo;
}

bool
Graph::hasEdge(std::uint32_t u, std::uint32_t v) const
{
    for (const auto &e : _edges) {
        if ((e.u == u && e.v == v) || (e.u == v && e.v == u))
            return true;
    }
    return false;
}

std::uint64_t
Graph::cutValue(std::uint64_t bits) const
{
    if (_wide)
        sim::fatal("64-bit assignment words cap cut edges at node 63");
    std::uint64_t cut = 0;
    for (const auto &m : _spans)
        cut += std::popcount((bits ^ (bits >> m.d)) & m.mask);
    return cut;
}

std::uint64_t
Graph::maxCutBruteForce() const
{
    if (_numNodes > 24)
        sim::fatal("brute-force MAX-CUT capped at 24 nodes");
    std::uint64_t best = 0;
    const std::uint64_t lim = std::uint64_t(1) << _numNodes;
    for (std::uint64_t bits = 0; bits < lim; ++bits)
        best = std::max(best, cutValue(bits));
    return best;
}

Graph
Graph::ring(std::uint32_t n)
{
    if (n < 3)
        sim::fatal("ring graph needs at least 3 nodes");
    Graph g(n);
    for (std::uint32_t i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n);
    return g;
}

Graph
Graph::threeRegular(std::uint32_t n)
{
    if (n < 4 || n % 2 != 0)
        sim::fatal("3-regular graph needs even n >= 4, got ", n);
    Graph g = ring(n);
    for (std::uint32_t i = 0; i < n / 2; ++i)
        g.addEdge(i, i + n / 2);
    return g;
}

Graph
Graph::erdosRenyi(std::uint32_t n, double p, sim::Rng &rng)
{
    Graph g(n);
    for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t v = u + 1; v < n; ++v) {
            if (rng.coin(p))
                g.addEdge(u, v);
        }
    }
    return g;
}

} // namespace qtenon::quantum
