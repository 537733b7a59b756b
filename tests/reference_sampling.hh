/**
 * @file
 * The seed's shot path, frozen verbatim as a reference: the
 * std::mt19937_64-backed Rng, the per-word, per-qubit rng.coin draw
 * loop, the per-factor Pauli eigenvalue sum, and the per-edge cut
 * count. The optimized engine, product-state draw and popcount cost
 * paths are asserted bit-identical against these (tests/test_random.cc,
 * tests/test_sampling_exact.cc). Do not optimize this file: its
 * value is being the unoptimized original.
 */

#ifndef QTENON_TESTS_REFERENCE_SAMPLING_HH
#define QTENON_TESTS_REFERENCE_SAMPLING_HH

#include <cstdint>
#include <random>
#include <vector>

#include "quantum/graph.hh"
#include "quantum/pauli.hh"

namespace qtenon::tests {

/** The seed's sim::Rng: a wrapper around std::mt19937_64. */
class ReferenceRng
{
  public:
    explicit ReferenceRng(std::uint64_t seed = 0x51a3b5u)
        : _engine(seed)
    {}

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
    }

    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_engine);
    }

    std::uint64_t
    index(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, n - 1)(_engine);
    }

    bool coin(double p) { return uniform() < p; }

    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(_engine);
    }

    double rademacher() { return coin(0.5) ? 1.0 : -1.0; }

    std::uint64_t raw() { return _engine(); }

    std::mt19937_64 &engine() { return _engine; }

  private:
    std::mt19937_64 _engine;
};

/** The seed's mean-field draw loop: per word, per qubit, rng.coin. */
template <typename R>
std::vector<std::uint64_t>
referenceProductShots(const std::vector<double> &p1, std::size_t shots,
                      R &rng)
{
    std::vector<std::uint64_t> out(shots, 0);
    for (std::size_t s = 0; s < shots; ++s) {
        std::uint64_t bits = 0;
        for (std::uint32_t q = 0; q < p1.size(); ++q) {
            if (rng.coin(p1[q]))
                bits |= std::uint64_t(1) << q;
        }
        out[s] = bits;
    }
    return out;
}

/** The seed's PauliString::diagonalEigenvalue. */
inline double
referenceEigenvalue(const quantum::PauliString &ps, std::uint64_t bits)
{
    double sign = 1.0;
    for (const auto &f : ps.factors) {
        if (f.op != quantum::Pauli::Z)
            continue;
        if (bits & (std::uint64_t(1) << f.qubit))
            sign = -sign;
    }
    return sign;
}

/** The seed's Hamiltonian::diagonalExpectationFromShots. */
inline double
referenceDiagonalExpectation(const quantum::Hamiltonian &h,
                             const std::vector<std::uint64_t> &shots)
{
    if (shots.empty())
        return h.identityOffset();
    double e = 0.0;
    for (const auto &t : h.terms()) {
        if (!t.string.isDiagonal())
            continue;
        double sum = 0.0;
        for (auto s : shots)
            sum += referenceEigenvalue(t.string, s);
        e += t.coefficient * sum / static_cast<double>(shots.size());
    }
    return e + h.identityOffset();
}

/** The seed's Graph::cutValue. */
inline std::uint64_t
referenceCutValue(const quantum::Graph &g, std::uint64_t bits)
{
    std::uint64_t cut = 0;
    for (const auto &e : g.edges()) {
        const bool su = bits & (std::uint64_t(1) << e.u);
        const bool sv = bits & (std::uint64_t(1) << e.v);
        if (su != sv)
            ++cut;
    }
    return cut;
}

} // namespace qtenon::tests

#endif // QTENON_TESTS_REFERENCE_SAMPLING_HH
