/**
 * @file
 * The shot path against its frozen seed implementation
 * (reference_sampling.hh): sampleProductShots and every sampler built
 * on it draw the same words and leave the RNG at the same place as
 * the per-qubit rng.coin loop, and the popcount cost-from-shots
 * paths return bit-identical values to the per-factor and per-edge
 * loops.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "quantum/backend.hh"
#include "quantum/graph.hh"
#include "quantum/pauli.hh"
#include "quantum/sampler.hh"
#include "random_circuit.hh"
#include "reference_sampling.hh"
#include "sim/random.hh"
#include "vqa/cost.hh"
#include "vqa/evaluator.hh"

using namespace qtenon;
using qtenon::tests::ReferenceRng;

namespace {

/**
 * Probabilities covering the special cases (ends, beyond the ends,
 * NaN, denormals) and both sides of computed thresholds.
 */
std::vector<double>
probabilityPool()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> pool{0.0, -0.0, 1.0, 0.5, 4.9e-324, 1e-310,
                             -0.25, 1.5, -inf, inf, nan, 0.3, 0.999,
                             1e-17, std::nextafter(1.0, 0.0)};
    const std::size_t base = pool.size();
    for (std::size_t i = 0; i < base; ++i) {
        const double p = pool[i];
        if (!(p > 0.0 && p < 1.0))
            continue;
        const auto t = sim::Rng::coinThreshold(p);
        pool.push_back(std::nextafter(p, 0.0));
        pool.push_back(std::nextafter(p, 1.0));
        pool.push_back(sim::Rng::uniformFromRaw(t.below));
        pool.push_back(sim::Rng::uniformFromRaw(t.below - 1));
    }
    sim::Rng rng(11);
    for (int i = 0; i < 32; ++i)
        pool.push_back(rng.uniform());
    return pool;
}

} // namespace

TEST(SampleProductShots, MatchesCoinLoopIncludingNextDraw)
{
    const auto pool = probabilityPool();
    std::uint64_t trial = 0;
    for (std::uint32_t n : {1u, 2u, 24u, 63u, 64u}) {
        for (std::size_t shots : {0u, 1u, 500u}) {
            for (std::size_t offset = 0; offset < pool.size(); ++offset) {
                std::vector<double> p1(n);
                for (std::uint32_t q = 0; q < n; ++q)
                    p1[q] = pool[(offset + 7 * q) % pool.size()];
                ++trial;
                sim::Rng fast(trial);
                ReferenceRng ref(trial);
                const auto got =
                    quantum::sampleProductShots(p1, shots, fast);
                const auto want =
                    tests::referenceProductShots(p1, shots, ref);
                ASSERT_EQ(got, want) << "n=" << n << " shots=" << shots
                                     << " offset=" << offset;
                ASSERT_EQ(fast.raw(), ref.raw())
                    << "n=" << n << " shots=" << shots;
            }
        }
    }
}

TEST(SampleProductShots, ConstantProbabilityAtEveryPoolValue)
{
    for (double p : probabilityPool()) {
        sim::Rng fast(5);
        ReferenceRng ref(5);
        const std::vector<double> p1(64, p);
        ASSERT_EQ(quantum::sampleProductShots(p1, 40, fast),
                  tests::referenceProductShots(p1, 40, ref))
            << std::hexfloat << p;
        ASSERT_EQ(fast.raw(), ref.raw());
    }
}

TEST(SampleProductShots, MeanFieldSamplersMatchReferenceLoop)
{
    sim::Rng circuits(21);
    for (std::uint32_t n : {3u, 24u, 64u}) {
        const auto c = tests::randomCircuit(n, 6 * n, circuits);
        quantum::MeanFieldSampler sampler;
        std::vector<double> p1(n);
        for (std::uint32_t q = 0; q < n; ++q)
            p1[q] = sampler.marginalOne(c, q);

        sim::Rng fast(n);
        ReferenceRng ref(n);
        ASSERT_EQ(sampler.sample(c, 300, fast),
                  tests::referenceProductShots(p1, 300, ref));
        ASSERT_EQ(fast.raw(), ref.raw());

        quantum::BackendConfig cfg;
        cfg.kind = quantum::BackendKind::MeanField;
        auto backend = quantum::makeBackend(n, cfg);
        backend->run(c);
        sim::Rng fast2(n);
        ReferenceRng ref2(n);
        ASSERT_EQ(backend->sample(300, fast2),
                  tests::referenceProductShots(p1, 300, ref2));
        ASSERT_EQ(fast2.raw(), ref2.raw());
    }
}

TEST(SampleProductShots, ReadoutFlipsMatchReferenceLoop)
{
    const std::uint32_t n = 20;
    const double flip = 0.07;
    sim::Rng circuits(8);
    const auto c = tests::randomCircuit(n, 80, circuits);
    std::vector<double> p1(n);
    quantum::MeanFieldSampler mf;
    for (std::uint32_t q = 0; q < n; ++q)
        p1[q] = mf.marginalOne(c, q);

    auto reference = [&](std::uint64_t seed) {
        ReferenceRng ref(seed);
        auto words = tests::referenceProductShots(p1, 250, ref);
        for (auto &word : words) {
            for (std::uint32_t q = 0; q < n; ++q) {
                if (ref.coin(flip))
                    word ^= std::uint64_t(1) << q;
            }
        }
        return std::make_pair(words, ref.raw());
    };

    quantum::NoisyReadoutSampler noisy(
        std::make_unique<quantum::MeanFieldSampler>(), flip);
    sim::Rng rng(31);
    const auto words = noisy.sample(c, 250, rng);
    const auto want = reference(31);
    EXPECT_EQ(words, want.first);
    EXPECT_EQ(rng.raw(), want.second);

    vqa::EvaluatorConfig ecfg;
    ecfg.backend.kind = quantum::BackendKind::MeanField;
    ecfg.shots = 250;
    ecfg.readoutError = flip;
    vqa::CostEvaluator eval(n, ecfg, 31);
    std::vector<std::uint64_t> shot_data;
    vqa::MaxCutCost cost(quantum::Graph::ring(n));
    eval.evaluate(c, cost, &shot_data);
    EXPECT_EQ(shot_data, want.first);
    EXPECT_EQ(eval.rng().raw(), want.second);
}

TEST(DiagonalExpectationFromShots, MatchesPerFactorReference)
{
    quantum::Hamiltonian h(64);
    h.addIdentity(-0.75);
    h.addTerm(0.5, quantum::PauliString::parse("Z0 Z0 Z3"));
    h.addTerm(-1.25, quantum::PauliString::parse("Z1 Z1"));
    h.addTerm(0.3, quantum::PauliString::parse("X0 Z1"));
    h.addTerm(2.0, quantum::PauliString::parse("Y2"));
    h.addTerm(1.0 / 3.0, quantum::PauliString::parse("Z63 Z0 I"));
    h.addTerm(0.1, quantum::PauliString::parse("Z5 Z5 Z5"));
    sim::Rng rng(13);
    for (int t = 0; t < 60; ++t) {
        quantum::PauliString ps;
        const int k = 1 + static_cast<int>(rng.index(6));
        for (int f = 0; f < k; ++f) {
            ps.factors.push_back(
                {static_cast<std::uint32_t>(rng.index(64)),
                 quantum::Pauli::Z});
        }
        h.addTerm(rng.uniform(-2.0, 2.0), ps);
    }

    EXPECT_EQ(h.diagonalExpectationFromShots({}),
              tests::referenceDiagonalExpectation(h, {}));
    for (std::size_t shots : {1u, 2u, 7u, 500u, 4096u}) {
        std::vector<std::uint64_t> words(shots);
        for (auto &w : words)
            w = rng.raw() & (rng.raw() | rng.raw());
        EXPECT_EQ(h.diagonalExpectationFromShots(words),
                  tests::referenceDiagonalExpectation(h, words))
            << shots;
    }
}

TEST(CutValue, MatchesPerEdgeReference)
{
    sim::Rng rng(17);
    std::vector<quantum::Graph> graphs{
        quantum::Graph::ring(3), quantum::Graph::ring(24),
        quantum::Graph::ring(64), quantum::Graph::threeRegular(4),
        quantum::Graph::threeRegular(24), quantum::Graph::threeRegular(64),
        quantum::Graph::erdosRenyi(40, 0.3, rng),
        quantum::Graph::erdosRenyi(64, 0.5, rng)};
    quantum::Graph reversed(10);
    for (std::uint32_t v = 1; v < 10; ++v)
        reversed.addEdge(v, v - 1);
    reversed.addEdge(9, 0);
    graphs.push_back(reversed);

    for (const auto &g : graphs) {
        const std::uint64_t mask = g.numNodes() == 64
            ? ~0ull
            : (std::uint64_t(1) << g.numNodes()) - 1;
        for (std::uint64_t bits : {std::uint64_t(0), ~std::uint64_t(0),
                                   std::uint64_t(0x5555555555555555)})
            ASSERT_EQ(g.cutValue(bits), tests::referenceCutValue(g, bits));
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t bits = rng.raw() & mask;
            ASSERT_EQ(g.cutValue(bits), tests::referenceCutValue(g, bits))
                << g.numNodes() << " nodes, " << g.numEdges() << " edges";
        }
    }
}
