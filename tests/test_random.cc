/**
 * @file
 * The in-tree MT19937-64 engine against std::mt19937_64: identical
 * output streams from the engine and from each block refill, one raw
 * draw per uniform(), and identical distribution sequences through
 * sim::Rng.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "reference_sampling.hh"
#include "sim/random.hh"

using namespace qtenon;
using qtenon::tests::ReferenceRng;

namespace {

const std::uint64_t kSeeds[] = {0, 5489, 0x51a3b5, ~0ull};

/** Run @p refill from @p seed and compare @p blocks blocks of output. */
void
expectRefillMatchesStd(sim::mt19937::RefillFn refill, std::uint64_t seed,
                       std::size_t blocks)
{
    constexpr std::size_t n = sim::mt19937::stateWords;
    std::uint64_t state[n];
    std::uint64_t out[n];
    sim::mt19937::seedState(seed, state);
    std::mt19937_64 ref(seed);
    for (std::size_t b = 0; b < blocks; ++b) {
        refill(state, out);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t want = ref();
            ASSERT_EQ(out[i], want)
                << "seed " << seed << " block " << b << " word " << i;
        }
    }
}

} // namespace

TEST(Mt19937_64, EngineMatchesStdOverTenMillionOutputs)
{
    for (const auto seed : kSeeds) {
        sim::Mt19937_64 eng(seed);
        std::mt19937_64 ref(seed);
        std::uint64_t mismatches = 0;
        for (std::size_t i = 0; i < 10'000'000; ++i)
            mismatches += eng() != ref();
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    }
}

TEST(Mt19937_64, DefaultSeedMatchesStd)
{
    sim::Mt19937_64 eng;
    std::mt19937_64 ref;
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(eng(), ref()) << i;
}

TEST(Mt19937_64, ScalarRefillMatchesStd)
{
    for (const auto seed : kSeeds)
        expectRefillMatchesStd(sim::mt19937::refillScalar, seed, 4000);
}

TEST(Mt19937_64, Avx2RefillMatchesStd)
{
    const auto avx2 = sim::mt19937::avx2Refill();
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 refill not built in or CPU lacks AVX2";
    for (const auto seed : kSeeds)
        expectRefillMatchesStd(avx2, seed, 4000);
}

TEST(Mt19937_64, ActiveRefillIsAvx2WhenAvailable)
{
    const auto avx2 = sim::mt19937::avx2Refill();
    const auto active = sim::mt19937::activeRefill();
    EXPECT_EQ(active, avx2 != nullptr ? avx2 : sim::mt19937::refillScalar);
}

TEST(Rng, UniformConsumesExactlyOneRawDraw)
{
    sim::Rng a(77);
    sim::Rng b(77);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t x = b.raw();
        const double u = a.uniform();
        ASSERT_EQ(u, sim::Rng::uniformFromRaw(x)) << i;
        ASSERT_EQ(a.raw(), b.raw()) << i; // still in lockstep
    }
}

TEST(Rng, UniformFromRawMatchesStdAtTheEnds)
{
    EXPECT_EQ(sim::Rng::uniformFromRaw(0), 0.0);
    // double(2^64 - 1) rounds to 2^64; the library clamps below 1.
    EXPECT_EQ(sim::Rng::uniformFromRaw(~0ull),
              std::nextafter(1.0, 0.0));
    EXPECT_LT(sim::Rng::uniformFromRaw(~0ull), 1.0);
}

TEST(Rng, DistributionsMatchStdBackedReference)
{
    for (const auto seed : kSeeds) {
        sim::Rng rng(seed);
        ReferenceRng ref(seed);
        for (int i = 0; i < 20000; ++i) {
            switch (i % 7) {
              case 0: ASSERT_EQ(rng.uniform(), ref.uniform()); break;
              case 1:
                ASSERT_EQ(rng.uniform(-3.0, 5.0), ref.uniform(-3.0, 5.0));
                break;
              case 2: ASSERT_EQ(rng.index(1000), ref.index(1000)); break;
              case 3:
                ASSERT_EQ(rng.index(~0ull), ref.index(~0ull));
                break;
              case 4: ASSERT_EQ(rng.normal(), ref.normal()); break;
              case 5:
                ASSERT_EQ(rng.rademacher(), ref.rademacher());
                break;
              case 6: ASSERT_EQ(rng.coin(0.3), ref.coin(0.3)); break;
            }
        }
        ASSERT_EQ(rng.raw(), ref.raw());
    }
}

TEST(Rng, ShuffleMatchesStdBackedReference)
{
    for (const auto seed : kSeeds) {
        sim::Rng rng(seed);
        ReferenceRng ref(seed);
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<int> a(257);
            std::iota(a.begin(), a.end(), 0);
            auto b = a;
            std::shuffle(a.begin(), a.end(), rng.engine());
            std::shuffle(b.begin(), b.end(), ref.engine());
            ASSERT_EQ(a, b) << "seed " << seed << " trial " << trial;
        }
        ASSERT_EQ(rng.raw(), ref.raw());
    }
}

TEST(Rng, CoinThresholdAgreesWithUniformMapping)
{
    // The threshold T is the least raw draw x with uniform(x) >= p.
    auto expect_exact = [](double p) {
        const auto t = sim::Rng::coinThreshold(p);
        if (t.always) {
            EXPECT_TRUE(p >= 1.0) << p;
            EXPECT_EQ(t.below, 0u);
            return;
        }
        if (t.below > 0) {
            EXPECT_LT(sim::Rng::uniformFromRaw(t.below - 1), p)
                << std::hexfloat << p;
        }
        EXPECT_FALSE(sim::Rng::uniformFromRaw(t.below) < p)
            << std::hexfloat << p;
    };
    for (double p : {0.0, -0.0, -1.0, 1.0, 2.0, 0.5, 0.25, 1e-300,
                     4.9e-324, std::nextafter(1.0, 0.0),
                     std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
                     0x1p-11, 0x1p-12, std::nextafter(0x1p-11, 0.0),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
        expect_exact(p);
    // Every value uniform() can return, and its neighbours.
    sim::Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const double u = sim::Rng::uniformFromRaw(rng.raw() >> (i % 64));
        expect_exact(u);
        expect_exact(std::nextafter(u, 0.0));
        expect_exact(std::nextafter(u, 1.0));
    }
    EXPECT_EQ(sim::Rng::coinThreshold(0.0).below, 0u);
    EXPECT_FALSE(sim::Rng::coinThreshold(
                     std::numeric_limits<double>::quiet_NaN())
                     .always);
    EXPECT_EQ(sim::Rng::coinThreshold(
                  std::numeric_limits<double>::quiet_NaN())
                  .below,
              0u);
}
