/**
 * @file
 * MT19937-64 seeding, the portable block refill, runtime refill
 * selection, and the integer coin threshold.
 */

#include "random.hh"

#include <bit>
#include <cmath>

#include "mt19937_impl.hh"

namespace qtenon::sim {

namespace mt19937 {

#ifdef QTENON_HAVE_RANDOM_AVX2
void refillAvx2(std::uint64_t *state, std::uint64_t *out); // random_avx2.cc
#endif

void
seedState(std::uint64_t seed, std::uint64_t *state)
{
    state[0] = seed;
    for (std::size_t i = 1; i < stateWords; ++i) {
        state[i] = 6364136223846793005ull *
                (state[i - 1] ^ (state[i - 1] >> 62)) +
            i;
    }
}

void
refillScalar(std::uint64_t *state, std::uint64_t *out)
{
    for (std::size_t i = 0; i < stateWords - shift; ++i)
        state[i] = twist(state[i], state[i + 1], state[i + shift]);
    for (std::size_t i = stateWords - shift; i < stateWords - 1; ++i) {
        state[i] = twist(state[i], state[i + 1],
                         state[i + shift - stateWords]);
    }
    state[stateWords - 1] =
        twist(state[stateWords - 1], state[0], state[shift - 1]);
    for (std::size_t i = 0; i < stateWords; ++i)
        out[i] = temper(state[i]);
}

RefillFn
avx2Refill()
{
#ifdef QTENON_HAVE_RANDOM_AVX2
    // One cpuid probe for the life of the process.
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
    if (has_avx2)
        return refillAvx2;
#endif
    return nullptr;
}

RefillFn
activeRefill()
{
    const RefillFn avx2 = avx2Refill();
    return avx2 != nullptr ? avx2 : refillScalar;
}

} // namespace mt19937

void
Mt19937_64::refill()
{
    static const mt19937::RefillFn fn = mt19937::activeRefill();
    fn(_state, _out);
    _next = 0;
}

Rng::CoinThreshold
Rng::coinThreshold(double p)
{
    if (!(p > 0.0))
        return {}; // p <= 0 or NaN: u < p never holds.
    if (p >= 1.0)
        return {0, true}; // uniform() < 1 always.

    // uniform(x) = min(double(x) / 2^64, 1 - 2^-53), and for p < 1
    // the clamp never decides the comparison, so the threshold is
    // the least x whose rounding to double reaches P = p * 2^64
    // (exact: a power-of-two scale).
    const double big = 0x1p64;
    const double P = p * big;
    std::uint64_t below;
    if (P <= 0x1p53) {
        // Every integer up to 2^53 is a double: x rounds to itself.
        below = static_cast<std::uint64_t>(P);
        if (static_cast<double>(below) < P)
            ++below;
    } else {
        // Above 2^53, x rounds to P from half a spacing below it; the
        // tie goes to P only when P's significand is even.
        const double half = (P - std::nextafter(P, 0.0)) / 2.0;
        below = static_cast<std::uint64_t>(P) -
            static_cast<std::uint64_t>(half) +
            (std::bit_cast<std::uint64_t>(P) & 1);
    }

    // Confirm against the real mapping; bisect over the whole range
    // should the closed form ever disagree with it.
    const bool exact = (below == 0 || uniformFromRaw(below - 1) < p) &&
        !(uniformFromRaw(below) < p);
    if (!exact) {
        std::uint64_t lo = 0, hi = ~std::uint64_t(0);
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (uniformFromRaw(mid) < p)
                lo = mid + 1;
            else
                hi = mid;
        }
        below = lo;
    }
    return {below, false};
}

} // namespace qtenon::sim
