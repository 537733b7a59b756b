/**
 * @file
 * The MT19937-64 recurrence shared by the scalar and SIMD refills
 * (random.cc, random_avx2.cc). Internal to src/sim.
 */

#ifndef QTENON_SIM_MT19937_IMPL_HH
#define QTENON_SIM_MT19937_IMPL_HH

#include <cstddef>
#include <cstdint>

namespace qtenon::sim::mt19937 {

/** Distance to the word the twist mixes in (the generator's m). */
inline constexpr std::size_t shift = 156;
inline constexpr std::uint64_t upperMask = 0xffffffff80000000ull;
inline constexpr std::uint64_t lowerMask = 0x000000007fffffffull;
inline constexpr std::uint64_t matrixA = 0xb5026f5aa96619e9ull;

// Internal linkage: random_avx2.cc is built with -mavx2, and a shared
// inline definition could hand its AVX2 copy to the portable path.
namespace {

/** New value of a word from itself, its successor and the far word. */
inline std::uint64_t
twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & upperMask) | (next & lowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & matrixA);
}

inline std::uint64_t
temper(std::uint64_t z)
{
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
}

} // namespace

} // namespace qtenon::sim::mt19937

#endif // QTENON_SIM_MT19937_IMPL_HH
