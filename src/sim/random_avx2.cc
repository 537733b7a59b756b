/**
 * @file
 * AVX2 MT19937-64 block refill: four words of twist and tempering per
 * instruction. This is the only src/sim translation unit compiled
 * with -mavx2 (see src/sim/CMakeLists.txt); avx2Refill() only hands
 * it out after __builtin_cpu_supports("avx2") says the running CPU
 * can execute it.
 */

#ifndef __AVX2__
#error "random_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include "mt19937_impl.hh"
#include "random.hh"

namespace qtenon::sim::mt19937 {

namespace {

inline __m256i
load(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** twist() on four consecutive words. */
inline __m256i
twist4(__m256i cur, __m256i next, __m256i far)
{
    const __m256i upper = _mm256_set1_epi64x(upperMask);
    const __m256i lower = _mm256_set1_epi64x(lowerMask);
    const __m256i a = _mm256_set1_epi64x(matrixA);
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i y = _mm256_or_si256(_mm256_and_si256(cur, upper),
                                      _mm256_and_si256(next, lower));
    const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(),
                                         _mm256_and_si256(y, one));
    return _mm256_xor_si256(
        _mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
        _mm256_and_si256(odd, a));
}

/** temper() on four words. */
inline __m256i
temper4(__m256i z)
{
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_srli_epi64(z, 29),
                            _mm256_set1_epi64x(0x5555555555555555ll)));
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_slli_epi64(z, 17),
                            _mm256_set1_epi64x(0x71d67fffeda60000ll)));
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                            _mm256_set1_epi64x(
                                static_cast<long long>(
                                    0xfff7eee000000000ull))));
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

} // namespace

void
refillAvx2(std::uint64_t *state, std::uint64_t *out)
{
    static_assert((stateWords - shift) % 4 == 0);
    // Words [0, 156): every input is still the old block; each vector
    // loads its successors before the store overwrites them.
    std::size_t i = 0;
    for (; i < stateWords - shift; i += 4) {
        store(state + i, twist4(load(state + i), load(state + i + 1),
                                load(state + i + shift)));
    }
    // Words [156, 311): the far words are the new ones written above.
    for (; i + 4 <= stateWords - 1; i += 4) {
        store(state + i,
              twist4(load(state + i), load(state + i + 1),
                     load(state + i + shift - stateWords)));
    }
    for (; i < stateWords - 1; ++i) {
        state[i] = twist(state[i], state[i + 1],
                         state[i + shift - stateWords]);
    }
    state[stateWords - 1] =
        twist(state[stateWords - 1], state[0], state[shift - 1]);
    for (i = 0; i + 4 <= stateWords; i += 4)
        store(out + i, temper4(load(state + i)));
}

} // namespace qtenon::sim::mt19937
