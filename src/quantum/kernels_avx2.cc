/**
 * @file
 * AVX2 instantiation of the statevector slab kernels. This is the
 * only src/quantum translation unit compiled with -mavx2 (see the
 * per-source COMPILE_OPTIONS in CMakeLists.txt); activeKernels() only
 * hands out this table after __builtin_cpu_supports("avx2") says the
 * running CPU can execute it, so building it never constrains where
 * the binary runs.
 */

#ifndef __AVX2__
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif

#define QTENON_SIMD_BACKEND_AVX2 1
#define QTENON_KERNELS_NS avx2_backend
#include "kernels_impl.hh"

namespace qtenon::quantum::kernels {

const KernelTable &
avx2Kernels()
{
    return avx2_backend::table();
}

} // namespace qtenon::quantum::kernels
