// Force-compiled AVX-512 kernel table.
//
// CMake gives this one source file -mavx512f -mavx512dq -mavx512bw
// -mavx512vl on x86 toolchains (see the QFA_SIMD block in the top-level
// CMakeLists), so a baseline x86-64 build still carries 8-lane kernels
// that active_kernels() runtime-dispatches onto after cpuid reports all
// four extensions.  Those flags also let the compiler emit FMA, which
// would break bit-identity; the project-wide -ffp-contract=off keeps every
// mul/add separate here (CI disassembles this object to check).  On
// toolchains where the flags are unavailable (or under QFA_SIMD=off) the
// feature macros are absent and the accessor degrades to nullptr.

#include "core/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && !defined(QFA_SIMD_DISABLED)

#include "util/simd.hpp"

#define QFA_KERN_NS kern_avx512
#include "core/kernels.inl"
#undef QFA_KERN_NS

namespace qfa::cbr::kern {
const KernelTable* avx512_kernels() noexcept { return &kern_avx512::table(); }
}  // namespace qfa::cbr::kern

#else

namespace qfa::cbr::kern {
const KernelTable* avx512_kernels() noexcept { return nullptr; }
}  // namespace qfa::cbr::kern

#endif
