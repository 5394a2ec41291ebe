// Baseline kernel table + the once-per-process runtime dispatch.
//
// This TU compiles core/kernels.inl with the binary's ordinary target
// flags, so base_kernels() is SSE2 on stock x86-64, AVX2 or AVX-512 under
// -march=native, NEON on AArch64, and scalar everywhere else (including
// QFA_SIMD=off builds, where util/simd.hpp collapses to the scalar
// wrappers project-wide).

#include "core/kernels.hpp"

#include <array>
#include <cstring>
#include <iterator>

#include "util/simd.hpp"

#define QFA_KERN_NS kern_base
#include "core/kernels.inl"
#undef QFA_KERN_NS

namespace qfa::cbr::kern {

namespace {

bool cpu_has_avx2() noexcept {
#if !defined(QFA_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// All four extensions kernels_avx512.cpp is compiled with.
bool cpu_has_avx512() noexcept {
#if !defined(QFA_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
#else
    return false;
#endif
}

/// The AVX-512 / AVX2 table when compiled in and reported by the CPU.
const KernelTable* usable_avx512() noexcept {
    return cpu_has_avx512() ? avx512_kernels() : nullptr;
}
const KernelTable* usable_avx2() noexcept {
    return cpu_has_avx2() ? avx2_kernels() : nullptr;
}

}  // namespace

const KernelTable& base_kernels() noexcept { return kern_base::table(); }

const KernelTable& active_kernels() noexcept {
#if defined(QFA_SIMD_DISABLED)
    return scalar_kernels();
#else
    static const KernelTable* const chosen = [] {
        if (const KernelTable* avx512 = usable_avx512()) {
            return avx512;
        }
        const KernelTable* avx2 = usable_avx2();
        return avx2 != nullptr ? avx2 : &base_kernels();
    }();
    return *chosen;
#endif
}

std::span<const KernelTable* const> available_kernels() noexcept {
    // Scalar first (the reference), then each distinct wider table.  In a
    // QFA_SIMD=off build every table collapses to scalar and the list is one
    // entry; in a -march=native build base may itself be AVX2 or AVX-512, in
    // which case the separately compiled tables still exercise the
    // force-compiled TUs.
    struct List {
        std::array<const KernelTable*, 4> tables;  // scalar, base, AVX2, AVX-512
        std::size_t count = 0;
    };
    static const List list = [] {
        const KernelTable* const wider[] = {
            std::strcmp(base_kernels().isa, "scalar") != 0 ? &base_kernels() : nullptr,
            usable_avx2(), usable_avx512()};
        static_assert(std::tuple_size_v<decltype(List::tables)> == 1 + std::size(wider));
        List l{};
        l.tables[l.count++] = &scalar_kernels();
        for (const KernelTable* table : wider) {
            if (table != nullptr) {
                l.tables[l.count++] = table;
            }
        }
        return l;
    }();
    return {list.tables.data(), list.count};
}

}  // namespace qfa::cbr::kern
