// SIMD-dispatched column kernels of the compiled retrieval datapath.
//
// The hot loops of core/retrieval.cpp — the double-precision manhattan
// and squared-distance weighted accumulations of retrieve_compiled_into,
// their Q8 phase-1 counterparts, the per-block maxima the two-phase pool
// selection prunes by, and the Q15 AND-mask scoring loop of
// score_q15_compiled — each walk one padded plan column
// (core/compiled.hpp pads every column to TypePlan::kRowAlign
// rows, so the kernels never need a scalar tail).  Each kernel is
// compiled once per instruction set from the single generic source
// core/kernels.inl over the util/simd.hpp wrappers:
//
//   * scalar_kernels() — plain C++, always built (core/kernels_scalar.cpp);
//     the reference the bit-identity tests and bench self-checks compare
//     against, and the QFA_SIMD=off escape hatch.
//   * base_kernels()   — whatever ISA the translation unit's target flags
//     select (SSE2 on baseline x86-64, NEON on AArch64, AVX2 or AVX-512
//     under -march=native, scalar elsewhere).
//   * avx2_kernels()   — force-compiled with AVX2 codegen on x86 even in a
//     baseline build (core/kernels_avx2.cpp gets per-source -mavx2);
//     nullptr when the toolchain or QFA_SIMD=off ruled it out.
//   * avx512_kernels() — 8 x f64 lanes, force-compiled the same way with
//     -mavx512f -mavx512dq -mavx512bw -mavx512vl (core/kernels_avx512.cpp);
//     nullptr when the toolchain or QFA_SIMD=off ruled it out.
//
// active_kernels() runtime-dispatches once per process: the AVX-512 table
// when the CPU reports all four AVX-512 extensions, else the AVX2 table
// when it reports AVX2, otherwise the base table (which is always safe to
// execute — it was compiled with the same flags as the rest of the
// binary).  With QFA_SIMD=off every table is the scalar one.
//
// Bit-identity contract: for identical inputs, every table produces
// bitwise-equal accumulators (see util/simd.hpp for why vector width
// cannot change per-row FP operation order).  tests/core/simd_kernel_test
// pins this across the padded-tail edge cases; bench_compiled_retrieval
// re-proves it at startup before timing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace qfa::cbr::kern {

/// Row count of one Q8 quantization block: the unit at which the
/// quantized plan tier carries one f32 scale (and one measured error
/// bound).  Must equal TypePlan::kQuantBlock — core/retrieval.cpp
/// static_asserts the two constants agree — and be a multiple of
/// simd::kRowBlock so a block is always a whole number of vectors.
inline constexpr std::size_t kQ8Block = 32;

/// One ISA's set of column kernels.  All of them walk `padded_rows` slots
/// (a multiple of TypePlan::kRowAlign, or 0) of one column and add into
/// the caller's per-row accumulators; padded tail slots hold value 0 and
/// presence 0 (code 0 in the Q8 tier), so they accumulate exactly
/// +0.0 / 0.
struct KernelTable {
    const char* isa;  ///< "avx512" / "avx2" / "sse2" / "neon" / "scalar"

    /// acc[r] += weight * s_r with s_r = eq. (1) manhattan similarity of
    /// (request_value, values[r]) under `divisor` = 1 + dmax, AND-masked
    /// by mask[r] (0xFFFF present / 0 sentinel).
    void (*manhattan)(double* acc, const std::uint16_t* values,
                      const std::uint16_t* mask, std::size_t padded_rows,
                      std::uint16_t request_value, double divisor, double weight);

    /// Same with the squared-normalized-distance local measure
    /// (1 - ratio^2, the E13 Euclidean-flavour ablation).
    void (*squared)(double* acc, const std::uint16_t* values,
                    const std::uint16_t* mask, std::size_t padded_rows,
                    std::uint16_t request_value, double divisor, double weight);

    /// acc[r] += u64(s_r & mask[r]) * weight_raw with s_r the fig. 7 Q15
    /// local similarity under the pre-quantized reciprocal — the Q30
    /// accumulation of score_q15_compiled.
    void (*q15)(std::uint64_t* acc, const std::uint16_t* values,
                const std::uint16_t* mask, std::size_t padded_rows,
                std::uint16_t request_value, std::uint16_t reciprocal_raw,
                std::uint16_t weight_raw);

    /// Phase-1 approximate scoring over the Q8 quantized tier: for every
    /// row, dequantizes v̂ = scale[r / kQ8Block] × (code − 1) — exact in
    /// f64, a 24-bit f32 significand times an integer ≤ 254 — and
    /// accumulates acc[r] += weight × ŝ_r with ŝ_r the eq. (1) manhattan
    /// similarity of (request_value, v̂) under `divisor` = 1 + dmax.
    /// Code 0 means "absent" (and padding): the lane mask zeroes ŝ_r
    /// exactly like the present_mask does on the exact tier.  `scales`
    /// points at the column's per-block f32 scales (one per kQ8Block
    /// rows).  Like every kernel here, the per-row arithmetic is
    /// bit-identical across ISAs.
    void (*q8_manhattan)(double* acc, const std::uint8_t* codes, const float* scales,
                         std::size_t padded_rows, std::uint16_t request_value,
                         double divisor, double weight);

    /// Same over the squared-normalized-distance local measure.
    void (*q8_squared)(double* acc, const std::uint8_t* codes, const float* scales,
                       std::size_t padded_rows, std::uint16_t request_value,
                       double divisor, double weight);

    /// out[b] = max of acc over the rows of Q8 block b (the last block cut
    /// at padded_rows): the maxima the two-phase pool selection prunes by.
    /// Bit-identical across ISAs for accumulators free of NaN and −0.0,
    /// which phase-1 scores always are.
    void (*q8_block_max)(double* out, const double* acc, std::size_t padded_rows);
};

/// The always-available scalar reference table.
[[nodiscard]] const KernelTable& scalar_kernels() noexcept;

/// The table matching this binary's baseline target flags.
[[nodiscard]] const KernelTable& base_kernels() noexcept;

/// The force-compiled AVX2 table, or nullptr when it was not built
/// (non-x86 toolchain, or QFA_SIMD=off).
[[nodiscard]] const KernelTable* avx2_kernels() noexcept;

/// The force-compiled AVX-512 (F/DQ/BW/VL) table, or nullptr when it was
/// not built (non-x86 toolchain, or QFA_SIMD=off).
[[nodiscard]] const KernelTable* avx512_kernels() noexcept;

/// Runtime-dispatched table the retrieval fast paths score through:
/// AVX-512, then AVX2, whichever is first both compiled in and reported by
/// the CPU, else the base table; always the scalar table under
/// QFA_SIMD=off.
[[nodiscard]] const KernelTable& active_kernels() noexcept;

/// Every distinct table available in this binary (scalar first).  The
/// bit-identity tests and the bench self-checks sweep this list so no
/// compiled-in ISA can escape verification.
[[nodiscard]] std::span<const KernelTable* const> available_kernels() noexcept;

}  // namespace qfa::cbr::kern
