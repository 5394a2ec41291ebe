// Portable SIMD wrapper layer for the compiled retrieval kernels.
//
// The paper's retrieval unit is lane-parallel by construction: every
// implementation row is scored by an independent accumulator, so the
// software column loops (core/kernels.inl) are pure vertical SIMD — no
// shuffles, no horizontal reductions, no cross-lane dependencies.  This
// header supplies the smallest vector vocabulary those loops need, with
// one implementation block per instruction set:
//
//   * AVX-512 — 8 x f64 lanes (x86, compiled when __AVX512F__, DQ, BW
//             and VL are all defined; core/kernels_avx512.cpp force-enables
//             them per-TU).  Lane masks live in __mmask8 registers and
//             masking is a zeroing masked move;
//   * AVX2  — 4 x f64 lanes (x86, compiled when __AVX2__ is defined;
//             core/kernels_avx2.cpp force-enables it per-TU so a baseline
//             x86-64 build can still runtime-dispatch onto it);
//   * SSE2  — 2 x f64 lanes (the x86-64 baseline, always available);
//   * NEON  — 2 x f64 lanes (AArch64 baseline);
//   * scalar — 1 lane, plain C++ (any other target, and the
//             QFA_SIMD=off escape hatch: configure with -DQFA_SIMD=OFF
//             and every table in core/kernels.hpp collapses to this).
//
// Lane masks (f64_lt, f64_lanemask_*) are all-ones / all-zeros f64v
// lanes, except on AVX-512, where they are __mmask8 registers (f64m).
// Either way f64_and(v, mask) keeps v's lanes where the mask is set and
// zeroes the rest, which is exact at every width.
//
// Bit-identity contract.  Every operation here is a correctly rounded
// IEEE-754 primitive (add/sub/mul/div), an exact integer/bit operation, an
// exact conversion (u16 -> f64 and u8 -> f64 are lossless) or an exact max
// (f64_max / f64_hmax, on inputs free of NaN and −0.0).  Nothing fuses,
// nothing re-associates, nothing approximates (no rcpps, no FMA): a kernel
// built from these wrappers performs the same arithmetic in the same
// per-lane order at any width, so SIMD results are bit-identical to the scalar
// fallback — the property the retrieval tests and the self-checking
// benches pin.  (CMake adds -ffp-contract=off project-wide so the *scalar*
// reference cannot silently fuse under -march=native either.)
//
// Q0.15 block primitive.  The fixed-point datapath (fig. 7: |a-b| times a
// pre-quantized reciprocal, truncation, saturating subtract, Q30
// accumulate) is exact integer arithmetic, so it is exposed as one 8-row
// block primitive (q15_block) per ISA instead of fine-grained integer ops;
// core/compiled.hpp pads every plan column to kRowBlock rows so the block
// loops need no tail handling.
//
// ODR note: the whole API lives in an inline namespace named after the
// selected ISA, so translation units compiled with different target flags
// (core/kernels.cpp vs core/kernels_avx2.cpp vs core/kernels_avx512.cpp vs
// core/kernels_scalar.cpp) instantiate disjoint symbols and can coexist in
// one binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(QFA_SIMD_DISABLED) || defined(QFA_SIMD_FORCE_SCALAR)
#define QFA_SIMD_ISA_SCALAR 1
#elif defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)
#define QFA_SIMD_ISA_AVX512 1
// GCC 12's AVX-512 headers seed the pass-through operand of each widening
// conversion from a deliberately self-initialized "undefined" vector, which
// -Wmaybe-uninitialized reports at every inlined call (GCC bug 105593,
// fixed in GCC 13).  The operand is fully overwritten.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#elif defined(__AVX2__)
#define QFA_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define QFA_SIMD_ISA_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
// AArch64 only: the f64 lanes (float64x2_t, vdivq_f64, ...) used below do
// not exist in 32-bit ARM NEON, which falls through to the scalar path.
#define QFA_SIMD_ISA_NEON 1
#include <arm_neon.h>
#else
#define QFA_SIMD_ISA_SCALAR 1
#endif

namespace qfa::simd {

/// Row padding unit of the compiled plan layout (see TypePlan::kRowAlign).
/// Deliberately ISA-independent: 8 is a whole number of vectors at every
/// supported width (8 = one 8 x f64 vector on AVX-512, 2 x 4 f64 on AVX2,
/// 4 x 2 on SSE2/NEON, one u16x8 Q15 block), so the padded geometry — and
/// therefore plan bytes, COW sharing and stats — is identical across
/// builds and escape hatches.
inline constexpr std::size_t kRowBlock = 8;

#if defined(QFA_SIMD_ISA_AVX512)

inline namespace simd_avx512 {

inline constexpr const char* kIsaName = "avx512";
inline constexpr std::size_t kF64Lanes = 8;

using f64v = __m512d;
using f64m = __mmask8;

inline f64v f64_broadcast(double v) noexcept { return _mm512_set1_pd(v); }
inline f64v f64_loadu(const double* p) noexcept { return _mm512_loadu_pd(p); }
inline void f64_storeu(double* p, f64v v) noexcept { _mm512_storeu_pd(p, v); }
inline f64v f64_add(f64v a, f64v b) noexcept { return _mm512_add_pd(a, b); }
inline f64v f64_sub(f64v a, f64v b) noexcept { return _mm512_sub_pd(a, b); }
inline f64v f64_mul(f64v a, f64v b) noexcept { return _mm512_mul_pd(a, b); }
inline f64v f64_div(f64v a, f64v b) noexcept { return _mm512_div_pd(a, b); }

/// Keeps v's lanes where m is set, +0.0 elsewhere (zeroing masked move).
inline f64v f64_and(f64v v, f64m m) noexcept { return _mm512_maskz_mov_pd(m, v); }

/// |v| by clearing the sign bit (exact, no rounding).
inline f64v f64_abs(f64v v) noexcept { return _mm512_abs_pd(v); }

inline f64m f64_lt(f64v a, f64v b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
}

/// Lanewise a > b ? a : b, and the largest lane (exact for non-NaN input).
inline f64v f64_max(f64v a, f64v b) noexcept { return _mm512_max_pd(a, b); }
inline double f64_hmax(f64v v) noexcept {
    const __m256d m = _mm256_max_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd(v, 1));
    const __m128d h = _mm_max_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd(m, 1));
    return _mm_cvtsd_f64(_mm_max_sd(h, _mm_unpackhi_pd(h, h)));
}

/// Widens kF64Lanes u16 payload values to f64 lanes (exact conversion).
inline f64v f64_from_u16(const std::uint16_t* p) noexcept {
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm512_cvtepi64_pd(_mm512_cvtepu16_epi64(raw));
}

/// Presence words (0xFFFF present / 0 absent) to a lane mask.
inline f64m f64_lanemask_u16(const std::uint16_t* p) noexcept {
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm_test_epi16_mask(raw, raw);
}

/// Widens kF64Lanes Q8 codes (u8) to f64 lanes (exact conversion).
inline f64v f64_from_u8(const std::uint8_t* p) noexcept {
    const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm512_cvtepi64_pd(_mm512_cvtepu8_epi64(raw));
}

/// Q8 presence masks: code 0 encodes "absent" in the quantized tier.  The
/// load leaves bytes 8..15 zero, so the 16-lane test's high half is 0.
inline f64m f64_lanemask_u8(const std::uint8_t* p) noexcept {
    const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return static_cast<f64m>(_mm_test_epi8_mask(raw, raw));
}

#elif defined(QFA_SIMD_ISA_AVX2)

inline namespace simd_avx2 {

inline constexpr const char* kIsaName = "avx2";
inline constexpr std::size_t kF64Lanes = 4;

using f64v = __m256d;

inline f64v f64_broadcast(double v) noexcept { return _mm256_set1_pd(v); }
inline f64v f64_loadu(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void f64_storeu(double* p, f64v v) noexcept { _mm256_storeu_pd(p, v); }
inline f64v f64_add(f64v a, f64v b) noexcept { return _mm256_add_pd(a, b); }
inline f64v f64_sub(f64v a, f64v b) noexcept { return _mm256_sub_pd(a, b); }
inline f64v f64_mul(f64v a, f64v b) noexcept { return _mm256_mul_pd(a, b); }
inline f64v f64_div(f64v a, f64v b) noexcept { return _mm256_div_pd(a, b); }
inline f64v f64_and(f64v a, f64v b) noexcept { return _mm256_and_pd(a, b); }

/// |v| by clearing the sign bit (exact, no rounding).
inline f64v f64_abs(f64v v) noexcept {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Lanewise a < b as an all-ones / all-zeros f64 bitmask.
inline f64v f64_lt(f64v a, f64v b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}

/// Lanewise a > b ? a : b, and the largest lane (exact for non-NaN input).
inline f64v f64_max(f64v a, f64v b) noexcept { return _mm256_max_pd(a, b); }
inline double f64_hmax(f64v v) noexcept {
    const __m128d h = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(h, _mm_unpackhi_pd(h, h)));
}

/// Widens kF64Lanes u16 payload values to f64 lanes (exact conversion).
inline f64v f64_from_u16(const std::uint16_t* p) noexcept {
    const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(raw));
}

/// Widens kF64Lanes presence words (0xFFFF present / 0 absent) to
/// all-ones / all-zeros f64 lane masks.
inline f64v f64_lanemask_u16(const std::uint16_t* p) noexcept {
    const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    const __m256i wide = _mm256_cvtepu16_epi64(raw);
    return _mm256_castsi256_pd(_mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
}

/// Widens kF64Lanes Q8 codes (u8) to f64 lanes (exact conversion).
inline f64v f64_from_u8(const std::uint8_t* p) noexcept {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m128i raw = _mm_cvtsi32_si128(static_cast<int>(packed));
    return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(raw));
}

/// Q8 presence masks: code 0 encodes "absent" in the quantized tier, so
/// the lane mask is simply code != 0 widened to all-ones / all-zeros.
inline f64v f64_lanemask_u8(const std::uint8_t* p) noexcept {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m128i raw = _mm_cvtsi32_si128(static_cast<int>(packed));
    const __m256i wide = _mm256_cvtepu8_epi64(raw);
    return _mm256_castsi256_pd(_mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
}

#elif defined(QFA_SIMD_ISA_SSE2)

inline namespace simd_sse2 {

inline constexpr const char* kIsaName = "sse2";
inline constexpr std::size_t kF64Lanes = 2;

using f64v = __m128d;

inline f64v f64_broadcast(double v) noexcept { return _mm_set1_pd(v); }
inline f64v f64_loadu(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void f64_storeu(double* p, f64v v) noexcept { _mm_storeu_pd(p, v); }
inline f64v f64_add(f64v a, f64v b) noexcept { return _mm_add_pd(a, b); }
inline f64v f64_sub(f64v a, f64v b) noexcept { return _mm_sub_pd(a, b); }
inline f64v f64_mul(f64v a, f64v b) noexcept { return _mm_mul_pd(a, b); }
inline f64v f64_div(f64v a, f64v b) noexcept { return _mm_div_pd(a, b); }
inline f64v f64_and(f64v a, f64v b) noexcept { return _mm_and_pd(a, b); }

inline f64v f64_abs(f64v v) noexcept {
    return _mm_andnot_pd(_mm_set1_pd(-0.0), v);
}

inline f64v f64_lt(f64v a, f64v b) noexcept { return _mm_cmplt_pd(a, b); }

/// Lanewise a > b ? a : b, and the larger lane (exact for non-NaN input).
inline f64v f64_max(f64v a, f64v b) noexcept { return _mm_max_pd(a, b); }
inline double f64_hmax(f64v v) noexcept {
    return _mm_cvtsd_f64(_mm_max_sd(v, _mm_unpackhi_pd(v, v)));
}

inline f64v f64_from_u16(const std::uint16_t* p) noexcept {
    // Two u16s -> zero-extended u32 lanes -> exact f64 conversion (the
    // values fit int32, so the signed cvt is lossless).
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m128i raw = _mm_cvtsi32_si128(static_cast<int>(packed));
    const __m128i wide = _mm_unpacklo_epi16(raw, _mm_setzero_si128());
    return _mm_cvtepi32_pd(wide);
}

inline f64v f64_lanemask_u16(const std::uint16_t* p) noexcept {
    // 0xFFFF/0 words -> duplicate to u32 lanes (0xFFFFFFFF/0) -> duplicate
    // again to u64 lanes: an all-ones / all-zeros f64 bitmask.
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m128i raw = _mm_cvtsi32_si128(static_cast<int>(packed));
    const __m128i u32 = _mm_unpacklo_epi16(raw, raw);
    return _mm_castsi128_pd(_mm_shuffle_epi32(u32, _MM_SHUFFLE(1, 1, 0, 0)));
}

/// Widens kF64Lanes Q8 codes (u8) to f64 lanes (exact conversion; a u8
/// always fits a double, so the plain set is lossless).
inline f64v f64_from_u8(const std::uint8_t* p) noexcept {
    return _mm_set_pd(static_cast<double>(p[1]), static_cast<double>(p[0]));
}

/// Q8 presence masks: code 0 encodes "absent" in the quantized tier.
inline f64v f64_lanemask_u8(const std::uint8_t* p) noexcept {
    const __m128i lanes = _mm_set_epi64x(p[1] != 0 ? -1 : 0, p[0] != 0 ? -1 : 0);
    return _mm_castsi128_pd(lanes);
}

#elif defined(QFA_SIMD_ISA_NEON)

inline namespace simd_neon {

inline constexpr const char* kIsaName = "neon";
inline constexpr std::size_t kF64Lanes = 2;

using f64v = float64x2_t;

inline f64v f64_broadcast(double v) noexcept { return vdupq_n_f64(v); }
inline f64v f64_loadu(const double* p) noexcept { return vld1q_f64(p); }
inline void f64_storeu(double* p, f64v v) noexcept { vst1q_f64(p, v); }
inline f64v f64_add(f64v a, f64v b) noexcept { return vaddq_f64(a, b); }
inline f64v f64_sub(f64v a, f64v b) noexcept { return vsubq_f64(a, b); }
inline f64v f64_mul(f64v a, f64v b) noexcept { return vmulq_f64(a, b); }
inline f64v f64_div(f64v a, f64v b) noexcept { return vdivq_f64(a, b); }
inline f64v f64_abs(f64v v) noexcept { return vabsq_f64(v); }

inline f64v f64_and(f64v a, f64v b) noexcept {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}

inline f64v f64_lt(f64v a, f64v b) noexcept {
    return vreinterpretq_f64_u64(vcltq_f64(a, b));
}

/// Lanewise max and the larger lane (exact for non-NaN input).
inline f64v f64_max(f64v a, f64v b) noexcept { return vmaxq_f64(a, b); }
inline double f64_hmax(f64v v) noexcept { return vmaxvq_f64(v); }

inline f64v f64_from_u16(const std::uint16_t* p) noexcept {
    const std::uint64_t wide[2] = {p[0], p[1]};
    return vcvtq_f64_u64(vld1q_u64(wide));
}

inline f64v f64_lanemask_u16(const std::uint16_t* p) noexcept {
    const std::uint64_t wide[2] = {p[0] != 0 ? ~std::uint64_t{0} : 0,
                                   p[1] != 0 ? ~std::uint64_t{0} : 0};
    return vreinterpretq_f64_u64(vld1q_u64(wide));
}

/// Widens kF64Lanes Q8 codes (u8) to f64 lanes (exact conversion).
inline f64v f64_from_u8(const std::uint8_t* p) noexcept {
    const std::uint64_t wide[2] = {p[0], p[1]};
    return vcvtq_f64_u64(vld1q_u64(wide));
}

/// Q8 presence masks: code 0 encodes "absent" in the quantized tier.
inline f64v f64_lanemask_u8(const std::uint8_t* p) noexcept {
    const std::uint64_t wide[2] = {p[0] != 0 ? ~std::uint64_t{0} : 0,
                                   p[1] != 0 ? ~std::uint64_t{0} : 0};
    return vreinterpretq_f64_u64(vld1q_u64(wide));
}

#else  // scalar fallback

inline namespace simd_scalar {

inline constexpr const char* kIsaName = "scalar";
inline constexpr std::size_t kF64Lanes = 1;

/// One-lane "vector": plain double, with the masking ops emulated bitwise
/// so the kernel source is identical at every width.
using f64v = double;

namespace detail {
inline double bits_to_f64(std::uint64_t bits) noexcept {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}
inline std::uint64_t f64_to_bits(double v) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}
}  // namespace detail

inline f64v f64_broadcast(double v) noexcept { return v; }
inline f64v f64_loadu(const double* p) noexcept { return *p; }
inline void f64_storeu(double* p, f64v v) noexcept { *p = v; }
inline f64v f64_add(f64v a, f64v b) noexcept { return a + b; }
inline f64v f64_sub(f64v a, f64v b) noexcept { return a - b; }
inline f64v f64_mul(f64v a, f64v b) noexcept { return a * b; }
inline f64v f64_div(f64v a, f64v b) noexcept { return a / b; }
inline f64v f64_abs(f64v v) noexcept { return v < 0.0 ? -v : v; }

inline f64v f64_and(f64v a, f64v b) noexcept {
    return detail::bits_to_f64(detail::f64_to_bits(a) & detail::f64_to_bits(b));
}

inline f64v f64_lt(f64v a, f64v b) noexcept {
    return detail::bits_to_f64(a < b ? ~std::uint64_t{0} : 0);
}

inline f64v f64_max(f64v a, f64v b) noexcept { return a > b ? a : b; }
inline double f64_hmax(f64v v) noexcept { return v; }

inline f64v f64_from_u16(const std::uint16_t* p) noexcept {
    return static_cast<double>(*p);
}

inline f64v f64_lanemask_u16(const std::uint16_t* p) noexcept {
    return detail::bits_to_f64(*p != 0 ? ~std::uint64_t{0} : 0);
}

inline f64v f64_from_u8(const std::uint8_t* p) noexcept {
    return static_cast<double>(*p);
}

inline f64v f64_lanemask_u8(const std::uint8_t* p) noexcept {
    return detail::bits_to_f64(*p != 0 ? ~std::uint64_t{0} : 0);
}

#endif

// ---- Q0.15 fixed-point block primitive ------------------------------------
//
// For kRowBlock consecutive rows: s_r = fig. 7's local similarity
// (32767 - |req - vals[r]| * recip, truncated product, 0 when the scaled
// ratio saturates), AND-masked by the presence word, then
// acc[r] += u64(s_r) * weight — the exact integer arithmetic of
// fx::local_similarity_q15 / SimAccumulator::add_product, lane-parallel.

#if defined(QFA_SIMD_ISA_AVX512) || defined(QFA_SIMD_ISA_AVX2)

// AVX-512 reuses the AVX2 block: kRowBlock = 8 rows already fill one
// 256-bit register at u32 granularity.
inline constexpr std::size_t kQ15Lanes = 8;

inline void q15_block(std::uint64_t* acc, const std::uint16_t* vals,
                      const std::uint16_t* mask, std::uint16_t req,
                      std::uint16_t recip, std::uint16_t weight) noexcept {
    // All 8 rows at u32 granularity in one 256-bit register.
    const __m256i v = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals)));
    // Presence widened to 0x0000FFFF; s <= 32767 fits the low half.
    const __m256i m = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask)));
    const __m256i rq = _mm256_set1_epi32(req);
    const __m256i d =
        _mm256_sub_epi32(_mm256_max_epu32(v, rq), _mm256_min_epu32(v, rq));
    // Exact 32-bit product d * recip (<= 65535 * 32767 < 2^31, so the
    // signed compare below is safe).
    const __m256i prod = _mm256_mullo_epi32(d, _mm256_set1_epi32(recip));
    const __m256i one = _mm256_set1_epi32(32767);
    // s = prod < 32767 ? 32767 - prod : 0, then AND the presence word.
    const __m256i s = _mm256_and_si256(
        _mm256_and_si256(_mm256_sub_epi32(one, prod), _mm256_cmpgt_epi32(one, prod)), m);
    // Widen to u64 lanes and multiply-accumulate; mul_epu32 reads the low
    // 32 bits of each 64-bit lane, which hold exactly s and weight.
    const __m256i w64 = _mm256_set1_epi64x(static_cast<long long>(weight));
    const __m256i s_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(s));
    const __m256i s_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(s, 1));
    __m256i* out = reinterpret_cast<__m256i*>(acc);
    _mm256_storeu_si256(
        out, _mm256_add_epi64(_mm256_loadu_si256(out), _mm256_mul_epu32(s_lo, w64)));
    _mm256_storeu_si256(out + 1, _mm256_add_epi64(_mm256_loadu_si256(out + 1),
                                                  _mm256_mul_epu32(s_hi, w64)));
}

#elif defined(QFA_SIMD_ISA_SSE2)

inline constexpr std::size_t kQ15Lanes = 8;

namespace detail {
/// acc[0..3] += u64(s32 lane i) * weight for 4 u32 similarities.
inline void q15_accumulate4(std::uint64_t* acc, __m128i s32, __m128i weight64) noexcept {
    // mul_epu32 multiplies the low 32 bits of each 64-bit lane: lanes
    // (0, 2) of s32 directly, lanes (1, 3) after a 32-bit shift.
    const __m128i even = _mm_mul_epu32(s32, weight64);                      // s0*w, s2*w
    const __m128i odd = _mm_mul_epu32(_mm_srli_epi64(s32, 32), weight64);   // s1*w, s3*w
    __m128i* out = reinterpret_cast<__m128i*>(acc);
    _mm_storeu_si128(out, _mm_add_epi64(_mm_loadu_si128(out),
                                        _mm_unpacklo_epi64(even, odd)));
    _mm_storeu_si128(out + 1, _mm_add_epi64(_mm_loadu_si128(out + 1),
                                            _mm_unpackhi_epi64(even, odd)));
}
}  // namespace detail

inline void q15_block(std::uint64_t* acc, const std::uint16_t* vals,
                      const std::uint16_t* mask, std::uint16_t req,
                      std::uint16_t recip, std::uint16_t weight) noexcept {
    const __m128i rq = _mm_set1_epi16(static_cast<short>(req));
    const __m128i rc = _mm_set1_epi16(static_cast<short>(recip));
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals));
    const __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask));
    // |a - b| on u16 lanes: one of the two saturating subtractions is 0.
    const __m128i d = _mm_or_si128(_mm_subs_epu16(rq, v), _mm_subs_epu16(v, rq));
    // Full 32-bit product d * recip (<= 65535 * 32767 < 2^31) from the
    // 16-bit low/high halves.
    const __m128i lo = _mm_mullo_epi16(d, rc);
    const __m128i hi = _mm_mulhi_epu16(d, rc);
    const __m128i prod_a = _mm_unpacklo_epi16(lo, hi);  // rows 0..3
    const __m128i prod_b = _mm_unpackhi_epi16(lo, hi);  // rows 4..7
    // s = prod < 32767 ? 32767 - prod : 0, then AND the presence word
    // (widened to 0x0000FFFF; s <= 32767 fits the low half).
    const __m128i one = _mm_set1_epi32(32767);
    const __m128i zero = _mm_setzero_si128();
    const __m128i m_a = _mm_unpacklo_epi16(m, zero);
    const __m128i m_b = _mm_unpackhi_epi16(m, zero);
    const __m128i s_a = _mm_and_si128(
        _mm_and_si128(_mm_sub_epi32(one, prod_a), _mm_cmpgt_epi32(one, prod_a)), m_a);
    const __m128i s_b = _mm_and_si128(
        _mm_and_si128(_mm_sub_epi32(one, prod_b), _mm_cmpgt_epi32(one, prod_b)), m_b);
    const __m128i w64 = _mm_set1_epi64x(static_cast<long long>(weight));
    detail::q15_accumulate4(acc, s_a, w64);
    detail::q15_accumulate4(acc + 4, s_b, w64);
}

#elif defined(QFA_SIMD_ISA_NEON)

inline constexpr std::size_t kQ15Lanes = 8;

namespace detail {
inline void q15_accumulate4(std::uint64_t* acc, uint32x4_t s32, uint32x2_t weight) noexcept {
    uint64x2_t a01 = vld1q_u64(acc);
    uint64x2_t a23 = vld1q_u64(acc + 2);
    a01 = vmlal_u32(a01, vget_low_u32(s32), weight);
    a23 = vmlal_u32(a23, vget_high_u32(s32), weight);
    vst1q_u64(acc, a01);
    vst1q_u64(acc + 2, a23);
}
}  // namespace detail

inline void q15_block(std::uint64_t* acc, const std::uint16_t* vals,
                      const std::uint16_t* mask, std::uint16_t req,
                      std::uint16_t recip, std::uint16_t weight) noexcept {
    const uint16x8_t v = vld1q_u16(vals);
    const uint16x8_t m = vld1q_u16(mask);
    const uint16x8_t d = vabdq_u16(v, vdupq_n_u16(req));
    const uint16x4_t rc = vdup_n_u16(recip);
    // vmull widens to the exact 32-bit product d * recip.
    const uint32x4_t prod_a = vmull_u16(vget_low_u16(d), rc);
    const uint32x4_t prod_b = vmull_u16(vget_high_u16(d), rc);
    const uint32x4_t one = vdupq_n_u32(32767);
    // Presence widened to 0x0000FFFF; s <= 32767 fits the low half.
    const uint32x4_t m_a = vmovl_u16(vget_low_u16(m));
    const uint32x4_t m_b = vmovl_u16(vget_high_u16(m));
    const uint32x4_t s_a =
        vandq_u32(vandq_u32(vsubq_u32(one, prod_a), vcltq_u32(prod_a, one)), m_a);
    const uint32x4_t s_b =
        vandq_u32(vandq_u32(vsubq_u32(one, prod_b), vcltq_u32(prod_b, one)), m_b);
    const uint32x2_t w = vdup_n_u32(weight);
    detail::q15_accumulate4(acc, s_a, w);
    detail::q15_accumulate4(acc + 4, s_b, w);
}

#else  // scalar fallback

inline constexpr std::size_t kQ15Lanes = 1;

inline void q15_block(std::uint64_t* acc, const std::uint16_t* vals,
                      const std::uint16_t* mask, std::uint16_t req,
                      std::uint16_t recip, std::uint16_t weight) noexcept {
    const std::uint32_t a = *vals;
    const std::uint32_t b = req;
    const std::uint32_t d = a >= b ? a - b : b - a;
    const std::uint32_t prod = d * static_cast<std::uint32_t>(recip);
    // d == 0 gives prod == 0 and s == 32767: the Q15::one() identity case
    // of fx::local_similarity_q15 falls out of the same formula.
    const std::uint32_t s = prod < 32767 ? 32767 - prod : 0;
    *acc += static_cast<std::uint64_t>(s & *mask) * weight;
}

#endif

static_assert(kRowBlock % kF64Lanes == 0, "row padding must cover f64 vectors");
static_assert(kRowBlock % kQ15Lanes == 0, "row padding must cover Q15 blocks");

}  // inline namespace (per-ISA)
}  // namespace qfa::simd
