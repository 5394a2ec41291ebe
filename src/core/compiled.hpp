// Compiled columnar retrieval plans — the software mirror of figs. 4/5.
//
// The paper packs each function type's implementation descriptions into
// dense, pre-sorted 16-bit word lists so the hardware retrieval unit can
// stream them without pointer chasing (fig. 4: request list + supplemental
// dmax/reciprocal table, fig. 5: the case-base word list walked by the
// fig. 6 state machine).  The reference `CaseBase` keeps the tree in a
// pointer-rich `std::vector` hierarchy instead, and the reference
// `Retriever` pays for that layout on every request: one binary search per
// (implementation × constraint), two heap allocations per implementation
// and a full `stable_sort` per call.
//
// `CompiledCaseBase` is the design-time compilation step that recovers the
// paper's layout on the software side.  For every function type it builds a
// structure-of-arrays *plan* over the union of the type's attribute ids:
//
//           column 0       column 1    ...      (one column per AttrId)
//   row 0 [ value(i0,a0)  value(i0,a1) ... ]    (one row per ImplId)
//   row 1 [ value(i1,a0)  value(i1,a1) ... ]
//
// stored column-major, so scoring one request constraint touches one
// contiguous column for all implementations.  An implementation that lacks
// an attribute holds a sentinel slot: value 0 plus a 0x0000 word in the
// parallel presence-mask array, turning the reference path's
// `std::optional` + binary search into a branch-light gather-and-mask
// (the paper's "missing attribute = unsatisfiable requirement, s_i = 0"
// rule, §3).  Columns are padded to TypePlan::kRowAlign rows with the same
// neutral sentinels so the SIMD column kernels (core/kernels.hpp) stream
// whole vectors tail-free.  Each column also carries its design-global dmax, the exact
// double divisor (1 + dmax) of eq. (1), and the pre-quantized Q15
// reciprocal of fig. 4's "maxrange-1" entry, so the double-precision and
// the Q15 datapath share one compiled layout.
//
// Everything downstream (Retriever::retrieve_compiled / retrieve_batch /
// score_q15_compiled) is bit-identical to the tree-walking reference: same
// operations in the same order, just over a layout the hardware — and the
// cache — likes.
//
// Thread safety.  A CompiledCaseBase is immutable once constructed: any
// number of threads may call find() / plans() / stats() and score against
// the plans concurrently without synchronization, provided each thread uses
// its own RetrievalScratch.  Mutation is modelled as *replacement*: the
// retain path (§5's dynamic case-base update) builds a successor view with
// patched() — *sharing* untouched plans copy-on-write, splicing one row
// into the changed type's columns — and publishes it wholesale (see
// serve/generation.hpp for the epoch-based publication protocol).  Plans
// are held by shared_ptr<const TypePlan>, so consecutive epochs alias the
// type plans that did not change between them: publishing an epoch costs
// one splice plus a pointer copy per untouched type, never a catalogue
// copy.  A view's lifetime must cover the source CaseBase/BoundsTable it
// was compiled against *and* every reader still scoring through it;
// serve::Generation bundles all three under one shared_ptr so retiring an
// epoch frees them together (a TypePlan owns its payload outright and may
// outlive the epoch that built it, kept alive by successor epochs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bounds.hpp"
#include "core/case_base.hpp"
#include "core/ids.hpp"
#include "core/request.hpp"
#include "fixed/q15.hpp"

namespace qfa::cbr {

/// Compiled structure-of-arrays plan of one function type.
struct TypePlan {
    /// Sentinel column index: the request attribute occurs nowhere in the
    /// type's implementations (every row scores s_i = 0).
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Row padding unit of the column payload: every column is padded to a
    /// multiple of kRowAlign rows with neutral sentinels (value 0, presence
    /// 0), so the SIMD column kernels (core/kernels.hpp) run whole vectors
    /// with no scalar tail at any supported lane width.  Deliberately
    /// ISA-independent — the padded geometry, and therefore plan bytes,
    /// COW sharing and stats, is identical whether the binary runs AVX2,
    /// SSE2, NEON or the QFA_SIMD=off scalar fallback.
    static constexpr std::size_t kRowAlign = 8;

    /// Row count of one Q8 quantization block (a kRowAlign multiple, and
    /// equal to kern::kQ8Block — core/retrieval.cpp asserts the match).
    /// Each (column, block) pair carries one f32 scale and one measured
    /// f32 error bound; see the `q8` member below.
    static constexpr std::size_t kQuantBlock = 32;

    TypeId id;
    std::size_t impl_count = 0;

    /// Column stride of the payload vectors: impl_count rounded up to
    /// kRowAlign (0 for an empty type).  Set by compile()/patched().
    std::size_t row_stride = 0;

    /// Slot index of (column c, row r) in the padded payload.
    [[nodiscard]] constexpr std::size_t slot(std::size_t c, std::size_t r) const noexcept {
        return c * row_stride + r;
    }

    /// The padded stride for a row count (kRowAlign multiple, 0 for 0).
    [[nodiscard]] static constexpr std::size_t padded(std::size_t rows) noexcept {
        return (rows + kRowAlign - 1) / kRowAlign * kRowAlign;
    }

    // Row metadata (one entry per implementation, ascending by ImplId).
    std::vector<ImplId> impl_ids;
    std::vector<Target> targets;

    // Column metadata (one entry per distinct AttrId, ascending).
    std::vector<AttrId> attr_ids;
    std::vector<std::uint32_t> dmax;      ///< design-global max distance
    std::vector<double> divisor;          ///< exact 1.0 + dmax of eq. (1)
    std::vector<fx::Q15> reciprocal;      ///< fig. 4 "maxrange-1" entry

    // Column-major payload: slot [c * row_stride + r] is column c, row r.
    // Presence is one maskable 16-bit word per slot (0xFFFF / 0), shared
    // by the double-precision kernels (widened to f64 lane masks) and the
    // Q15 AND-mask loop — 2 bytes per slot where the pre-SIMD layout kept
    // an extra 8-byte double alongside.
    std::vector<AttrValue> values;        ///< 0 in sentinel/padding slots
    std::vector<std::uint16_t> present_mask;  ///< 0xFFFF present / 0x0000

    // Q8 block-quantized third tier — the phase-1 storage of two-phase
    // retrieval (core/retrieval.hpp).  Same padded column-major geometry
    // as `values` (q8[slot(c, r)]), one byte per slot:
    //
    //   code 0            absent (mirrors present_mask == 0) and padding —
    //                     presence is folded into the code so phase 1
    //                     never touches present_mask;
    //   code q ∈ [1,255]  value ≈ (q − 1) × scale of the row's block.
    //
    // Per (column, block of kQuantBlock rows) the plan stores the f32
    // scale (block_max / 254, or 0 for an empty/all-zero block — the
    // dequantized product is exact in f64 either way) and the *measured*
    // max |value − dequant| over the block's present rows, rounded up to
    // the f32 above it.  That measured bound is what makes two-phase
    // retrieval exact rather than lucky: phase 1 can only mis-rank rows
    // by what the bound admits, and the candidate cut widens K whenever
    // the exact rescore cannot prove the rejected rows are out of reach.
    std::vector<std::uint8_t> q8;   ///< quantized codes, 0 = absent/padding
    std::vector<float> q8_scale;    ///< q8_scale[c * q8_blocks() + b]
    std::vector<float> q8_err;      ///< measured per-block error bound

    /// Blocks per column of the Q8 tier (0 for an empty type).
    [[nodiscard]] constexpr std::size_t q8_blocks() const noexcept {
        return (row_stride + kQuantBlock - 1) / kQuantBlock;
    }

    /// True when the Q8 tier is populated (it always is for plans built by
    /// compile()/patched(); an empty type has an empty-but-consistent tier).
    [[nodiscard]] bool has_q8() const noexcept { return q8.size() == values.size(); }

    /// Column index for an attribute id (binary search); npos when the id
    /// never occurs in this type.
    [[nodiscard]] std::size_t column_of(AttrId id) const noexcept;

    /// Maps each (sorted) request constraint to its column via a linear
    /// merge join; out[i] = column index or npos.
    void map_columns(std::span<const RequestAttribute> constraints,
                     std::vector<std::size_t>& out) const;
};

/// Aggregate shape of a compiled case base (bench / memory accounting).
struct CompiledStats {
    std::size_t type_count = 0;
    std::size_t impl_count = 0;
    std::size_t column_count = 0;   ///< Σ per-type distinct attribute ids
    std::size_t value_slots = 0;    ///< Σ columns × rows (incl. sentinels)
    std::size_t sentinel_slots = 0; ///< real-row slots with no attribute
    std::size_t padded_slots = 0;   ///< Σ columns × (row_stride − rows)

    // Payload bytes per storage tier (padded slots included — this is
    // what a column scan actually streams).  The Q15 tier shares the
    // exact tier's values/present_mask arrays, so two tiers of bytes
    // cover all three datapaths.
    std::size_t exact_tier_bytes = 0;  ///< u16 values + u16 present_mask
    std::size_t q8_tier_bytes = 0;     ///< u8 codes + f32 scale/err per block

    /// Bytes one request constraint streams per implementation row on a
    /// given tier (the bench's bandwidth denominator).  0 when empty.
    [[nodiscard]] double exact_bytes_per_row() const noexcept {
        const std::size_t slots = value_slots + padded_slots;
        return slots == 0 ? 0.0
                          : static_cast<double>(exact_tier_bytes) /
                                static_cast<double>(slots);
    }
    [[nodiscard]] double q8_bytes_per_row() const noexcept {
        const std::size_t slots = value_slots + padded_slots;
        return slots == 0 ? 0.0
                          : static_cast<double>(q8_tier_bytes) /
                                static_cast<double>(slots);
    }
};

/// Immutable compiled form of a CaseBase + BoundsTable pair.
///
/// Compilation is a one-time design-time cost (like encoding the fig. 5
/// word lists); the per-request hot paths only read the plans.  The source
/// objects must outlive the compiled view, which keeps pointers to them so
/// consumers can assert they score against the catalogue they compiled.
class CompiledCaseBase {
public:
    CompiledCaseBase() = default;

    /// Compiles every function type of `cb` against the design-global
    /// bounds table.
    CompiledCaseBase(const CaseBase& cb, const BoundsTable& bounds);

    /// Incremental recompile after a retain/revise step (§5's dynamic
    /// update): `cb`/`bounds` are the successor catalogue in which only the
    /// implementation list of `changed` differs from `previous`'s source —
    /// bounds entries may have widened (they only ever widen, see
    /// BoundsTable::cover).  Untouched types *share* their plan with
    /// `previous` copy-on-write (one shared_ptr copy, no payload copy, no
    /// tree walk) as long as their supplemental dmax / divisor /
    /// Q15-reciprocal columns still match `bounds`; a plan whose
    /// design-global bounds widened — a retain into one type reaches into
    /// every other type whose union contains the widened attribute id — is
    /// cloned with refreshed metadata (payload still copied wholesale, not
    /// recompiled).  The changed type takes a row-splice fast path when
    /// exactly one implementation was inserted, and falls back to a
    /// single-type recompile otherwise (removal, bulk edits).  The result
    /// is bit-identical to a fresh CompiledCaseBase(cb, bounds) — same
    /// plans, same slots, same quantized reciprocals — at a fraction of
    /// the cost (the point of the serve layer's incremental epoch
    /// publication).
    [[nodiscard]] static CompiledCaseBase patched(const CompiledCaseBase& previous,
                                                  const CaseBase& cb,
                                                  const BoundsTable& bounds,
                                                  TypeId changed);

    /// Plan for a type id (binary search); nullptr when absent.
    [[nodiscard]] const TypePlan* find(TypeId id) const noexcept;

    /// The per-type plans, ascending by TypeId.  Exposed as shared_ptrs so
    /// callers can both inspect plans (`*plans()[t]`) and observe
    /// copy-on-write sharing across patched() epochs (pointer equality).
    [[nodiscard]] std::span<const std::shared_ptr<const TypePlan>> plans() const noexcept {
        return plans_;
    }
    [[nodiscard]] bool empty() const noexcept { return plans_.empty(); }

    /// The tree this view was compiled from (nullptr when default-built).
    [[nodiscard]] const CaseBase* source() const noexcept { return source_; }
    [[nodiscard]] const BoundsTable* source_bounds() const noexcept { return bounds_; }

    [[nodiscard]] CompiledStats stats() const noexcept;

private:
    /// Ascending by TypeId.  shared_ptr per plan: patched() epochs alias
    /// the plans that did not change between them (copy-on-write), and a
    /// CompiledCaseBase copy is a cheap pointer-vector copy.
    std::vector<std::shared_ptr<const TypePlan>> plans_;
    const CaseBase* source_ = nullptr;
    const BoundsTable* bounds_ = nullptr;
};

/// Shared per-constraint column iteration: invokes
/// `fn(constraint_index, constraint, column_index_or_npos)` for every
/// request constraint, reusing the merge-joined column map in `scratch` —
/// the single traversal both the double-precision and the Q15 compiled
/// scoring loops are routed through.
template <typename Fn>
void for_each_constraint_column(const TypePlan& plan,
                                std::span<const RequestAttribute> constraints,
                                std::vector<std::size_t>& column_scratch, Fn&& fn) {
    plan.map_columns(constraints, column_scratch);
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        fn(i, constraints[i], column_scratch[i]);
    }
}

}  // namespace qfa::cbr
