// Case-base retrieval — the "most similar retrieval" algorithm of fig. 6.
//
// Given a request, the retriever locates the requested function type in the
// case base, scores every implementation variant with eq. (1)/(2) and
// returns the ranked candidates.  Two scoring paths are provided:
//
//  * double precision — the reference the paper validated in Matlab;
//  * Q15 fixed point  — arithmetic identical to the hardware datapath
//    (reciprocal multiply, truncation, Q30 accumulation), used as the
//    golden model for the RTL and instruction-set simulators.
//
// Retrieval rules from the paper:
//  * a request attribute missing from an implementation scores s_i = 0
//    ("a missing attribute can be seen as unsatisfiable requirement", §3);
//  * candidates below a similarity threshold can be rejected (§3);
//  * n-best retrieval (§5 outlook) returns the n top candidates so the
//    allocation manager can check feasibility of alternatives.
//
// Thread safety.  A Retriever is a read-only view (four pointers); all
// scoring members are const and touch no shared mutable state, so any
// number of threads may retrieve through the same Retriever — or through
// per-thread copies — concurrently, provided (a) each thread passes its
// own RetrievalScratch and (b) the bound case base / bounds / compiled
// view are not mutated meanwhile.  The serve engine (src/serve) satisfies
// (b) by scoring only immutable epoch-published generations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/amalgamation.hpp"
#include "core/bounds.hpp"
#include "core/case_base.hpp"
#include "core/compiled.hpp"
#include "core/request.hpp"
#include "core/similarity.hpp"
#include "fixed/q15.hpp"

namespace qfa::cbr {

/// Per-attribute scoring detail — one row of the paper's Table 1.
struct LocalDetail {
    AttrId id;
    AttrValue request_value = 0;
    std::optional<AttrValue> case_value;  ///< nullopt: attribute missing
    std::uint32_t distance = 0;           ///< |A_req - A_cb| (0 when missing)
    std::uint32_t dmax = 0;
    double weight = 0.0;
    double similarity = 0.0;              ///< s_i, 0 when missing
};

/// One scored candidate implementation.
struct Match {
    TypeId type;
    ImplId impl;
    Target target = Target::gpp;
    double similarity = 0.0;              ///< S_global in [0, 1]
    std::vector<LocalDetail> details;     ///< filled when collect_details
};

/// One scored candidate in exact datapath arithmetic.
struct MatchQ15 {
    TypeId type;
    ImplId impl;
    std::uint64_t similarity_q30 = 0;     ///< the hardware accumulator value

    [[nodiscard]] double similarity() const noexcept {
        return static_cast<double>(similarity_q30) /
               (static_cast<double>(fx::Q15::kScale) * static_cast<double>(fx::Q15::kScale));
    }
};

/// Why a retrieval produced no candidates.
enum class RetrievalStatus {
    ok,                 ///< at least one candidate survived
    type_not_found,     ///< requested function type absent from the case base
    all_below_threshold ///< candidates existed but none passed the threshold
};

/// Telemetry of the last retrieve_compiled call's two-phase stage —
/// observability for the tests that pin the widening fallback and for the
/// bench's bytes-scanned accounting.  Never consulted by the algorithm.
struct TwoPhaseStats {
    bool engaged = false;          ///< phase 1 ran over the Q8 tier
    std::size_t rescored = 0;      ///< rows exactly rescored (all widen rounds)
    std::size_t widen_rounds = 0;  ///< times K doubled before the cut was safe
    std::size_t final_k = 0;       ///< candidate count of the accepted cut
};

/// Caller-owned scratch for the compiled retrieval paths.
///
/// One instance per serving thread; every vector is grown once to the
/// high-water mark of the workload and then reused, so steady-state
/// retrieval performs no heap allocation (beyond the returned matches —
/// and the _into variants avoid even those by parking their output here).
struct RetrievalScratch {
    std::vector<double> acc;              ///< per-row weighted-sum state
    std::vector<std::uint64_t> acc_q30;   ///< per-row Q30 accumulators
    std::vector<double> norm_weights;     ///< per-constraint w_i / Σw
    std::vector<std::size_t> columns;     ///< per-constraint column / npos
    std::vector<double> locals;           ///< per-row locals (general path)
    std::vector<fx::Q15> q15_weights;     ///< per-constraint quantized w_i
    WeightQuantScratch quant;             ///< quantizer working buffers
    std::vector<std::uint32_t> topk;      ///< candidate row heap
    std::vector<MatchQ15> q15_out;        ///< score_q15_*_into output

    // Two-phase (Q8 tier) retrieval knobs.  retrieve_compiled runs phase 1
    // over the quantized tier whenever the plan has one, the default
    // weighted-sum amalgamation is in effect, the type has at least
    // two_phase_min_rows implementations, and the phase-1 candidate count
    // K = max(phase1_k, 4 × n_best) is below the row count (otherwise a
    // full exact scan is cheaper).  The knobs tune *performance only*:
    // results are bit-identical to the exact scan at every setting.
    std::size_t phase1_k = 0;              ///< extra K floor; 0 = 4 × n_best
    std::size_t two_phase_min_rows = 128;  ///< smaller plans scan exact directly

    std::vector<double> approx;            ///< phase-1 scores (Q8 tier)
    std::vector<double> block_err;         ///< per-block score error bound
    std::vector<double> block_max;         ///< per-block max phase-1 score
    std::vector<std::uint32_t> survivors;  ///< phase-2 exact-rescore rows
    std::vector<double> suffix_bound;      ///< pool-tail rejected-row bounds
    TwoPhaseStats two_phase;               ///< telemetry of the last call
};

/// Retrieval knobs.
struct RetrievalOptions {
    std::size_t n_best = 1;          ///< how many ranked candidates to return
    double threshold = 0.0;          ///< reject candidates with S < threshold
    bool collect_details = false;    ///< fill Match::details (Table 1 rows)
    LocalMetric metric = LocalMetric::manhattan;
};

/// Result of a retrieval: ranked candidates plus effort counters.
struct RetrievalResult {
    RetrievalStatus status = RetrievalStatus::type_not_found;
    std::vector<Match> matches;      ///< descending by similarity, then ImplId
    std::size_t impls_considered = 0;
    std::size_t attrs_compared = 0;  ///< request-attribute lookups performed

    [[nodiscard]] bool ok() const noexcept { return status == RetrievalStatus::ok; }
    [[nodiscard]] const Match& best() const;
};

/// Backend-agnostic result assembly — the one place Q30-datapath backends
/// (mblaze soft-core, RTL device model) turn ranked hardware candidates
/// into a RetrievalResult with the exact status/threshold/ranking semantics
/// of the double-precision paths.  `ranked` must be descending by
/// similarity_q30 with ties towards the lower ImplId (what both datapath
/// models produce); candidates below options.threshold are rejected with
/// the same `S < threshold` rule retrieve() applies, targets are looked up
/// from the tree, and the status mirrors retrieve_compiled's: missing type
/// -> type_not_found, zero implementations or nothing surviving the
/// threshold -> all_below_threshold.  Effort counters follow the compiled
/// path's accounting (impls_considered = row count, attrs_compared = rows x
/// constraints) so modeled results stay comparable across backends.
[[nodiscard]] RetrievalResult assemble_result_q30(const CaseBase& cb,
                                                  const Request& request,
                                                  std::span<const MatchQ15> ranked,
                                                  const RetrievalOptions& options);

/// Documented error bound of the Q15/Q30 datapath vs the double-precision
/// weighted sum for one request:
///
///     |S_q30 - S_exact| <= Σ_i ŵ_i·local_similarity_error_bound(dmax_i)
///                          + Σ_i |ŵ_i - w_i|
///
/// where w are the normalized weights, ŵ their Q15 quantization
/// (quantize_weights' largest-remainder scheme — the very values the
/// packed request image carries) and the per-local bound is
/// fx::local_similarity_error_bound.  Every backend that scores through
/// the hardware arithmetic (mblaze, device) reports exactly this bound;
/// the conformance suite and the heterogeneous bench assert against it.
[[nodiscard]] double modeled_similarity_error_bound(const Request& request,
                                                    const BoundsTable& bounds);

/// Bit-identity of two retrieval results: same status and effort counters,
/// same ranked (type, impl, target) sequence, bitwise-equal similarities,
/// and equal detail rows (bitwise on their doubles) when collected.  This
/// is *the* golden-model comparison — the compiled fast paths, the serve
/// engine and the self-checking benches all claim equality in exactly this
/// sense, so they all share this one definition.
[[nodiscard]] bool identical_results(const RetrievalResult& a,
                                     const RetrievalResult& b) noexcept;

/// Reference retriever over the in-memory case base.
class Retriever {
public:
    /// Binds case base and design-time bounds.  The amalgamation defaults to
    /// the paper's weighted sum; a different one may be injected for the
    /// ablation benches.  All referenced objects must outlive the retriever.
    Retriever(const CaseBase& cb, const BoundsTable& bounds,
              const Amalgamation* amalgamation = nullptr);

    /// Same, with a pre-compiled columnar view of the identical case base,
    /// enabling the retrieve_compiled / retrieve_batch / score_q15_compiled
    /// fast paths.  The compiled view must have been built from `cb`.
    Retriever(const CaseBase& cb, const BoundsTable& bounds,
              const CompiledCaseBase& compiled,
              const Amalgamation* amalgamation = nullptr);

    /// Attaches a compiled view after construction (same contract).
    void bind_compiled(const CompiledCaseBase& compiled);

    [[nodiscard]] bool has_compiled() const noexcept { return compiled_ != nullptr; }

    /// Scores every implementation of the requested type.  The request is
    /// normalized internally (weights rescaled to Σ w = 1).
    [[nodiscard]] RetrievalResult retrieve(const Request& request,
                                           const RetrievalOptions& options = {}) const;

    /// Columnar fast path: scores against the compiled plan instead of the
    /// tree and selects the n best with a bounded partial heap keyed on
    /// (similarity desc, ImplId asc) instead of a full stable_sort.  The
    /// result (matches, ranks, statuses, details) is bit-identical to
    /// retrieve(): identical floating-point operations in identical order,
    /// just over the structure-of-arrays layout.  Requires a bound compiled
    /// view.  `scratch` (optional) removes all steady-state allocations
    /// apart from the returned matches.
    ///
    /// Large plans take the *two-phase* route behind this same entry point:
    /// an approximate top-K scan of the plan's Q8 quantized tier (~1.25
    /// bytes/row/constraint instead of 4) selects candidates, which are
    /// then exactly rescored in f64.  A conservative per-block
    /// quantization-error bound guards the cut — whenever the exact scores
    /// of the survivors cannot prove every rejected row is strictly out of
    /// the top n_best, K widens and the scan falls back toward the full
    /// rescore — so the returned matches are bit-identical to the exact
    /// scan by construction, never by luck (see RetrievalScratch's
    /// two-phase knobs and docs/ARCHITECTURE.md §2).
    [[nodiscard]] RetrievalResult retrieve_compiled(
        const Request& request, const RetrievalOptions& options = {},
        RetrievalScratch* scratch = nullptr) const;

    /// Batched fast path: runs retrieve_compiled over every request while
    /// reusing one caller-owned scratch, amortizing weight normalization /
    /// column-map buffers across the batch.  results[i] is bit-identical to
    /// retrieve(requests[i], options).
    [[nodiscard]] std::vector<RetrievalResult> retrieve_batch(
        std::span<const Request> requests, const RetrievalOptions& options,
        RetrievalScratch& scratch) const;

    /// Exact datapath scoring: Q15 local similarities, Q15 quantized
    /// weights, Q30 accumulation, ties broken towards the *first* candidate
    /// in list order — precisely what the fig. 6/7 hardware does.  Returns
    /// candidates in case-base order (not ranked); the best candidate is the
    /// max by (similarity_q30, earlier-in-list).
    [[nodiscard]] std::vector<MatchQ15> score_q15(const Request& request) const;

    /// Scratch-routed tree scoring: weight normalization, quantization and
    /// the scored list all live in caller-owned scratch (like
    /// retrieve_compiled does for the double path), so repeated calls
    /// perform no steady-state allocation.  The returned span aliases
    /// `scratch.q15_out` and is invalidated by the next _into call.
    std::span<const MatchQ15> score_q15_into(const Request& request,
                                             RetrievalScratch& scratch) const;

    /// Q15 datapath scoring over the compiled columns (shared with the
    /// double-precision fast path): same layout, same per-constraint
    /// traversal, results exactly equal to score_q15().  Requires a bound
    /// compiled view.  The column loop runs through the runtime-dispatched
    /// SIMD kernels (core/kernels.hpp) — exact integer arithmetic, so the
    /// equality with score_q15() holds at any lane width.
    [[nodiscard]] std::vector<MatchQ15> score_q15_compiled(
        const Request& request, RetrievalScratch* scratch = nullptr) const;

    /// Scratch-routed variant of score_q15_compiled: same contract as
    /// score_q15_into, no output allocation.
    std::span<const MatchQ15> score_q15_compiled_into(const Request& request,
                                                      RetrievalScratch& scratch) const;

    /// Best candidate under Q15 arithmetic (hardware tie-breaking), or
    /// nullopt when the type is unknown/empty.  `scratch` (optional)
    /// removes all per-call allocations.
    [[nodiscard]] std::optional<MatchQ15> retrieve_q15(
        const Request& request, RetrievalScratch* scratch = nullptr) const;

    [[nodiscard]] const CaseBase& case_base() const noexcept { return *cb_; }
    [[nodiscard]] const BoundsTable& bounds() const noexcept { return *bounds_; }

private:
    RetrievalResult retrieve_compiled_into(const Request& request,
                                           const RetrievalOptions& options,
                                           RetrievalScratch& scratch) const;

    const CaseBase* cb_;
    const BoundsTable* bounds_;
    const Amalgamation* amalgamation_;       ///< nullptr = weighted sum
    const CompiledCaseBase* compiled_ = nullptr;  ///< nullptr = tree only
};

}  // namespace qfa::cbr
