#include "core/retrieval.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "core/kernels.hpp"
#include "fixed/reciprocal.hpp"
#include "util/contracts.hpp"

namespace qfa::cbr {

static_assert(TypePlan::kQuantBlock == kern::kQ8Block,
              "the plan layout and the Q8 kernels must agree on the block size");

namespace {

const WeightedSum kDefaultAmalgamation{};

/// Single place for option validation (shared by the tree path, the
/// compiled path and the batch API).
void validate_options(const RetrievalOptions& options) {
    QFA_EXPECTS(options.n_best >= 1, "n_best must be at least 1");
}

/// Shared per-constraint iteration over one tree implementation: invokes
/// `fn(index, constraint, optional_case_value)` for every request
/// constraint — the one binary-search walk both the double-precision and
/// the Q15 reference scoring loops route through.
template <typename Fn>
void for_each_constraint_local(const Implementation& impl,
                               std::span<const RequestAttribute> constraints, Fn&& fn) {
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        fn(i, constraints[i], impl.attribute(constraints[i].id));
    }
}

/// Normalizes request weights into scratch.norm_weights — the exact
/// arithmetic of Request::normalized (one left-to-right sum, then one
/// divide per weight) without the Request copy.  All scoring paths route
/// through this one helper: the bit-identity contracts between them
/// depend on every path normalizing in the same operation order.
void normalize_weights_into(std::span<const RequestAttribute> constraints,
                            RetrievalScratch& scratch) {
    double sum = 0.0;
    for (const RequestAttribute& c : constraints) {
        sum += c.weight;
    }
    QFA_ASSERT(sum > 0.0, "validated request must have positive weight sum");
    scratch.norm_weights.resize(constraints.size());
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        scratch.norm_weights[i] = constraints[i].weight / sum;
    }
}

/// Same, plus the largest-remainder Q15 quantization into
/// scratch.q15_weights — the Q15 paths' shared front end.
void normalize_and_quantize_weights_into(std::span<const RequestAttribute> constraints,
                                         RetrievalScratch& scratch) {
    normalize_weights_into(constraints, scratch);
    quantize_weights(scratch.norm_weights, scratch.q15_weights, scratch.quant);
}

/// Ranking predicate of the result list: descending similarity, ties to
/// the smaller ImplId (deterministic, matches the reference stable_sort).
inline bool ranks_before(double sim_a, ImplId impl_a, double sim_b, ImplId impl_b) {
    if (sim_a != sim_b) {
        return sim_a > sim_b;
    }
    return impl_a < impl_b;
}

// ---- Two-phase (Q8) retrieval ---------------------------------------------
//
// Phase 1 scores every row approximately over the plan's Q8 quantized tier
// (~1.25 bytes/row/constraint instead of the exact tier's 4) and keeps the
// top K = max(phase1_k, 4 × n_best) rows.  Phase 2 rescores the survivors
// with the exact f64 arithmetic.  Exactness is *proved per request*, not
// assumed: with E(r) = Σ_i w_i · L · err(c_i, block(r)) / divisor(c_i)
// (L = 1 for the manhattan measure, 2 for squared — their Lipschitz
// constants in the case value over [0, divisor]) plus an FP slack, every
// row's exact score satisfies S(r) ≤ Ŝ(r) + E(r).  The cut is accepted
// only when max over rejected rows of Ŝ(x) + E(x) is *strictly* below the
// n_best-th best exact survivor score — then no rejected row can enter the
// top n_best under any tie-breaking — and otherwise K doubles (reusing the
// phase-1 scores; the Q8 tier is never rescanned) until the check passes
// or everything is rescored, which is trivially exact.
//
// Widening is organized around a candidate *pool* so it never repeats the
// O(rows) selection: the pool is the top `cap` (≥ 8 K) rows by (Ŝ desc,
// row asc), found through a block-max threshold (see select_pool), along
// with the most optimistic row left outside it.  The pool is sorted once,
// a suffix-max of Ŝ + E is precomputed, and each widening round just
// extends the rescored prefix — the rejected-side bound for a prefix of
// length k is max(outside, suffix[k]), O(1) per round.  Only when even the
// whole pool cannot prove the cut does the selection rerun with cap × 8
// (geometric, so the degenerate all-ties case stays O(rows · log) until
// the pool covers every row, where the check accepts unconditionally —
// everything rescored is trivially exact).

/// Absolute slack added to every per-block error bound: covers the FP
/// rounding differences between the kernel's approximate accumulation and
/// the exact rescore, including the Q8 kernels' reciprocal multiply
/// (d × (1/divisor) instead of d / divisor — see kernels.inl; ≲ 2 ulps of
/// a ratio ≤ 1 per constraint, so ≲ n · 2⁻⁵¹ per score for n constraints).
/// 1e-11 dwarfs that for any plausible n while sitting orders of magnitude
/// below real quantization errors, so it never costs measurable
/// selectivity.
constexpr double kTwoPhaseSlack = 1e-11;

/// Exact f64 score of one plan row — operation-for-operation the
/// arithmetic the fused kernel path performs for this row's lane
/// (kernels.inl): d = |req − value|, ratio = d / divisor, the clamp and
/// presence masks as branches, × normalized weight, accumulated in
/// constraint order, then WeightedSum's final clamp.  The kernels' masked
/// lanes contribute +0.0 exactly like the `s = 0.0` terms here, and the
/// accumulator can never be −0.0 (all terms ≥ +0.0), so the sums are
/// bitwise equal to a full kernel scan's — the rock the two-phase
/// bit-identity contract stands on (pinned by tests/core/quant_tier_test).
double exact_row_score(const TypePlan& plan, std::size_t row,
                       std::span<const RequestAttribute> constraints,
                       std::span<const std::size_t> columns,
                       std::span<const double> norm_weights, LocalMetric metric) {
    double acc = 0.0;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        const std::size_t c = columns[i];
        if (c == TypePlan::npos) {
            continue;  // the kernel scan never touches this constraint
        }
        const std::size_t slot = plan.slot(c, row);
        double s = 0.0;
        if (plan.present_mask[slot] != 0) {
            const double d = std::abs(static_cast<double>(constraints[i].value) -
                                      static_cast<double>(plan.values[slot]));
            const double ratio = d / plan.divisor[c];
            if (ratio < 1.0) {
                s = metric == LocalMetric::manhattan ? 1.0 - ratio : 1.0 - ratio * ratio;
            }
        }
        acc += norm_weights[i] * s;
    }
    return std::clamp(acc, 0.0, 1.0);
}

/// Selects the top `cap` of `rows` phase-1 rows by `better` into `pool`
/// (sorted by `better`) and returns the most optimistic row bound left
/// outside it: max over outside rows x of approx[x] + block_err[x / 32],
/// or −1 when every row is in the pool (bounds are ≥ 0).
///
/// Rather than rank every row, it prunes by Q8 block.  block_max[b] is
/// the max Ŝ over block b, padding included — padded rows hold exactly
/// +0.0, never above a real row.  Let τ = the cap-th largest block max.
/// The cap blocks whose max is ≥ τ each hold a distinct real row ≥ τ, so at
/// least cap rows rank above any row < τ: such rows can never be in the
/// pool.  A block whose max is below τ is therefore outside as a whole, and
/// its rows' largest bound is exactly blockmax + err: FP addition rounds
/// monotonically, x ≤ y ⇒ fl(x + e) ≤ fl(y + e), so the max of the rounded
/// row bounds is the rounded bound of the max row (the same argument folds
/// a block's sub-τ rows through their max).  Only the ≈ cap blocks at or
/// above τ are read row by row; their rows ≥ τ are the candidates, from
/// which nth_element + sort pick the pool.  When cap ≥ the block count (a
/// regrown pool) τ is −∞ and every row is a candidate.  The pool, its order
/// and the outside bound are bitwise those of a full row-by-row top-cap
/// scan.
template <typename Better>
double select_pool(std::span<const double> approx, std::span<const double> block_max,
                   std::span<const double> block_err, std::size_t rows, std::size_t cap,
                   const Better& better, std::vector<double>& tau_scratch,
                   std::vector<std::uint32_t>& pool) {
    constexpr std::size_t kBlock = TypePlan::kQuantBlock;
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    double tau = kNone;
    if (cap < block_max.size()) {
        tau_scratch.assign(block_max.begin(), block_max.end());
        std::nth_element(tau_scratch.begin(),
                         tau_scratch.begin() + static_cast<std::ptrdiff_t>(cap - 1),
                         tau_scratch.end(), std::greater<double>());
        tau = tau_scratch[cap - 1];
    }
    double outside_bound = -1.0;
    std::size_t count = 0;
    pool.clear();
    for (std::size_t b = 0; b < block_max.size(); ++b) {
        const double err = block_err[b];
        if (block_max[b] < tau) {
            outside_bound = std::max(outside_bound, block_max[b] + err);
            continue;
        }
        // Branch-free split: every row is written, only rows ≥ τ advance
        // the pool; the others reduce to their max (kNone when none).
        const std::size_t first = b * kBlock;
        const std::size_t end = std::min(rows, first + kBlock);
        pool.resize(count + (end - first));
        double below = kNone;
        for (std::size_t r = first; r < end; ++r) {
            const double a = approx[r];
            const bool keep = a >= tau;
            pool[count] = static_cast<std::uint32_t>(r);
            count += keep ? 1 : 0;
            below = std::max(below, keep ? kNone : a);
        }
        outside_bound = std::max(outside_bound, below + err);
    }
    pool.resize(count);
    if (count > cap) {
        const auto cut = pool.begin() + static_cast<std::ptrdiff_t>(cap);
        std::nth_element(pool.begin(), cut, pool.end(), better);
        for (auto it = cut; it != pool.end(); ++it) {
            outside_bound = std::max(outside_bound, approx[*it] + block_err[*it / kBlock]);
        }
        pool.erase(cut, pool.end());
    }
    std::sort(pool.begin(), pool.end(), better);
    return outside_bound;
}

/// The two-phase scorer of retrieve_compiled_into's fused path.  Returns
/// true with scratch.survivors holding the candidate rows (ascending) and
/// sims[] exactly scored at those rows — a proven superset of the rows any
/// exact full scan would return — or false when the plan has no Q8 tier,
/// is below the engagement threshold, or K already covers every row (the
/// exact scan is then at least as cheap).
bool two_phase_score(const TypePlan& plan, std::span<const RequestAttribute> constraints,
                     const RetrievalOptions& options, RetrievalScratch& scratch,
                     std::vector<double>& sims) {
    const std::size_t rows = plan.impl_count;
    const std::size_t k0 = std::max(scratch.phase1_k, 4 * options.n_best);
    if (!plan.has_q8() || rows < scratch.two_phase_min_rows || k0 >= rows) {
        return false;
    }
    const std::size_t n = constraints.size();
    const std::size_t stride = plan.row_stride;
    const std::size_t blocks = plan.q8_blocks();

    // Phase 1: approximate every row over the quantized tier, and fold the
    // plan's per-(column, block) quantization error bounds into one score
    // bound per block of rows.
    //
    // The scan is *tiled*: all constraints run over one kTileBlocks-block
    // slice of rows before the scan advances, so the f64 accumulator slice
    // (the dominant memory traffic of a constraint-major scan — 16 bytes
    // of acc read+write per row per constraint, dwarfing the ~1.25 value
    // bytes the Q8 tier streams) stays L1-resident instead of making a
    // round trip per constraint.  Per row the terms still accumulate in
    // constraint order, so the scores are bitwise what the un-tiled loop
    // produced.
    std::vector<double>& approx = scratch.approx;
    approx.assign(stride, 0.0);
    std::vector<double>& block_err = scratch.block_err;
    block_err.assign(blocks, kTwoPhaseSlack);
    plan.map_columns(constraints, scratch.columns);
    const kern::KernelTable& kernels = kern::active_kernels();
    const auto kernel = options.metric == LocalMetric::manhattan ? kernels.q8_manhattan
                                                                 : kernels.q8_squared;
    // Each finished tile also yields its blocks' max Ŝ while the slice is
    // still in L1: the pool selection below prunes whole blocks by it.
    std::vector<double>& block_max = scratch.block_max;
    block_max.resize(blocks);
    constexpr std::size_t kTileBlocks = 8;  // 256 rows → a 2 KB acc slice
    for (std::size_t b0 = 0; b0 < blocks; b0 += kTileBlocks) {
        const std::size_t r0 = b0 * TypePlan::kQuantBlock;
        const std::size_t len = std::min(stride - r0, kTileBlocks * TypePlan::kQuantBlock);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = scratch.columns[i];
            if (c == TypePlan::npos) {
                continue;  // s_i = 0 everywhere, exactly as in the exact scan
            }
            kernel(approx.data() + r0, plan.q8.data() + c * stride + r0,
                   plan.q8_scale.data() + c * blocks + b0, len, constraints[i].value,
                   plan.divisor[c], scratch.norm_weights[i]);
        }
        kernels.q8_block_max(block_max.data() + b0, approx.data() + r0, len);
    }
    const double lipschitz = options.metric == LocalMetric::manhattan ? 1.0 : 2.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = scratch.columns[i];
        if (c == TypePlan::npos) {
            continue;
        }
        const double factor = scratch.norm_weights[i] * lipschitz / plan.divisor[c];
        for (std::size_t b = 0; b < blocks; ++b) {
            block_err[b] += factor * static_cast<double>(plan.q8_err[c * blocks + b]);
        }
    }
    // No clamp pass over approx: the safety check only uses Ŝ + E as an
    // *upper* bound on the exact score, and clamping can only lower the
    // exact side (S = clamp(sum) ≤ sum ≤ Ŝ + E holds unclamped), so
    // ranking rows by the raw accumulator is both correct and one O(rows)
    // pass cheaper.

    scratch.two_phase = TwoPhaseStats{true, 0, 0, 0};
    std::vector<std::uint32_t>& survivors = scratch.survivors;
    sims.resize(stride);  // only survivor slots are written (and later read)

    const auto better = [&](std::uint32_t a, std::uint32_t b) {
        if (approx[a] != approx[b]) {
            return approx[a] > approx[b];
        }
        return a < b;
    };
    const auto row_bound = [&](std::uint32_t r) {
        return approx[r] + block_err[r / TypePlan::kQuantBlock];
    };
    const auto rescore = [&](std::uint32_t r) {
        sims[r] = exact_row_score(plan, r, constraints, scratch.columns,
                                  scratch.norm_weights, options.metric);
        ++scratch.two_phase.rescored;
    };

    std::size_t k = k0;
    // The pool comfortably over-covers K so typical widening stays inside
    // it; 8× was sized against the bench workloads' observed final K.  When
    // the pool swallows the whole plan no special case is needed: nothing
    // is left outside, so outside_bound stays −1 and the safety check
    // trivially accepts once k reaches rows (exact scores are ≥ 0).
    std::size_t cap = std::min(rows, std::max<std::size_t>(8 * k0, 64));
    while (true) {
        // The top `cap` rows by (Ŝ desc, row asc) — any deterministic order
        // works, the safety check covers every rejected row — and the most
        // optimistic row left outside the pool: max over outside x of
        // Ŝ(x) + E(x).  scratch.locals is free until the safety check.
        const double outside_bound = select_pool(approx, block_max, block_err, rows, cap,
                                                 better, scratch.locals, survivors);

        // suffix_bound[j] = most optimistic row in pool[j..cap) or outside:
        // the rejected-side bound when the rescored prefix has length j.
        std::vector<double>& suffix_bound = scratch.suffix_bound;
        suffix_bound.assign(cap + 1, outside_bound);
        for (std::size_t j = cap; j-- > 0;) {
            suffix_bound[j] = std::max(suffix_bound[j + 1], row_bound(survivors[j]));
        }

        // Phase 2: exactly rescore the prefix; widen by doubling it.  Each
        // round costs only the newly added rows plus an O(k) safety check.
        std::size_t scored = 0;
        while (true) {
            for (; scored < k; ++scored) {
                rescore(survivors[scored]);
            }
            scratch.two_phase.final_k = k;

            // Safety check: the n_best-th best exact survivor must
            // *strictly* beat every rejected row's upper bound; otherwise
            // a rejected row could still belong in the top n_best and K
            // must widen.  k >= k0 >= 4 × n_best, so nth_element is valid.
            std::vector<double>& exact_vals = scratch.locals;
            exact_vals.clear();
            for (std::size_t j = 0; j < k; ++j) {
                exact_vals.push_back(sims[survivors[j]]);
            }
            std::nth_element(
                exact_vals.begin(),
                exact_vals.begin() + static_cast<std::ptrdiff_t>(options.n_best - 1),
                exact_vals.end(), std::greater<double>());
            if (suffix_bound[k] < exact_vals[options.n_best - 1]) {
                survivors.resize(k);
                // The final heap selection visits survivors in ascending
                // row order so its tie handling is position-independent of
                // how the pool happened to order them.
                std::sort(survivors.begin(), survivors.end());
                return true;
            }
            ++scratch.two_phase.widen_rounds;
            if (k == cap) {
                break;  // even the whole pool can't prove the cut: regrow
            }
            k = std::min(cap, k * 2);
        }
        k = cap;  // keep the prefix monotone across the pool rebuild
        cap = std::min(rows, cap * 8);
    }
}

/// Fills one reference-identical details row list for a compiled plan row.
void collect_plan_details(const TypePlan& plan, std::size_t row,
                          std::span<const RequestAttribute> constraints,
                          std::span<const std::size_t> columns,
                          std::span<const double> norm_weights, LocalMetric metric,
                          const BoundsTable& bounds, Match& match) {
    match.details.reserve(constraints.size());
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        const RequestAttribute& constraint = constraints[i];
        const std::size_t c = columns[i];
        std::optional<AttrValue> case_value;
        double s = 0.0;
        std::uint32_t dmax;
        if (c != TypePlan::npos) {
            dmax = plan.dmax[c];
            const std::size_t slot = plan.slot(c, row);
            if (plan.present_mask[slot] != 0) {
                case_value = plan.values[slot];
                s = local_similarity(metric, constraint.value, *case_value, dmax);
            }
        } else {
            // The reference records the design-global dmax even when the
            // attribute occurs in no implementation of the type.
            dmax = bounds.dmax(constraint.id);
        }
        match.details.push_back(LocalDetail{
            constraint.id, constraint.value, case_value,
            case_value ? manhattan_distance(constraint.value, *case_value) : 0, dmax,
            norm_weights[i], s});
    }
}

}  // namespace

const Match& RetrievalResult::best() const {
    QFA_EXPECTS(!matches.empty(), "best() on an empty retrieval result");
    return matches.front();
}

bool identical_results(const RetrievalResult& a, const RetrievalResult& b) noexcept {
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    if (a.status != b.status || a.impls_considered != b.impls_considered ||
        a.attrs_compared != b.attrs_compared || a.matches.size() != b.matches.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.matches.size(); ++i) {
        const Match& x = a.matches[i];
        const Match& y = b.matches[i];
        if (x.type != y.type || x.impl != y.impl || x.target != y.target ||
            bits(x.similarity) != bits(y.similarity) ||
            x.details.size() != y.details.size()) {
            return false;
        }
        for (std::size_t d = 0; d < x.details.size(); ++d) {
            const LocalDetail& p = x.details[d];
            const LocalDetail& q = y.details[d];
            if (p.id != q.id || p.request_value != q.request_value ||
                p.case_value != q.case_value || p.distance != q.distance ||
                p.dmax != q.dmax || bits(p.weight) != bits(q.weight) ||
                bits(p.similarity) != bits(q.similarity)) {
                return false;
            }
        }
    }
    return true;
}

Retriever::Retriever(const CaseBase& cb, const BoundsTable& bounds,
                     const Amalgamation* amalgamation)
    : cb_(&cb), bounds_(&bounds), amalgamation_(amalgamation) {}

Retriever::Retriever(const CaseBase& cb, const BoundsTable& bounds,
                     const CompiledCaseBase& compiled, const Amalgamation* amalgamation)
    : cb_(&cb), bounds_(&bounds), amalgamation_(amalgamation) {
    bind_compiled(compiled);
}

void Retriever::bind_compiled(const CompiledCaseBase& compiled) {
    QFA_EXPECTS(compiled.source() == cb_,
                "compiled view must be built from the retriever's case base");
    QFA_EXPECTS(compiled.source_bounds() == bounds_,
                "compiled view must be built from the retriever's bounds table");
    compiled_ = &compiled;
}

RetrievalResult Retriever::retrieve(const Request& request,
                                    const RetrievalOptions& options) const {
    validate_options(options);

    RetrievalResult result;
    const FunctionType* type = cb_->find_type(request.type());
    if (type == nullptr) {
        result.status = RetrievalStatus::type_not_found;
        return result;
    }

    const Request normalized = request.normalized();
    const Amalgamation& amalg =
        amalgamation_ != nullptr ? *amalgamation_ : kDefaultAmalgamation;

    std::vector<Match> scored;
    scored.reserve(type->impls.size());
    std::vector<double> locals;
    std::vector<double> weights;
    for (const Implementation& impl : type->impls) {
        ++result.impls_considered;
        locals.clear();
        weights.clear();
        Match match{type->id, impl.id, impl.target, 0.0, {}};
        for_each_constraint_local(
            impl, normalized.constraints(),
            [&](std::size_t, const RequestAttribute& constraint,
                const std::optional<AttrValue>& case_value) {
                ++result.attrs_compared;
                const std::uint32_t dmax = bounds_->dmax(constraint.id);
                // Missing attribute: unsatisfiable requirement, s_i = 0 (§3).
                const double s = case_value
                                     ? local_similarity(options.metric, constraint.value,
                                                        *case_value, dmax)
                                     : 0.0;
                locals.push_back(s);
                weights.push_back(constraint.weight);
                if (options.collect_details) {
                    match.details.push_back(LocalDetail{
                        constraint.id, constraint.value, case_value,
                        case_value ? manhattan_distance(constraint.value, *case_value) : 0,
                        dmax, constraint.weight, s});
                }
            });
        match.similarity = amalg.combine(locals, weights);
        scored.push_back(std::move(match));
    }

    // Rank descending by similarity; ties resolve to the smaller ImplId so
    // results are deterministic.
    std::stable_sort(scored.begin(), scored.end(), [](const Match& a, const Match& b) {
        return ranks_before(a.similarity, a.impl, b.similarity, b.impl);
    });

    for (Match& match : scored) {
        if (match.similarity < options.threshold) {
            continue;  // §3: reject all results below a given threshold
        }
        result.matches.push_back(std::move(match));
        if (result.matches.size() >= options.n_best) {
            break;
        }
    }

    result.status = result.matches.empty() ? RetrievalStatus::all_below_threshold
                                           : RetrievalStatus::ok;
    if (scored.empty()) {
        // A type with no implementations behaves like an unknown type for
        // callers: nothing can be allocated.
        result.status = RetrievalStatus::all_below_threshold;
    }
    return result;
}

RetrievalResult Retriever::retrieve_compiled(const Request& request,
                                             const RetrievalOptions& options,
                                             RetrievalScratch* scratch) const {
    RetrievalScratch local;
    return retrieve_compiled_into(request, options, scratch != nullptr ? *scratch : local);
}

std::vector<RetrievalResult> Retriever::retrieve_batch(std::span<const Request> requests,
                                                       const RetrievalOptions& options,
                                                       RetrievalScratch& scratch) const {
    std::vector<RetrievalResult> results;
    results.reserve(requests.size());
    for (const Request& request : requests) {
        results.push_back(retrieve_compiled_into(request, options, scratch));
    }
    return results;
}

RetrievalResult Retriever::retrieve_compiled_into(const Request& request,
                                                  const RetrievalOptions& options,
                                                  RetrievalScratch& scratch) const {
    validate_options(options);
    QFA_EXPECTS(compiled_ != nullptr,
                "retrieve_compiled needs a bound CompiledCaseBase (bind_compiled)");

    RetrievalResult result;
    scratch.two_phase = TwoPhaseStats{};  // telemetry reflects this call only
    const TypePlan* plan = compiled_->find(request.type());
    if (plan == nullptr) {
        result.status = RetrievalStatus::type_not_found;
        return result;
    }
    const std::size_t rows = plan->impl_count;
    result.impls_considered = rows;
    if (rows == 0) {
        result.status = RetrievalStatus::all_below_threshold;
        return result;
    }

    const std::span<const RequestAttribute> constraints = request.constraints();
    const std::size_t n = constraints.size();
    result.attrs_compared = rows * n;
    normalize_weights_into(constraints, scratch);

    std::vector<double>& sims = scratch.acc;
    bool two_phase = false;

    if (amalgamation_ == nullptr) {
        // Fused weighted-sum fast path.  Large plans go two-phase: an
        // approximate top-K scan of the Q8 quantized tier plus an exact
        // rescore of the survivors, proven per request to contain every
        // row the exact scan would return (see two_phase_score).  Anything
        // else — small plans, K >= rows — streams each constraint's full
        // exact column through the runtime-selected SIMD kernel
        // (core/kernels.hpp).  Per accumulator the terms arrive in
        // constraint order with the exact reference operations
        // (d / (1 + dmax), clamp-at-zero as a lane mask, presence as a lane
        // mask, × weight), and lanes are whole rows, so the final sums are
        // bit-identical to WeightedSum::combine at any vector width —
        // and the two-phase survivors' rescore performs the same
        // operations row-wise, so the paths agree bitwise everywhere
        // either of them is read.
        two_phase = two_phase_score(*plan, constraints, options, scratch, sims);
        if (!two_phase) {
            sims.assign(plan->row_stride, 0.0);  // padded lanes stay exactly 0.0
            const kern::KernelTable& kernels = kern::active_kernels();
            for_each_constraint_column(
                *plan, constraints, scratch.columns,
                [&](std::size_t i, const RequestAttribute& constraint, std::size_t c) {
                    if (c == TypePlan::npos) {
                        return;  // s_i = 0 everywhere: contributes exactly 0.0
                    }
                    const std::size_t stride = plan->row_stride;
                    const AttrValue* vals = plan->values.data() + c * stride;
                    const std::uint16_t* mask = plan->present_mask.data() + c * stride;
                    const auto kernel = options.metric == LocalMetric::manhattan
                                            ? kernels.manhattan
                                            : kernels.squared;
                    kernel(sims.data(), vals, mask, stride, constraint.value,
                           plan->divisor[c], scratch.norm_weights[i]);
                });
            for (std::size_t r = 0; r < rows; ++r) {
                sims[r] = std::clamp(sims[r], 0.0, 1.0);  // WeightedSum's final clamp
            }
        }
    } else {
        // General path (injected amalgamation): still columnar — the column
        // map replaces the per-(impl × constraint) binary search — but each
        // row materializes its locals for Amalgamation::combine.
        sims.assign(plan->row_stride, 0.0);
        plan->map_columns(constraints, scratch.columns);
        scratch.locals.resize(n);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t c = scratch.columns[i];
                double s = 0.0;
                if (c != TypePlan::npos) {
                    const std::size_t slot = plan->slot(c, r);
                    if (plan->present_mask[slot] != 0) {
                        s = local_similarity(options.metric, constraints[i].value,
                                             plan->values[slot], plan->dmax[c]);
                    }
                }
                scratch.locals[i] = s;
            }
            sims[r] = amalgamation_->combine(scratch.locals, scratch.norm_weights);
        }
    }

    // Bounded top-k selection: a partial heap over the candidate rows keyed
    // on (similarity desc, ImplId asc).  With `ranks_before` as the heap's
    // "less", the front is the worst kept candidate; the final sort yields
    // exactly the first n_best entries of the reference full sort.  Under
    // two-phase scoring the candidates are the exactly-rescored survivors —
    // a proven superset of the reference's top n_best, visited in the same
    // ascending row order, so the selected set and its order are identical.
    std::vector<std::uint32_t>& heap = scratch.topk;
    heap.clear();
    const auto heap_less = [&](std::uint32_t a, std::uint32_t b) {
        return ranks_before(sims[a], plan->impl_ids[a], sims[b], plan->impl_ids[b]);
    };
    const auto consider = [&](std::uint32_t r) {
        if (sims[r] < options.threshold) {
            return;  // §3 threshold rejection, as in the reference loop
        }
        if (heap.size() < options.n_best) {
            heap.push_back(r);
            std::push_heap(heap.begin(), heap.end(), heap_less);
        } else if (ranks_before(sims[r], plan->impl_ids[r], sims[heap.front()],
                                plan->impl_ids[heap.front()])) {
            std::pop_heap(heap.begin(), heap.end(), heap_less);
            heap.back() = r;
            std::push_heap(heap.begin(), heap.end(), heap_less);
        }
    };
    if (two_phase) {
        for (const std::uint32_t r : scratch.survivors) {
            consider(r);
        }
    } else {
        for (std::uint32_t r = 0; r < rows; ++r) {
            consider(r);
        }
    }
    std::sort(heap.begin(), heap.end(), heap_less);

    result.matches.reserve(heap.size());
    for (const std::uint32_t r : heap) {
        Match match{plan->id, plan->impl_ids[r], plan->targets[r], sims[r], {}};
        if (options.collect_details) {
            collect_plan_details(*plan, r, constraints, scratch.columns,
                                 scratch.norm_weights, options.metric, *bounds_, match);
        }
        result.matches.push_back(std::move(match));
    }

    result.status = result.matches.empty() ? RetrievalStatus::all_below_threshold
                                           : RetrievalStatus::ok;
    return result;
}

std::vector<MatchQ15> Retriever::score_q15(const Request& request) const {
    RetrievalScratch local;
    score_q15_into(request, local);
    return std::move(local.q15_out);
}

std::span<const MatchQ15> Retriever::score_q15_into(const Request& request,
                                                    RetrievalScratch& scratch) const {
    std::vector<MatchQ15>& out = scratch.q15_out;
    out.clear();
    const FunctionType* type = cb_->find_type(request.type());
    if (type == nullptr) {
        return out;
    }

    // Weight normalization + quantization entirely in scratch: no Request
    // copy, no per-call allocation.
    const std::span<const RequestAttribute> constraints = request.constraints();
    normalize_and_quantize_weights_into(constraints, scratch);
    const std::span<const fx::Q15> weights = scratch.q15_weights;

    out.reserve(type->impls.size());
    for (const Implementation& impl : type->impls) {
        fx::SimAccumulator acc;
        for_each_constraint_local(
            impl, constraints,
            [&](std::size_t i, const RequestAttribute& constraint,
                const std::optional<AttrValue>& case_value) {
                const fx::Q15 s =
                    case_value
                        ? cbr::local_similarity_q15(constraint.value, *case_value,
                                                    bounds_->reciprocal(constraint.id))
                        : fx::Q15::zero();
                acc.add_product(s, weights[i]);
            });
        out.push_back(MatchQ15{type->id, impl.id, acc.raw_q30()});
    }
    return out;
}

std::vector<MatchQ15> Retriever::score_q15_compiled(const Request& request,
                                                    RetrievalScratch* scratch) const {
    RetrievalScratch local;
    RetrievalScratch& s = scratch != nullptr ? *scratch : local;
    const std::span<const MatchQ15> scored = score_q15_compiled_into(request, s);
    if (scratch == nullptr) {
        return std::move(local.q15_out);
    }
    return {scored.begin(), scored.end()};
}

std::span<const MatchQ15> Retriever::score_q15_compiled_into(
    const Request& request, RetrievalScratch& s) const {
    QFA_EXPECTS(compiled_ != nullptr,
                "score_q15_compiled needs a bound CompiledCaseBase (bind_compiled)");

    std::vector<MatchQ15>& out = s.q15_out;
    out.clear();
    const TypePlan* plan = compiled_->find(request.type());
    if (plan == nullptr) {
        return out;
    }
    const std::size_t rows = plan->impl_count;

    const std::span<const RequestAttribute> constraints = request.constraints();
    normalize_and_quantize_weights_into(constraints, s);

    s.acc_q30.assign(plan->row_stride, 0);  // padded lanes accumulate exactly 0
    // Same column traversal as the double-precision fast path, through the
    // Q15 SIMD kernel: the AND-masked raw word zeroes sentinel (and
    // padding) slots exactly like the reference's
    // `case_value ? ... : Q15::zero()`, and the arithmetic is exact
    // integer, so lane width cannot change any accumulator.
    const kern::KernelTable& kernels = kern::active_kernels();
    for_each_constraint_column(
        *plan, constraints, s.columns,
        [&](std::size_t i, const RequestAttribute& constraint, std::size_t c) {
            if (c == TypePlan::npos) {
                return;  // s_i = 0 everywhere: adds 0 to every accumulator
            }
            const std::size_t stride = plan->row_stride;
            kernels.q15(s.acc_q30.data(), plan->values.data() + c * stride,
                        plan->present_mask.data() + c * stride, stride,
                        constraint.value, plan->reciprocal[c].raw(),
                        s.q15_weights[i].raw());
        });

    out.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        out.push_back(MatchQ15{plan->id, plan->impl_ids[r], s.acc_q30[r]});
    }
    return out;
}

std::optional<MatchQ15> Retriever::retrieve_q15(const Request& request,
                                                RetrievalScratch* scratch) const {
    RetrievalScratch local;
    RetrievalScratch& s = scratch != nullptr ? *scratch : local;
    const std::span<const MatchQ15> scored = compiled_ != nullptr
                                                 ? score_q15_compiled_into(request, s)
                                                 : score_q15_into(request, s);
    if (scored.empty()) {
        return std::nullopt;
    }
    // Hardware keeps the first maximum: strict `>` comparison against the
    // running best (fig. 6: "S > S_Best ?").
    std::size_t best = 0;
    for (std::size_t i = 1; i < scored.size(); ++i) {
        if (scored[i].similarity_q30 > scored[best].similarity_q30) {
            best = i;
        }
    }
    return scored[best];
}

RetrievalResult assemble_result_q30(const CaseBase& cb, const Request& request,
                                    std::span<const MatchQ15> ranked,
                                    const RetrievalOptions& options) {
    validate_options(options);
    RetrievalResult result;
    const FunctionType* type = cb.find_type(request.type());
    if (type == nullptr) {
        result.status = RetrievalStatus::type_not_found;
        return result;
    }
    // The compiled path's effort accounting: every row of the type is
    // scored, every constraint is looked up per row.  Datapath models track
    // their own effort in cycles (CpuStats / RtlResult); the result-level
    // counters describe the workload shape, identically across backends.
    result.impls_considered = type->impls.size();
    result.attrs_compared = type->impls.size() * request.constraints().size();
    if (type->impls.empty()) {
        result.status = RetrievalStatus::all_below_threshold;
        return result;
    }
    for (const MatchQ15& candidate : ranked) {
        QFA_EXPECTS(candidate.type == request.type(),
                    "assemble_result_q30 candidates must match the requested type");
        const double similarity = candidate.similarity();
        if (similarity < options.threshold) {
            continue;  // §3: reject all results below a given threshold
        }
        const Implementation* impl = type->find_impl(candidate.impl);
        QFA_EXPECTS(impl != nullptr,
                    "assemble_result_q30 candidate names an unknown implementation");
        result.matches.push_back(Match{type->id, impl->id, impl->target, similarity, {}});
        if (result.matches.size() >= options.n_best) {
            break;
        }
    }
    result.status = result.matches.empty() ? RetrievalStatus::all_below_threshold
                                           : RetrievalStatus::ok;
    return result;
}

double modeled_similarity_error_bound(const Request& request, const BoundsTable& bounds) {
    const Request normalized = request.normalized();
    const std::vector<fx::Q15> quantized = quantize_weights(normalized);
    const std::span<const RequestAttribute> constraints = normalized.constraints();
    double bound = 0.0;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        const double w_hat = quantized[i].to_double();
        bound += w_hat * fx::local_similarity_error_bound(bounds.dmax(constraints[i].id));
        bound += std::abs(w_hat - constraints[i].weight);
    }
    return bound;
}

}  // namespace qfa::cbr
