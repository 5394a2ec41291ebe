// The Q8 quantized tier and the two-phase retrieval built on it.
//
// Two claims are pinned here, both *bit-exact* rather than approximate:
//
//  1. the tier's advertised per-(column, block) error bound really bounds
//     the dequantization error of every stored value — the invariant the
//     two-phase cut's safety argument rests on (property test, randomized
//     across catalogues / dropout / shapes);
//
//  2. retrieve_compiled through the two-phase route returns results
//     byte-identical (identical_results) to the exact full scan — across
//     ~1k random seeds, the degenerate shapes (all-equal columns,
//     zero-range blocks, single-row types), and adversarial catalogues
//     whose ranks at the phase-1 cut are separated by *less* than the
//     quantization error, where correctness must come from the widening
//     fallback and never from luck.  The telemetry in
//     RetrievalScratch::two_phase is asserted so the intended code path
//     (engaged / widened / pruned) is the one actually proven.
//
// patched() splices across a Q8 block boundary round out the layer,
// mirroring simd_kernel_test's kRowAlign−1 / kRowAlign / kRowAlign+1
// shapes at kQuantBlock granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/retain.hpp"
#include "core/retrieval.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using namespace qfa::cbr;

constexpr std::size_t kBlock = TypePlan::kQuantBlock;
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// The exact reference: the same entry point with the two-phase stage
/// forced off, i.e. the full fused kernel scan the tier claims to match.
RetrievalResult exact_scan(const Retriever& retriever, const Request& request,
                           const RetrievalOptions& options) {
    RetrievalScratch scratch;
    scratch.two_phase_min_rows = kNever;
    RetrievalResult result = retriever.retrieve_compiled(request, options, &scratch);
    EXPECT_FALSE(scratch.two_phase.engaged);
    return result;
}

/// One hand-built single-type case base from explicit per-impl attribute
/// lists; ImplId i+1 for row i unless ids are given.
CaseBase single_type(std::vector<std::vector<Attribute>> impls,
                     std::vector<std::uint16_t> ids = {}) {
    std::vector<FunctionType> types(1);
    types[0].id = TypeId{1};
    types[0].name = "quant";
    for (std::size_t i = 0; i < impls.size(); ++i) {
        Implementation impl;
        impl.id = ImplId{ids.empty() ? static_cast<std::uint16_t>(i + 1) : ids[i]};
        impl.attributes = std::move(impls[i]);
        types[0].impls.push_back(std::move(impl));
    }
    return CaseBase(std::move(types));
}

// ---------------------------------------------------------------------------
// 1. The advertised error bound is a real bound (randomized round-trip).

TEST(QuantTier, BlockErrorBoundCoversEveryStoredValue) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        util::Rng rng(0xB10C + seed);
        wl::CatalogConfig config;
        config.function_types = 3;
        config.impls_per_type = static_cast<std::uint16_t>(1 + seed * 3 % 80);
        config.attrs_per_impl = 6;
        config.attr_dropout = (seed % 4) * 0.25;  // 0, dense → 0.75, sparse
        auto [tree, bounds] = wl::generate_catalog_with_bounds(config, rng);
        const CompiledCaseBase compiled(tree, bounds);

        for (const auto& plan_ptr : compiled.plans()) {
            const TypePlan& plan = *plan_ptr;
            ASSERT_TRUE(plan.has_q8());
            const std::size_t blocks = plan.q8_blocks();
            ASSERT_EQ(plan.q8_scale.size(), plan.attr_ids.size() * blocks);
            ASSERT_EQ(plan.q8_err.size(), plan.q8_scale.size());
            for (std::size_t c = 0; c < plan.attr_ids.size(); ++c) {
                for (std::size_t r = 0; r < plan.row_stride; ++r) {
                    const std::size_t slot = plan.slot(c, r);
                    const std::uint8_t code = plan.q8[slot];
                    // Presence is folded into the code byte: 0 iff absent
                    // (including alignment padding past impl_count).
                    ASSERT_EQ(code == 0, plan.present_mask[slot] == 0)
                        << "type " << plan.id.value() << " col " << c << " row " << r;
                    if (code == 0) {
                        continue;
                    }
                    const std::size_t b = r / kBlock;
                    const double scale =
                        static_cast<double>(plan.q8_scale[c * blocks + b]);
                    const double vhat = scale * static_cast<double>(code - 1);
                    const double err =
                        std::abs(static_cast<double>(plan.values[slot]) - vhat);
                    ASSERT_LE(err, static_cast<double>(plan.q8_err[c * blocks + b]))
                        << "type " << plan.id.value() << " col " << c << " row " << r
                        << " value " << plan.values[slot] << " code " << int(code);
                }
                // The bound is tight, not a giveaway: never beyond half a
                // quantization step (plus one f32 ulp of round-up).
                for (std::size_t b = 0; b < blocks; ++b) {
                    const double scale =
                        static_cast<double>(plan.q8_scale[c * blocks + b]);
                    const double half_step = scale * 0.5;
                    ASSERT_LE(static_cast<double>(plan.q8_err[c * blocks + b]),
                              half_step + half_step * 1e-6 + 1e-30)
                        << "type " << plan.id.value() << " col " << c << " block " << b;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Two-phase ≡ exact scan across ~1k random seeds (the property the whole
//    tier is sold on), including single-row types and sparse catalogues.

TEST(QuantTier, TwoPhaseIsByteIdenticalAcrossSeeds) {
    std::size_t engaged = 0, widened = 0, pruned = 0;
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        util::Rng rng(0x2FA5E + seed);
        wl::CatalogConfig config;
        config.function_types = 2;
        // 1 (single-row type, two-phase must disengage cleanly) up to ~97.
        config.impls_per_type = static_cast<std::uint16_t>(
            seed % 17 == 0 ? 1 : 2 + seed % 96);
        config.attrs_per_impl = static_cast<std::uint16_t>(2 + seed % 7);
        config.attr_dropout = (seed % 3) * 0.2;
        auto [tree, bounds] = wl::generate_catalog_with_bounds(config, rng);
        const CompiledCaseBase compiled(tree, bounds);
        const Retriever retriever(tree, bounds, compiled);

        RetrievalOptions options;
        options.n_best = 1 + seed % 5;
        options.metric = seed % 2 ? LocalMetric::squared : LocalMetric::manhattan;
        options.threshold = seed % 7 == 0 ? 0.5 : 0.0;
        options.collect_details = seed % 5 == 0;

        RetrievalScratch scratch;
        scratch.two_phase_min_rows = 1;  // engage on every eligible plan
        scratch.phase1_k = seed % 11 == 0 ? 16 : 0;

        const auto batch =
            wl::generate_request_batch(tree, bounds, 2, rng);
        for (const auto& generated : batch) {
            const RetrievalResult expect =
                exact_scan(retriever, generated.request, options);
            const RetrievalResult got =
                retriever.retrieve_compiled(generated.request, options, &scratch);
            ASSERT_TRUE(identical_results(expect, got))
                << "seed " << seed << " type " << generated.type.value()
                << " n_best " << options.n_best;
            if (scratch.two_phase.engaged) {
                ++engaged;
                widened += scratch.two_phase.widen_rounds > 0;
                pruned += scratch.two_phase.rescored <
                          compiled.find(generated.type)->impl_count;
            }
            // Tree reference too: the chain tree ≡ exact scan ≡ two-phase.
            const RetrievalResult via_tree =
                retriever.retrieve(generated.request, options);
            ASSERT_TRUE(identical_results(via_tree, got)) << "seed " << seed;
        }
    }
    // The sweep must actually exercise the interesting paths, not skate by
    // on the disengage gate.
    EXPECT_GT(engaged, 500u);
    EXPECT_GT(widened, 0u);
    EXPECT_GT(pruned, 100u);
}

// ---------------------------------------------------------------------------
// 3. Degenerate columns: all-equal values (exact ties everywhere) and
//    zero-range blocks (scale = 0 — every present value is 0).

TEST(QuantTier, AllEqualAndZeroRangeColumnsStayExact) {
    constexpr std::size_t kRows = 40;  // > one Q8 block, forces a partial block
    std::vector<std::vector<Attribute>> impls(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
        impls[i] = {
            Attribute{AttrId{1}, 1234},                          // all-equal column
            Attribute{AttrId{2}, 0},                             // zero-range column
            Attribute{AttrId{3}, static_cast<AttrValue>(i * 7)}  // well-spread
        };
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    const TypePlan& plan = *compiled.plans().front();
    ASSERT_TRUE(plan.has_q8());
    // Zero-range column: scale and error bound are exactly 0 in every block.
    const std::size_t c0 = plan.column_of(AttrId{2});
    ASSERT_NE(c0, TypePlan::npos);
    for (std::size_t b = 0; b < plan.q8_blocks(); ++b) {
        EXPECT_EQ(plan.q8_scale[c0 * plan.q8_blocks() + b], 0.0f);
        EXPECT_EQ(plan.q8_err[c0 * plan.q8_blocks() + b], 0.0f);
    }

    for (const LocalMetric metric : {LocalMetric::manhattan, LocalMetric::squared}) {
        for (const std::uint16_t attr : {1, 2, 3}) {
            for (std::size_t n_best : {1, 3, 8}) {
                RetrievalOptions options;
                options.n_best = n_best;
                options.metric = metric;
                const Request request(
                    TypeId{1},
                    {RequestAttribute{AttrId{attr}, static_cast<AttrValue>(attr * 400), 1.0}});
                RetrievalScratch scratch;
                scratch.two_phase_min_rows = 1;
                const RetrievalResult got =
                    retriever.retrieve_compiled(request, options, &scratch);
                ASSERT_TRUE(scratch.two_phase.engaged);
                ASSERT_TRUE(identical_results(exact_scan(retriever, request, options), got))
                    << "metric " << int(metric) << " attr " << attr << " n_best " << n_best;
                if (attr != 3) {
                    // Every row ties exactly, so the cut can never prove a
                    // rejected row out: correctness must come from widening
                    // to the full rescore, and does.
                    EXPECT_GE(scratch.two_phase.widen_rounds, 1u);
                    EXPECT_EQ(scratch.two_phase.final_k, kRows);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Adversarial: ranks K−1 / K / K+1 at the phase-1 cut separated by less
//    than the quantization error.  Values 50000 + i give exact-score gaps of
//    1/(dmax+1) ≈ 0.025 while the block's quantization error is ≈ 98 raw
//    (scale ≈ 50039/254 ≈ 197), i.e. ≈ 2.45 in score units — the approximate
//    ranking around the cut is pure noise and the safety check must widen.

TEST(QuantTier, NearTiesAtTheCutForceWideningAndStayExact) {
    constexpr std::size_t kRows = 40;
    std::vector<std::vector<Attribute>> impls(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
        impls[i] = {Attribute{AttrId{1}, static_cast<AttrValue>(50000 + i)}};
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    for (const LocalMetric metric : {LocalMetric::manhattan, LocalMetric::squared}) {
        RetrievalOptions options;
        options.n_best = 2;  // k0 = 8: the cut lands amid the near-ties
        options.metric = metric;
        const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 50000, 1.0}});
        RetrievalScratch scratch;
        scratch.two_phase_min_rows = 1;
        const RetrievalResult got =
            retriever.retrieve_compiled(request, options, &scratch);
        ASSERT_TRUE(scratch.two_phase.engaged);
        EXPECT_GE(scratch.two_phase.widen_rounds, 1u);

        const RetrievalResult expect = exact_scan(retriever, request, options);
        ASSERT_TRUE(identical_results(expect, got));
        // And the analytically known answer: values 50000, 50001 win.
        ASSERT_EQ(got.matches.size(), 2u);
        EXPECT_EQ(got.matches[0].impl, ImplId{1});
        EXPECT_EQ(got.matches[1].impl, ImplId{2});
    }
}

// Counterpart: well-separated scores must be cut at k0 *without* widening —
// otherwise the tier never prunes and the bench's bytes-scanned claim is
// vacuous.  Gaps of 1000 raw dwarf the ≈ 77-raw error bound here.

TEST(QuantTier, WellSeparatedScoresPruneWithoutWidening) {
    constexpr std::size_t kRows = 40;
    std::vector<std::vector<Attribute>> impls(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
        impls[i] = {Attribute{AttrId{1}, static_cast<AttrValue>(i * 1000)}};
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    RetrievalOptions options;  // n_best = 1 → k0 = 4
    const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 0, 1.0}});
    RetrievalScratch scratch;
    scratch.two_phase_min_rows = 1;
    const RetrievalResult got = retriever.retrieve_compiled(request, options, &scratch);
    ASSERT_TRUE(scratch.two_phase.engaged);
    EXPECT_EQ(scratch.two_phase.widen_rounds, 0u);
    EXPECT_EQ(scratch.two_phase.rescored, 4u);  // k0 exactly, no second round
    ASSERT_TRUE(identical_results(exact_scan(retriever, request, options), got));
    EXPECT_EQ(got.best().impl, ImplId{1});
}

// ---------------------------------------------------------------------------
// 5. patched() splices across a Q8 block boundary: the spliced quantized
//    tier must equal a fresh compile's byte for byte at the kQuantBlock−1 /
//    kQuantBlock / kQuantBlock+1 shapes (simd_kernel_test's 7/8/9 pattern
//    at block granularity), for front, mid-block and append splices.

TEST(QuantTier, PatchedSpliceAcrossBlockBoundaryMatchesFreshCompile) {
    for (const std::size_t start_rows : {kBlock - 1, kBlock, kBlock + 1}) {
        // Even ids 2, 4, ... leave odd ids free for front / mid inserts.
        std::vector<std::vector<Attribute>> impls(start_rows);
        std::vector<std::uint16_t> ids(start_rows);
        util::Rng rng(0xB0DA + start_rows);
        for (std::size_t i = 0; i < start_rows; ++i) {
            ids[i] = static_cast<std::uint16_t>(2 * (i + 1));
            for (std::uint16_t a = 1; a <= 3; ++a) {
                if ((i + a) % 4 == 0) {
                    continue;  // holes: presence folding must survive the splice
                }
                impls[i].push_back(Attribute{
                    AttrId{a}, static_cast<AttrValue>(rng.uniform_int(0, 60000))});
            }
        }
        DynamicCaseBase dynamic(single_type(std::move(impls), std::move(ids)));
        CaseBase tree = dynamic.snapshot();
        BoundsTable bounds = dynamic.bounds();
        CompiledCaseBase compiled(tree, bounds);

        // Front (row 0), mid-block, and append splices in sequence — the
        // append crosses the block-count boundary when start_rows ≥ kBlock.
        const std::uint16_t inserts[] = {1, static_cast<std::uint16_t>(kBlock + 1),
                                         static_cast<std::uint16_t>(4 * kBlock)};
        for (const std::uint16_t id : inserts) {
            Implementation impl;
            impl.id = ImplId{id};
            impl.attributes = {
                Attribute{AttrId{1}, static_cast<AttrValue>(id * 13 % 60000)},
                Attribute{AttrId{3}, static_cast<AttrValue>(id * 29 % 60000)}};
            ASSERT_EQ(dynamic.retain(TypeId{1}, impl, 1.0), RetainVerdict::retained);

            CaseBase next_tree = dynamic.snapshot();
            BoundsTable next_bounds = dynamic.bounds();
            const CompiledCaseBase patched =
                CompiledCaseBase::patched(compiled, next_tree, next_bounds, TypeId{1});
            const CompiledCaseBase fresh(next_tree, next_bounds);
            const TypePlan& a = *fresh.plans().front();
            const TypePlan& b = *patched.plans().front();
            ASSERT_EQ(a.values, b.values) << "start " << start_rows << " insert " << id;
            ASSERT_EQ(a.q8, b.q8) << "start " << start_rows << " insert " << id;
            ASSERT_EQ(a.q8_scale, b.q8_scale) << "start " << start_rows << " insert " << id;
            ASSERT_EQ(a.q8_err, b.q8_err) << "start " << start_rows << " insert " << id;

            tree = std::move(next_tree);
            bounds = std::move(next_bounds);
            compiled = CompiledCaseBase::patched(compiled, tree, bounds, TypeId{1});

            // The spliced tier also *retrieves* exactly.
            const Retriever retriever(tree, bounds, compiled);
            RetrievalOptions options;
            options.n_best = 3;
            const Request request(TypeId{1},
                                  {RequestAttribute{AttrId{1}, 30000, 2.0},
                                   RequestAttribute{AttrId{3}, 100, 1.0}});
            RetrievalScratch scratch;
            scratch.two_phase_min_rows = 1;
            const RetrievalResult got =
                retriever.retrieve_compiled(request, options, &scratch);
            ASSERT_TRUE(scratch.two_phase.engaged);
            ASSERT_TRUE(identical_results(exact_scan(retriever, request, options), got));
        }
    }
}

// ---------------------------------------------------------------------------
// 6. stats() reports both tiers' footprints, and the Q8 tier really is the
//    advertised ~1.25 bytes/row/column against the exact tier's 4.

TEST(QuantTier, StatsReportPerTierBytes) {
    util::Rng rng(0x57A7);
    wl::CatalogConfig config;
    config.function_types = 4;
    config.impls_per_type = 64;  // row_stride = 64: exact blocks, exact ratio
    config.attrs_per_impl = 8;
    const auto [tree, bounds] = wl::generate_catalog_with_bounds(config, rng);
    const CompiledCaseBase compiled(tree, bounds);
    const CompiledStats stats = compiled.stats();

    ASSERT_GT(stats.exact_tier_bytes, 0u);
    ASSERT_GT(stats.q8_tier_bytes, 0u);
    // u16 values + u16 mask = 4 B per (row, column) slot; the Q8 tier is
    // 1 code byte plus 8 bytes of scale+err per 32-row block = 1.25 B
    // exactly when row_stride is a whole number of blocks (64 here).
    EXPECT_DOUBLE_EQ(stats.exact_bytes_per_row(), 4.0);
    EXPECT_DOUBLE_EQ(stats.q8_bytes_per_row(), 1.25);
}

// ---------------------------------------------------------------------------
// 7. Pool selection: the phase-1 candidate pool (its set, its order and the
//    most optimistic row left outside it) decides how many rows are rescored
//    and how often K widens.  These goldens were recorded from a streaming
//    bounded-heap selection that ranks every row; the block-threshold
//    selection must reproduce them exactly, not merely return identical
//    results.  The edge cases aim at the places a block-level threshold can
//    go wrong: every block max equal to the threshold, a tie at the
//    threshold across two blocks, a best row hidden below the threshold, a
//    partial last Q8 block with padded rows, fewer blocks than the pool,
//    and the ×8 pool regrow.

struct PoolGolden {
    std::size_t rescored;
    std::size_t widen_rounds;
    std::size_t final_k;
};

void expect_pool_golden(const Retriever& retriever, const Request& request,
                        const RetrievalOptions& options, const PoolGolden& golden,
                        const std::string& context) {
    RetrievalScratch scratch;
    scratch.two_phase_min_rows = 1;
    const RetrievalResult got = retriever.retrieve_compiled(request, options, &scratch);
    ASSERT_TRUE(scratch.two_phase.engaged) << context;
    ASSERT_TRUE(identical_results(exact_scan(retriever, request, options), got)) << context;
    EXPECT_EQ(scratch.two_phase.rescored, golden.rescored) << context;
    EXPECT_EQ(scratch.two_phase.widen_rounds, golden.widen_rounds) << context;
    EXPECT_EQ(scratch.two_phase.final_k, golden.final_k) << context;
}

TEST(QuantTierPool, SeededRequestsOverALargePlanMatchGoldenStats) {
    util::Rng rng(0x9001DE);
    wl::CatalogConfig config;
    config.function_types = 1;
    config.impls_per_type = 5000;  // 157 Q8 blocks, the last one partial
    config.attrs_per_impl = 6;
    config.attr_dropout = 0.2;
    const auto [tree, bounds] = wl::generate_catalog_with_bounds(config, rng);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);
    const auto batch = wl::generate_request_batch(tree, bounds, 16, rng);
    ASSERT_EQ(batch.size(), 16u);

    const PoolGolden golden[16] = {
        {8, 1, 8},     {64, 2, 64},   {64, 1, 64},  {8, 0, 8},
        {16, 2, 16},   {384, 5, 256}, {32, 0, 32},  {320, 6, 256},
        {320, 7, 256}, {128, 3, 128}, {32, 0, 32},  {576, 7, 512},
        {4, 0, 4},     {16, 0, 16},   {256, 3, 256}, {32, 2, 32},
    };
    const std::size_t n_bests[] = {1, 4, 8, 2};
    for (std::size_t j = 0; j < batch.size(); ++j) {
        RetrievalOptions options;
        options.n_best = n_bests[j % 4];
        options.metric = j % 3 == 2 ? LocalMetric::squared : LocalMetric::manhattan;
        expect_pool_golden(retriever, batch[j].request, options, golden[j],
                           "request " + std::to_string(j));
    }
}

TEST(QuantTierPool, EveryRowTiedPutsEveryBlockMaxAtTheThreshold) {
    constexpr std::size_t kRows = 4100;
    std::vector<std::vector<Attribute>> impls(kRows, {Attribute{AttrId{1}, 777}});
    impls[0] = {Attribute{AttrId{1}, 0}};  // a nonzero dmax, so scores are not all 1
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 700, 1.0}});
    RetrievalOptions options;
    options.n_best = 3;
    expect_pool_golden(retriever, request, options, {4964, 11, 4100}, "tied");
}

TEST(QuantTierPool, TieAtTheThresholdAcrossTwoBlocksKeepsTheLowerRow) {
    // 128 blocks, each all 60000 (scores 0 for a request at 0) except one
    // peak row.  Peaks are 300 raw apart, wider than twice the ≈ 118-raw
    // quantization error, so the phase-1 ranking follows them.  Blocks 10
    // and 90 are identical (same peak value at the same offset, hence the
    // same scale and codes and bitwise-equal phase-1 scores) and hold the
    // 64th-best peak: with n_best = 1 the pool is 64 rows, so exactly one
    // of the two tied peaks fits and it must be block 10's.
    constexpr std::size_t kBlocks = 128;
    std::vector<std::vector<Attribute>> impls(kBlocks * kBlock,
                                              {Attribute{AttrId{1}, 60000}});
    std::size_t rank = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        std::size_t offset = (b * 7) % kBlock;
        std::size_t peak_rank;
        if (b == 10 || b == 90) {
            offset = 5;
            peak_rank = 63;
        } else {
            peak_rank = rank < 63 ? rank : rank + 1;
            ++rank;
        }
        impls[b * kBlock + offset] = {
            Attribute{AttrId{1}, static_cast<AttrValue>(1000 + 300 * peak_rank)}};
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 0, 1.0}});
    for (const LocalMetric metric : {LocalMetric::manhattan, LocalMetric::squared}) {
        RetrievalOptions options;
        options.metric = metric;
        expect_pool_golden(retriever, request, options,
                           metric == LocalMetric::manhattan ? PoolGolden{4, 0, 4}
                                                          : PoolGolden{16, 2, 16},
                           "near-tie metric " + std::to_string(int(metric)));
    }
}

TEST(QuantTierPool, HiddenBestRowBelowTheThresholdStillBoundsTheCut) {
    // Blocks 0..63 each hold one good row (value 2016 + b) over 31 rows of
    // 2500, finely quantized.  Blocks 64..127 hold 30000s plus one 60000,
    // which sets a coarse 236-raw step.  Block 100 also hides ImplId 3208 at
    // value 2015: the exact best, but it quantizes up to 2126, so its
    // phase-1 score sits below every good block's max — below τ.  Only its
    // ≈ 111-raw error bound, folded into the outside bound, keeps the cut
    // from settling on the good rows.  With `with_y`, block 100 also holds
    // ImplId 3221 at 1900 (the new best), which lifts block 100 above τ: the
    // hidden row is then a below-τ row of a candidate block.
    for (const bool with_y : {false, true}) {
        std::vector<std::vector<Attribute>> impls(128 * kBlock);
        for (std::size_t i = 0; i < impls.size(); ++i) {
            const std::size_t b = i / kBlock;
            const std::size_t offset = i % kBlock;
            std::size_t value = b < 64 ? (offset == 0 ? 2016 + b : 2500)
                                       : (offset == 0 ? 60000 : 30000);
            if (b == 100 && offset == 7) {
                value = 2015;
            }
            if (with_y && b == 100 && offset == 20) {
                value = 1900;
            }
            impls[i] = {Attribute{AttrId{1}, static_cast<AttrValue>(value)}};
        }
        const CaseBase tree = single_type(std::move(impls));
        const BoundsTable bounds = BoundsTable::from_case_base(tree);
        const CompiledCaseBase compiled(tree, bounds);
        const Retriever retriever(tree, bounds, compiled);

        const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 0, 1.0}});
        RetrievalOptions options;
        options.n_best = 2;
        const std::string context = with_y ? "hidden, candidate block" : "hidden, pruned block";
        expect_pool_golden(retriever, request, options, {192, 5, 128}, context);
        const RetrievalResult got = exact_scan(retriever, request, options);
        ASSERT_EQ(got.matches.size(), 2u);
        EXPECT_EQ(got.matches[0].impl, ImplId{with_y ? std::uint16_t{3221} : std::uint16_t{3208}});
        EXPECT_EQ(got.matches[1].impl, ImplId{with_y ? std::uint16_t{3208} : std::uint16_t{1}});
        if (!with_y) {
            options.n_best = 1;
            expect_pool_golden(retriever, request, options, {192, 6, 128}, context + " n_best 1");
        }
    }
}

TEST(QuantTierPool, PartialLastBlockNeverSelectsPaddedRows) {
    // 4107 rows: the last Q8 block holds 11 real rows and 5 padded slots
    // (row_stride 4112).  Those 11 rows are the best matches; most other
    // rows lack the attribute and score exactly 0, like the padding.  With
    // n_best = 30 the cut lands among the zeros, so the pool regrows until
    // it covers every real row — and must never take a padded one.
    constexpr std::size_t kRows = 4107;
    std::vector<std::vector<Attribute>> impls(kRows, {Attribute{AttrId{2}, 5}});
    for (std::size_t r = 0; r < kRows; r += 200) {
        impls[r] = {Attribute{AttrId{1}, static_cast<AttrValue>(20000 + r)}};
    }
    for (std::size_t r = 4096; r < kRows; ++r) {
        impls[r] = {Attribute{AttrId{1}, static_cast<AttrValue>(1000 + r)}};
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    ASSERT_EQ(compiled.plans().front()->row_stride, 4112u);
    const Retriever retriever(tree, bounds, compiled);

    const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 0, 1.0}});
    RetrievalOptions options;
    options.n_best = 30;
    expect_pool_golden(retriever, request, options, {5067, 7, 4107}, "partial");
    options.n_best = 5;  // the tail block alone decides the cut
    expect_pool_golden(retriever, request, options, {20, 0, 20}, "partial n_best 5");
}

TEST(QuantTierPool, FewerBlocksThanThePoolTakesEveryRowAsCandidate) {
    // 200 rows = 7 Q8 blocks (the last one partial) against a pool of at
    // least 64 rows: no block threshold applies at all.
    util::Rng rng(0xFE3B);
    wl::CatalogConfig config;
    config.function_types = 1;
    config.impls_per_type = 200;
    config.attrs_per_impl = 5;
    config.attr_dropout = 0.3;
    const auto [tree, bounds] = wl::generate_catalog_with_bounds(config, rng);
    const CompiledCaseBase compiled(tree, bounds);
    ASSERT_LT(compiled.plans().front()->q8_blocks(), 64u);
    const Retriever retriever(tree, bounds, compiled);
    const auto batch = wl::generate_request_batch(tree, bounds, 4, rng);
    ASSERT_EQ(batch.size(), 4u);

    const PoolGolden golden[4] = {
        {192, 6, 128}, {64, 3, 64}, {12, 0, 12}, {32, 1, 32},
    };
    for (std::size_t j = 0; j < batch.size(); ++j) {
        RetrievalOptions options;
        options.n_best = 1 + j;
        expect_pool_golden(retriever, batch[j].request, options, golden[j],
                           "few-blocks request " + std::to_string(j));
    }
}

TEST(QuantTierPool, NearTiesRegrowThePoolByEight) {
    // Even rows hold 30000 + i/2 (exact-score gaps of one raw unit), odd
    // rows 60000, so every block spans ≈ 30000 raw and carries a
    // quantization error of up to ≈ 118 raw.  Hundreds of even rows are then
    // indistinguishable in phase 1 and the initial 64-row pool (n_best = 2)
    // cannot prove the cut: the pool must regrow ×8.  At 512 blocks the
    // regrown 512-row pool equals the block count, so τ = −∞ and every row
    // is a candidate.
    constexpr std::size_t kRows = 16384;
    std::vector<std::vector<Attribute>> impls(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
        const std::size_t value = i % 2 == 0 ? 30000 + i / 2 : 60000;
        impls[i] = {Attribute{AttrId{1}, static_cast<AttrValue>(value)}};
    }
    const CaseBase tree = single_type(std::move(impls));
    const BoundsTable bounds = BoundsTable::from_case_base(tree);
    const CompiledCaseBase compiled(tree, bounds);
    const Retriever retriever(tree, bounds, compiled);

    const Request request(TypeId{1}, {RequestAttribute{AttrId{1}, 30000, 1.0}});
    RetrievalOptions options;
    options.n_best = 2;
    // Four rounds exhaust the 64-row pool; after the regrow the 64-row prefix
    // is rescored again and one more doubling proves the cut at 128.
    expect_pool_golden(retriever, request, options, {192, 5, 128}, "regrow");
}

}  // namespace
