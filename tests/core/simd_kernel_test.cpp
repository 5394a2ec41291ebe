// Bit-identity of the SIMD column kernels against the scalar reference,
// across the padded-tail edge cases.
//
// The plan layout pads every column to TypePlan::kRowAlign rows so the
// kernels (core/kernels.hpp) run whole vectors with no scalar tail; the
// shapes that can go wrong are exactly the ones straddling that alignment:
// 0, 1, kRowAlign-1, kRowAlign and kRowAlign+1 implementations.  For each
// shape and every kernel table compiled into this binary (scalar, the
// baseline ISA, the runtime-dispatched AVX2 and AVX-512 tables) the
// double-precision manhattan and squared accumulators, their Q8 phase-1
// counterparts, the per-block maxima and the Q15 accumulators must be
// *bitwise* equal to the scalar table's — including after patched()
// splices a row in and the stride crosses an alignment boundary — and the
// end-to-end fast paths must stay bit-identical to the tree reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/kernels.hpp"
#include "core/retain.hpp"
#include "core/retrieval.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using namespace qfa::cbr;

constexpr std::size_t kAlign = TypePlan::kRowAlign;

/// One hand-built type with `impls` variants over a few columns, with
/// holes so the presence mask matters, plus values straddling dmax so both
/// sides of the clamp-at-one branch are exercised.
struct Shape {
    CaseBase tree;
    BoundsTable bounds;
    CompiledCaseBase compiled;

    explicit Shape(std::size_t impls) {
        std::vector<FunctionType> types(1);
        types[0].id = TypeId{1};
        types[0].name = "edge";
        util::Rng rng(0x51D0 + impls);
        for (std::size_t i = 0; i < impls; ++i) {
            Implementation impl;
            impl.id = ImplId{static_cast<std::uint16_t>(i + 1)};
            for (std::uint16_t a = 1; a <= 4; ++a) {
                if ((i + a) % 3 == 0) {
                    continue;  // hole: sentinel slot
                }
                impl.attributes.push_back(
                    Attribute{AttrId{a}, static_cast<AttrValue>(rng.uniform_int(0, 1999))});
            }
            types[0].impls.push_back(std::move(impl));
        }
        tree = CaseBase(std::move(types));
        bounds = BoundsTable::from_case_base(tree);
        // A request value can exceed every case value, so make one column's
        // dmax small enough that some distances saturate past it.
        compiled = CompiledCaseBase(tree, bounds);
    }
};

void expect_tables_identical(const TypePlan& plan, const std::string& context) {
    const kern::KernelTable& scalar = kern::scalar_kernels();
    const std::size_t stride = plan.row_stride;
    ASSERT_EQ(stride % kAlign, 0u) << context;
    ASSERT_EQ(stride, TypePlan::padded(plan.impl_count)) << context;

    // Request values on, below and beyond the stored range; weights
    // including awkward fractions.
    const std::uint16_t reqs[] = {0, 1, 700, 1999, 65535};
    const double weights[] = {1.0, 1.0 / 3.0, 0.125};
    const std::uint16_t q15_weights[] = {32767, 10923, 4096};

    for (const kern::KernelTable* table : kern::available_kernels()) {
        SCOPED_TRACE(context + " isa=" + table->isa);
        for (std::size_t c = 0; c < plan.attr_ids.size(); ++c) {
            const std::uint16_t* vals = plan.values.data() + c * stride;
            const std::uint16_t* mask = plan.present_mask.data() + c * stride;
            for (const std::uint16_t req : reqs) {
                for (std::size_t w = 0; w < 3; ++w) {
                    // Seed accumulators with non-trivial state so the
                    // add-into contract is covered, not just first touch.
                    std::vector<double> ref(stride, 0.25), got(stride, 0.25);
                    scalar.manhattan(ref.data(), vals, mask, stride, req,
                                     plan.divisor[c], weights[w]);
                    table->manhattan(got.data(), vals, mask, stride, req,
                                     plan.divisor[c], weights[w]);
                    for (std::size_t r = 0; r < stride; ++r) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[r]),
                                  std::bit_cast<std::uint64_t>(got[r]))
                            << "manhattan col " << c << " row " << r << " req " << req;
                    }

                    ref.assign(stride, 0.5);
                    got.assign(stride, 0.5);
                    scalar.squared(ref.data(), vals, mask, stride, req,
                                   plan.divisor[c], weights[w]);
                    table->squared(got.data(), vals, mask, stride, req,
                                   plan.divisor[c], weights[w]);
                    for (std::size_t r = 0; r < stride; ++r) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[r]),
                                  std::bit_cast<std::uint64_t>(got[r]))
                            << "squared col " << c << " row " << r << " req " << req;
                    }

                    std::vector<std::uint64_t> qref(stride, 7), qgot(stride, 7);
                    scalar.q15(qref.data(), vals, mask, stride, req,
                               plan.reciprocal[c].raw(), q15_weights[w]);
                    table->q15(qgot.data(), vals, mask, stride, req,
                               plan.reciprocal[c].raw(), q15_weights[w]);
                    ASSERT_EQ(qref, qgot) << "q15 col " << c << " req " << req;

                    // The Q8 phase-1 kernels share the bit-identity
                    // contract: same per-row operations at every width.
                    const std::uint8_t* codes = plan.q8.data() + c * stride;
                    const float* scales = plan.q8_scale.data() + c * plan.q8_blocks();
                    ref.assign(stride, 0.125);
                    got.assign(stride, 0.125);
                    scalar.q8_manhattan(ref.data(), codes, scales, stride, req,
                                        plan.divisor[c], weights[w]);
                    table->q8_manhattan(got.data(), codes, scales, stride, req,
                                        plan.divisor[c], weights[w]);
                    for (std::size_t r = 0; r < stride; ++r) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[r]),
                                  std::bit_cast<std::uint64_t>(got[r]))
                            << "q8_manhattan col " << c << " row " << r << " req " << req;
                    }

                    ref.assign(stride, 0.75);
                    got.assign(stride, 0.75);
                    scalar.q8_squared(ref.data(), codes, scales, stride, req,
                                      plan.divisor[c], weights[w]);
                    table->q8_squared(got.data(), codes, scales, stride, req,
                                      plan.divisor[c], weights[w]);
                    for (std::size_t r = 0; r < stride; ++r) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[r]),
                                  std::bit_cast<std::uint64_t>(got[r]))
                            << "q8_squared col " << c << " row " << r << " req " << req;
                    }
                }
            }
        }
    }
}

TEST(SimdKernelTest, ActiveTableIsScalarWhenDisabled) {
    // The dispatch must never hand out a wider table than the build allows;
    // under QFA_SIMD=off everything collapses to the scalar reference.
    ASSERT_FALSE(kern::available_kernels().empty());
    EXPECT_STREQ(kern::available_kernels().front()->isa, "scalar");
#if defined(QFA_SIMD_DISABLED)
    EXPECT_STREQ(kern::active_kernels().isa, "scalar");
    EXPECT_EQ(kern::avx2_kernels(), nullptr);
    EXPECT_EQ(kern::avx512_kernels(), nullptr);
#endif
}

TEST(SimdKernelTest, DispatchPrefersTheWidestTableTheCpuRuns) {
    // Every listed table is distinct, and the active one is among them.
    const auto tables = kern::available_kernels();
    for (std::size_t i = 0; i < tables.size(); ++i) {
        ASSERT_NE(tables[i], nullptr);
        for (std::size_t j = i + 1; j < tables.size(); ++j) {
            EXPECT_NE(tables[i], tables[j]);
        }
    }
    EXPECT_NE(std::find(tables.begin(), tables.end(), &kern::active_kernels()),
              tables.end());
#if !defined(QFA_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
    const bool cpu_avx512 =
        __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
    if (kern::avx512_kernels() != nullptr && cpu_avx512) {
        EXPECT_EQ(&kern::active_kernels(), kern::avx512_kernels());
        EXPECT_STREQ(kern::active_kernels().isa, "avx512");
    } else if (kern::avx2_kernels() != nullptr && __builtin_cpu_supports("avx2")) {
        EXPECT_EQ(&kern::active_kernels(), kern::avx2_kernels());
    }
#endif
}

TEST(SimdKernelTest, PaddedTailEdgeCases) {
    for (const std::size_t impls : {std::size_t{0}, std::size_t{1}, kAlign - 1,
                                    kAlign, kAlign + 1, 3 * kAlign}) {
        const Shape shape(impls);
        const TypePlan* plan = shape.compiled.find(TypeId{1});
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->impl_count, impls);
        expect_tables_identical(*plan, "impls=" + std::to_string(impls));
    }
}

TEST(SimdKernelTest, Q8BlockEdgeShapes) {
    // 8 rows: one AVX-512 vector, shorter than a Q8 block.  40 rows: a full
    // Q8 block plus a partial last one, so the per-block scale changes
    // mid-column.
    for (const std::size_t impls : {kAlign, kern::kQ8Block + kAlign}) {
        const Shape shape(impls);
        const TypePlan* plan = shape.compiled.find(TypeId{1});
        ASSERT_NE(plan, nullptr);
        ASSERT_TRUE(plan->has_q8());
        expect_tables_identical(*plan, "q8 impls=" + std::to_string(impls));
    }
}

TEST(SimdKernelTest, Q8BlockMaxIsIdenticalAcrossTables) {
    // Phase-1 accumulators: non-negative, with exact zeros (absent rows and
    // padding) and repeated values, at whole and partial block counts.
    constexpr std::size_t kBlock = kern::kQ8Block;
    util::Rng rng(0x5E6A);
    for (const std::size_t padded_rows : {std::size_t{0}, kAlign, 2 * kAlign, 5 * kAlign,
                                          std::size_t{256}, std::size_t{264}}) {
        std::vector<double> acc(padded_rows);
        for (double& a : acc) {
            const std::int64_t pick = rng.uniform_int(0, 9);
            a = pick == 0   ? 0.0
                : pick == 1 ? 0.5
                            : static_cast<double>(rng.uniform_int(0, 1 << 20)) / 1048576.0;
        }
        const std::size_t count = (padded_rows + kBlock - 1) / kBlock;
        std::vector<double> expect(count);
        for (std::size_t b = 0; b < count; ++b) {
            const std::size_t end = std::min(padded_rows, (b + 1) * kBlock);
            expect[b] = *std::max_element(acc.begin() + b * kBlock, acc.begin() + end);
        }
        for (const kern::KernelTable* table : kern::available_kernels()) {
            std::vector<double> got(count, -1.0);
            table->q8_block_max(got.data(), acc.data(), padded_rows);
            for (std::size_t b = 0; b < count; ++b) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(expect[b]),
                          std::bit_cast<std::uint64_t>(got[b]))
                    << table->isa << " rows " << padded_rows << " block " << b;
            }
        }
    }
}

TEST(SimdKernelTest, EndToEndFastPathsMatchTreeAtEdgeShapes) {
    for (const std::size_t impls : {std::size_t{1}, kAlign - 1, kAlign, kAlign + 1}) {
        util::Rng rng(0xED6EULL + impls);
        wl::CatalogConfig config;
        config.function_types = 1;
        config.impls_per_type = static_cast<std::uint16_t>(impls);
        config.attrs_per_impl = 6;
        config.attr_dropout = 0.3;
        const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);
        const CompiledCaseBase compiled(catalog.case_base, catalog.bounds);
        const Retriever retriever(catalog.case_base, catalog.bounds, compiled);
        RetrievalScratch scratch;
        RetrievalOptions options;
        options.n_best = 4;
        options.collect_details = true;
        for (const auto& g :
             wl::generate_request_batch(catalog.case_base, catalog.bounds, 32, rng)) {
            for (const LocalMetric metric : {LocalMetric::manhattan, LocalMetric::squared}) {
                options.metric = metric;
                const RetrievalResult tree = retriever.retrieve(g.request, options);
                const RetrievalResult fast =
                    retriever.retrieve_compiled(g.request, options, &scratch);
                EXPECT_TRUE(identical_results(tree, fast)) << "impls=" << impls;
            }
            const std::vector<MatchQ15> q_tree = retriever.score_q15(g.request);
            const std::span<const MatchQ15> q_fast =
                retriever.score_q15_compiled_into(g.request, scratch);
            ASSERT_EQ(q_tree.size(), q_fast.size());
            for (std::size_t i = 0; i < q_tree.size(); ++i) {
                EXPECT_EQ(q_tree[i].similarity_q30, q_fast[i].similarity_q30);
                EXPECT_EQ(q_tree[i].impl, q_fast[i].impl);
            }
        }
    }
}

TEST(SimdKernelTest, SpliceAcrossAlignmentBoundaryStaysIdentical) {
    // Grow one type through retain() so patched() row-splices it across
    // the kRowAlign boundary (7 -> 8 rows re-pads in place, 8 -> 9 rows
    // widens the stride); after every splice the padded plan must satisfy
    // kernel bit-identity and match a fresh compile.
    util::Rng rng(0x59811CEULL);
    wl::CatalogConfig config;
    config.function_types = 2;
    config.impls_per_type = static_cast<std::uint16_t>(kAlign - 1);
    config.attrs_per_impl = 5;
    config.attr_dropout = 0.25;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);
    DynamicCaseBase dynamic{catalog.case_base};

    CaseBase tree = dynamic.snapshot();
    BoundsTable bounds = dynamic.bounds();
    CompiledCaseBase compiled(tree, bounds);

    const TypeId type{1};
    for (std::uint16_t step = 0; step < 3; ++step) {
        Implementation impl;
        impl.id = ImplId{static_cast<std::uint16_t>(1000 + step)};
        impl.attributes.push_back(Attribute{AttrId{1}, static_cast<AttrValue>(50 + step)});
        impl.attributes.push_back(
            Attribute{AttrId{7}, static_cast<AttrValue>(4000 + step)});  // new column
        ASSERT_EQ(dynamic.retain(type, impl, 1.0), RetainVerdict::retained);

        CaseBase next_tree = dynamic.snapshot();
        BoundsTable next_bounds = dynamic.bounds();
        const CompiledCaseBase patched =
            CompiledCaseBase::patched(compiled, next_tree, next_bounds, type);
        const CompiledCaseBase fresh(next_tree, next_bounds);

        const TypePlan* plan = patched.find(type);
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->impl_count, kAlign - 1 + step + 1);
        const TypePlan* reference = fresh.find(type);
        ASSERT_NE(reference, nullptr);
        EXPECT_EQ(plan->row_stride, reference->row_stride);
        EXPECT_EQ(plan->values, reference->values);
        EXPECT_EQ(plan->present_mask, reference->present_mask);
        // The spliced Q8 tier (copied blocks + requantized tail) must equal
        // a fresh compile's byte for byte.
        EXPECT_EQ(plan->q8, reference->q8);
        EXPECT_EQ(plan->q8_scale, reference->q8_scale);
        EXPECT_EQ(plan->q8_err, reference->q8_err);
        expect_tables_identical(*plan, "spliced step=" + std::to_string(step));

        tree = std::move(next_tree);
        bounds = std::move(next_bounds);
        compiled = CompiledCaseBase(tree, bounds);
    }
}

}  // namespace
