// Compiled columnar retrieval vs. the tree-walking reference, and the
// SIMD column kernels vs. their scalar fallback.
//
// The paper's speedup story is a layout story: arrange the case base the
// way the datapath consumes it and retrieval cost collapses.  This bench
// measures the software mirror of that claim — the SoA compiled plan
// (core/compiled.hpp) against the pointer-rich reference tree — at
// 10/100/1k/10k implementations, plus the batch API that amortizes
// per-request scratch across a request stream, plus the vectorized column
// loops (core/kernels.hpp) against the always-built scalar kernel table.
// Acceptance: the compiled batch path is >= 5x the reference at 1k
// implementations, and the SIMD column loops are >= 2x scalar at 1k/10k
// on AVX2 hardware.
//
// A third table covers the Q8 two-phase route at 1k / 10k / 100k / 1M
// catalogue implementations: approximate top-K over the block-quantized
// tier + exact rescore, proven bit-identical to the exact scan per request
// before any timing, split per row into phase 1 and selection + rescore,
// with a bytes-scanned ledger whose acceptance is >= 4x less data than the
// f64 scan at 100k+ implementations.
//
// Every table self-checks bit-identity before timing: the compiled path
// against the tree reference, and each compiled-in kernel table (SSE2 /
// NEON / runtime-dispatched AVX2 and AVX-512) against the scalar one,
// double and Q15 — the bench exits 1 on the first diverging bit.
//
// --json=PATH additionally writes the machine-readable table summary
// (table name -> ns/op + speedup) CI's bench-smoke job archives as
// BENCH_retrieval.json to track the kernel speedups across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/compiled.hpp"
#include "core/kernels.hpp"
#include "core/retrieval.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using benchjson::record_table;

// The compiled view holds pointers into the scenario's case base, so it is
// built by the caller once the Scenario sits at its final address (a
// member here would dangle if the named return were moved, not elided).
struct Scenario {
    wl::GeneratedCatalog catalog;
    std::vector<cbr::Request> requests;

    [[nodiscard]] cbr::CompiledCaseBase compile() const {
        return cbr::CompiledCaseBase(catalog.case_base, catalog.bounds);
    }
};

Scenario make_scenario(std::size_t impls, std::size_t request_count = 256,
                       std::size_t types = 1) {
    util::Rng rng(0xC0DEC0DEULL + impls * types);
    wl::CatalogConfig config;
    config.function_types = static_cast<std::uint16_t>(types);
    config.impls_per_type = static_cast<std::uint16_t>(impls);
    config.attrs_per_impl = 10;
    config.attr_dropout = 0.2;
    Scenario s{wl::generate_catalog_with_bounds(config, rng), {}};
    const auto generated = wl::generate_request_batch(s.catalog.case_base,
                                                      s.catalog.bounds, request_count, rng);
    s.requests.reserve(generated.size());
    for (const wl::GeneratedRequest& g : generated) {
        s.requests.push_back(g.request);
    }
    return s;
}

cbr::RetrievalOptions bench_options() {
    cbr::RetrievalOptions options;
    options.n_best = 4;  // the allocation manager's default retrieval width
    return options;
}

template <typename Fn>
double ns_per_request(std::size_t request_count, Fn&& run_batch_once) {
    using clock = std::chrono::steady_clock;
    // Warm up, then repeat until we have accumulated enough wall time for a
    // stable estimate.
    run_batch_once();
    std::size_t reps = 0;
    const auto start = clock::now();
    auto elapsed = clock::duration::zero();
    do {
        run_batch_once();
        ++reps;
        elapsed = clock::now() - start;
    } while (elapsed < std::chrono::milliseconds(200));
    const double total_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    return total_ns / static_cast<double>(reps) / static_cast<double>(request_count);
}

void print_comparison() {
    std::cout << "=== Compiled columnar retrieval vs. reference tree walk ===\n\n";
    util::Table table({"impls", "tree ns/req", "compiled ns/req", "batch ns/req",
                       "compiled x", "batch x"});
    const cbr::RetrievalOptions options = bench_options();
    double batch_speedup_1k = 0.0;
    for (const std::size_t impls : {10u, 100u, 1000u, 10000u}) {
        const Scenario s = make_scenario(impls);
        const cbr::CompiledCaseBase plan = s.compile();
        const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds, plan);
        cbr::RetrievalScratch scratch;

        // Sanity: the fast paths (and whatever kernel table the runtime
        // dispatch picked) must agree with the tree reference bit-for-bit,
        // double and Q15, before anything is timed.
        for (const cbr::Request& request : s.requests) {
            const auto check = retriever.retrieve(request, options);
            const auto check_fast = retriever.retrieve_compiled(request, options, &scratch);
            benchjson::require_identical(cbr::identical_results(check, check_fast),
                                         "compiled path");
            const auto q_tree = retriever.score_q15(request);
            const auto q_fast = retriever.score_q15_compiled_into(request, scratch);
            bool q_same = q_tree.size() == q_fast.size();
            for (std::size_t i = 0; q_same && i < q_tree.size(); ++i) {
                q_same = q_tree[i].similarity_q30 == q_fast[i].similarity_q30;
            }
            benchjson::require_identical(q_same, "Q15 compiled path");
        }

        const double tree = ns_per_request(s.requests.size(), [&] {
            for (const cbr::Request& request : s.requests) {
                benchmark::DoNotOptimize(retriever.retrieve(request, options));
            }
        });
        const double compiled = ns_per_request(s.requests.size(), [&] {
            for (const cbr::Request& request : s.requests) {
                benchmark::DoNotOptimize(
                    retriever.retrieve_compiled(request, options, &scratch));
            }
        });
        const double batch = ns_per_request(s.requests.size(), [&] {
            benchmark::DoNotOptimize(retriever.retrieve_batch(s.requests, options, scratch));
        });

        if (impls == 1000u) {
            batch_speedup_1k = tree / batch;
        }
        record_table("compiled_retrieve_" + std::to_string(impls), compiled,
                     tree / compiled);
        record_table("batch_retrieve_" + std::to_string(impls), batch, tree / batch);
        table.add_row({std::to_string(impls), util::to_fixed(tree, 1),
                       util::to_fixed(compiled, 1), util::to_fixed(batch, 1),
                       util::to_fixed(tree / compiled, 2) + "x",
                       util::to_fixed(tree / batch, 2) + "x"});
    }
    std::cout << table.render_with_title(
                     "n_best = 4, 10 attribute columns, 20% attribute dropout;\n"
                     "tree = per-(impl x constraint) binary search + stable_sort,\n"
                     "compiled = SoA column gathers + bounded top-k heap,\n"
                     "batch = compiled + scratch amortized over 256 requests")
              << "\n";
    std::cout << "batch speedup at 1k impls: " << util::to_fixed(batch_speedup_1k, 2)
              << "x (acceptance: >= 5x)\n\n";
}

/// One request pre-lowered to kernel terms: exactly the per-column calls
/// retrieve_compiled_into / score_q15_compiled issue after the merge-join,
/// so the timed loop is the kernel datapath and nothing else.
struct KernelTerm {
    std::size_t column;
    cbr::AttrValue value;
    double weight;
    std::uint16_t weight_q15;
};

std::vector<KernelTerm> lower_request(const cbr::TypePlan& plan, const cbr::Request& request,
                                      cbr::RetrievalScratch& scratch) {
    const auto constraints = request.constraints();
    double sum = 0.0;
    for (const auto& c : constraints) {
        sum += c.weight;
    }
    scratch.norm_weights.resize(constraints.size());
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        scratch.norm_weights[i] = constraints[i].weight / sum;
    }
    cbr::quantize_weights(scratch.norm_weights, scratch.q15_weights, scratch.quant);
    plan.map_columns(constraints, scratch.columns);
    std::vector<KernelTerm> terms;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        if (scratch.columns[i] == cbr::TypePlan::npos) {
            continue;
        }
        terms.push_back(KernelTerm{scratch.columns[i], constraints[i].value,
                                   scratch.norm_weights[i], scratch.q15_weights[i].raw()});
    }
    return terms;
}

// ---- Q8 two-phase retrieval vs the exact column scan -----------------------

/// Phase 1 alone: the active table's Q8 manhattan kernel over every mapped
/// column of one request, tiled 8 Q8 blocks (256 rows) at a time like
/// the two-phase scorer's own sweep.  Selection and rescore are left out,
/// so two-phase time minus this is what they cost.
void phase1_sweep(const cbr::TypePlan& plan, std::span<const KernelTerm> terms,
                  std::vector<double>& acc) {
    const cbr::kern::KernelTable& kernels = cbr::kern::active_kernels();
    const std::size_t stride = plan.row_stride;
    const std::size_t blocks = plan.q8_blocks();
    constexpr std::size_t kTileBlocks = 8;
    acc.assign(stride, 0.0);
    for (std::size_t b0 = 0; b0 < blocks; b0 += kTileBlocks) {
        const std::size_t r0 = b0 * cbr::TypePlan::kQuantBlock;
        const std::size_t len =
            std::min(stride - r0, kTileBlocks * cbr::TypePlan::kQuantBlock);
        for (const KernelTerm& t : terms) {
            kernels.q8_manhattan(acc.data() + r0, plan.q8.data() + t.column * stride + r0,
                                 plan.q8_scale.data() + t.column * blocks + b0, len, t.value,
                                 plan.divisor[t.column], t.weight);
        }
    }
    benchmark::DoNotOptimize(acc.data());
}

/// Self-checks then times retrieve_compiled with the two-phase Q8 stage on
/// (default knobs) against the same entry point with it forced off, at
/// 1k / 10k / 100k / 1M catalogue implementations (ImplId is 16-bit, so the
/// larger shapes spread rows across types — each retrieval still scans one
/// type's plan).  Per scanned plan row it splits two-phase time into
/// phase 1 alone (the Q8 kernel sweep) and the rest (pool selection, exact
/// rescore, top-k), next to the exact scan's.  It also accounts *bytes
/// scanned* per request — phase 1 streams 1 code byte/row plus 8 bytes of
/// scale+err per 32-row block and phase 2 re-reads 4 B/row for the
/// rescored survivors, against 4 B/row for the exact u16 scan and 8 B/row
/// for the dense-f64 framing the ROADMAP's >= 4x acceptance is stated
/// against.
void print_two_phase() {
    std::cout << "=== Q8 two-phase retrieval vs exact column scan ===\n\n";
    util::Table table({"impls", "exact ns/req", "2phase ns/req", "speedup", "exact ns/row",
                       "phase1 ns/row", "select+rescore ns/row", "rescored/req",
                       "bytes x (u16)", "bytes x (f64)"});
    const cbr::RetrievalOptions options = bench_options();

    struct Size {
        std::size_t types;
        std::size_t per_type;
        std::size_t requests;
    };
    const Size sizes[] = {{1, 1000, 256}, {1, 10000, 256}, {2, 50000, 64}, {16, 62500, 64}};
    double f64_reduction_100k = 0.0;
    for (const Size& size : sizes) {
        const std::size_t impls = size.types * size.per_type;
        const Scenario s = make_scenario(size.per_type, size.requests, size.types);
        const cbr::CompiledCaseBase compiled = s.compile();
        const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds, compiled);

        cbr::RetrievalScratch exact_scratch;
        exact_scratch.two_phase_min_rows = std::numeric_limits<std::size_t>::max();
        cbr::RetrievalScratch two_scratch;  // default knobs: engages here

        // Identity first, numbers second: every request must come back
        // bit-identical with the two-phase stage engaged, and the bytes
        // ledger is filled from the same pass's telemetry.
        double exact_bytes = 0.0, q8_bytes = 0.0, rescored = 0.0;
        for (const cbr::Request& request : s.requests) {
            const auto ref = retriever.retrieve_compiled(request, options, &exact_scratch);
            const auto got = retriever.retrieve_compiled(request, options, &two_scratch);
            benchjson::require_identical(cbr::identical_results(ref, got),
                                         "two-phase path");
            benchjson::require_identical(two_scratch.two_phase.engaged,
                                         "two-phase engagement");
            const cbr::TypePlan* plan = compiled.find(request.type());
            plan->map_columns(request.constraints(), exact_scratch.columns);
            std::size_t m = 0;  // constraint columns the scans actually touch
            for (const std::size_t c : exact_scratch.columns) {
                m += c != cbr::TypePlan::npos;
            }
            const double md = static_cast<double>(m);
            const double stride = static_cast<double>(plan->row_stride);
            const double blocks = static_cast<double>(plan->q8_blocks());
            exact_bytes += md * stride * 4.0;  // u16 values + u16 mask
            q8_bytes += md * (stride + blocks * 8.0) +
                        static_cast<double>(two_scratch.two_phase.rescored) * md * 4.0;
            rescored += static_cast<double>(two_scratch.two_phase.rescored);
        }

        std::vector<const cbr::TypePlan*> plans;
        std::vector<std::vector<KernelTerm>> lowered;
        for (const cbr::Request& request : s.requests) {
            plans.push_back(compiled.find(request.type()));
            lowered.push_back(lower_request(*plans.back(), request, exact_scratch));
        }
        std::vector<double> phase1_acc;
        const double phase1_ns = ns_per_request(s.requests.size(), [&] {
            for (std::size_t i = 0; i < plans.size(); ++i) {
                phase1_sweep(*plans[i], lowered[i], phase1_acc);
            }
        });
        const double exact_ns = ns_per_request(s.requests.size(), [&] {
            for (const cbr::Request& request : s.requests) {
                benchmark::DoNotOptimize(
                    retriever.retrieve_compiled(request, options, &exact_scratch));
            }
        });
        const double two_ns = ns_per_request(s.requests.size(), [&] {
            for (const cbr::Request& request : s.requests) {
                benchmark::DoNotOptimize(
                    retriever.retrieve_compiled(request, options, &two_scratch));
            }
        });

        const double reduction_u16 = exact_bytes / q8_bytes;
        const double reduction_f64 = 2.0 * reduction_u16;  // f64 framing: 8 B/row
        if (impls >= 100000) {
            f64_reduction_100k = std::max(f64_reduction_100k, reduction_f64);
        }
        record_table("two_phase_retrieve_" + std::to_string(impls), two_ns,
                     exact_ns / two_ns);
        record_table("two_phase_bytes_f64_" + std::to_string(impls),
                     q8_bytes / static_cast<double>(s.requests.size()), reduction_f64);
        const double rows = static_cast<double>(size.per_type);  // rows per scanned plan
        record_table("two_phase_phase1_" + std::to_string(impls), phase1_ns,
                     exact_ns / phase1_ns);
        table.add_row({std::to_string(impls), util::to_fixed(exact_ns, 1),
                       util::to_fixed(two_ns, 1),
                       util::to_fixed(exact_ns / two_ns, 2) + "x",
                       util::to_fixed(exact_ns / rows, 2), util::to_fixed(phase1_ns / rows, 2),
                       util::to_fixed((two_ns - phase1_ns) / rows, 2),
                       util::to_fixed(rescored / static_cast<double>(s.requests.size()), 1),
                       util::to_fixed(reduction_u16, 2) + "x",
                       util::to_fixed(reduction_f64, 2) + "x"});
    }
    std::cout << table.render_with_title(
                     "n_best = 4, 10 attribute columns, 20% attribute dropout;\n"
                     "exact = full u16 column scan (4 B/row/col),\n"
                     "2phase = Q8 top-K scan (1 B/row/col + 8 B/block scale+err)\n"
                     "         + exact rescore of the survivors, bit-identical\n"
                     "         by the per-block error bound (widening cut);\n"
                     "ns/row = per scanned plan row; phase1 = the Q8 kernel\n"
                     "sweep alone, select+rescore = 2phase minus phase1;\n"
                     "bytes x = scanned-bytes reduction vs the u16 tier / vs a\n"
                     "dense f64 scan (8 B/row/col)")
              << "\n";
    std::cout << "bytes-scanned reduction at >= 100k impls: "
              << util::to_fixed(f64_reduction_100k, 2)
              << "x vs the f64 scan (acceptance: >= 4x)\n\n";
}

// ---- SIMD column kernels vs the scalar fallback ---------------------------

struct KernelWork {
    const cbr::TypePlan* plan = nullptr;
    std::vector<std::vector<KernelTerm>> requests;

    KernelWork(const Scenario& s, const cbr::CompiledCaseBase& compiled) {
        plan = compiled.find(s.requests.front().type());
        if (plan == nullptr) {
            std::cerr << "FATAL: bench scenario lost its plan\n";
            std::exit(1);
        }
        cbr::RetrievalScratch scratch;
        for (const cbr::Request& request : s.requests) {
            requests.push_back(lower_request(*plan, request, scratch));
        }
    }

    void run_double(const cbr::kern::KernelTable& table, cbr::LocalMetric metric,
                    std::vector<double>& acc) const {
        const std::size_t stride = plan->row_stride;
        const auto kernel =
            metric == cbr::LocalMetric::manhattan ? table.manhattan : table.squared;
        for (const std::vector<KernelTerm>& terms : requests) {
            acc.assign(stride, 0.0);
            for (const KernelTerm& t : terms) {
                kernel(acc.data(), plan->values.data() + t.column * stride,
                       plan->present_mask.data() + t.column * stride, stride, t.value,
                       plan->divisor[t.column], t.weight);
            }
            benchmark::DoNotOptimize(acc.data());
        }
    }

    void run_q15(const cbr::kern::KernelTable& table, std::vector<std::uint64_t>& acc) const {
        const std::size_t stride = plan->row_stride;
        for (const std::vector<KernelTerm>& terms : requests) {
            acc.assign(stride, 0);
            for (const KernelTerm& t : terms) {
                table.q15(acc.data(), plan->values.data() + t.column * stride,
                          plan->present_mask.data() + t.column * stride, stride, t.value,
                          plan->reciprocal[t.column].raw(), t.weight_q15);
            }
            benchmark::DoNotOptimize(acc.data());
        }
    }
};

/// Every compiled-in kernel table must reproduce the scalar accumulators
/// bit-for-bit over the real request stream — checked before any timing.
void verify_kernel_identity(const KernelWork& work) {
    const cbr::kern::KernelTable& scalar = cbr::kern::scalar_kernels();
    const std::size_t stride = work.plan->row_stride;
    // 32 requests cover every column / presence-hole / saturation pattern
    // the generator produces while keeping the pre-timing check cheap.
    const std::size_t checked = std::min<std::size_t>(work.requests.size(), 32);
    const std::span<const std::vector<KernelTerm>> sample(work.requests.data(), checked);
    for (const cbr::kern::KernelTable* table : cbr::kern::available_kernels()) {
        for (const cbr::LocalMetric metric :
             {cbr::LocalMetric::manhattan, cbr::LocalMetric::squared}) {
            for (const std::vector<KernelTerm>& terms : sample) {
                std::vector<double> ref(stride, 0.0), got(stride, 0.0);
                for (const KernelTerm& t : terms) {
                    const auto run = [&](const cbr::kern::KernelTable& k, double* acc) {
                        (metric == cbr::LocalMetric::manhattan ? k.manhattan
                                                               : k.squared)(
                            acc, work.plan->values.data() + t.column * stride,
                            work.plan->present_mask.data() + t.column * stride, stride,
                            t.value, work.plan->divisor[t.column], t.weight);
                    };
                    run(scalar, ref.data());
                    run(*table, got.data());
                }
                for (std::size_t r = 0; r < stride; ++r) {
                    benchjson::require_identical(
                        std::bit_cast<std::uint64_t>(ref[r]) ==
                            std::bit_cast<std::uint64_t>(got[r]),
                        std::string(table->isa) + " kernel (double, row " +
                            std::to_string(r) + ")");
                }
            }
        }
        for (const std::vector<KernelTerm>& terms : sample) {
            std::vector<std::uint64_t> ref(stride, 0), got(stride, 0);
            for (const KernelTerm& t : terms) {
                const auto run = [&](const cbr::kern::KernelTable& k, std::uint64_t* acc) {
                    k.q15(acc, work.plan->values.data() + t.column * stride,
                          work.plan->present_mask.data() + t.column * stride, stride,
                          t.value, work.plan->reciprocal[t.column].raw(), t.weight_q15);
                };
                run(scalar, ref.data());
                run(*table, got.data());
            }
            benchjson::require_identical(ref == got,
                                         std::string(table->isa) + " kernel (q15)");
        }
    }
}

void print_kernel_tables() {
    const cbr::kern::KernelTable& scalar = cbr::kern::scalar_kernels();
    const cbr::kern::KernelTable& active = cbr::kern::active_kernels();
    std::cout << "=== SIMD column kernels vs scalar fallback (active isa: "
              << active.isa << ") ===\n\n";

    struct Metric {
        const char* name;
        bool q15;
        cbr::LocalMetric metric;
    };
    const Metric metrics[] = {
        {"manhattan", false, cbr::LocalMetric::manhattan},
        {"squared", false, cbr::LocalMetric::squared},
        {"q15", true, cbr::LocalMetric::manhattan},
    };

    for (const Metric& m : metrics) {
        util::Table table({"impls", "scalar ns/req", std::string(active.isa) + " ns/req",
                           "speedup"});
        for (const std::size_t impls : {10u, 100u, 1000u, 10000u}) {
            const Scenario s = make_scenario(impls);
            const cbr::CompiledCaseBase compiled = s.compile();
            const KernelWork work(s, compiled);
            verify_kernel_identity(work);

            std::vector<double> acc;
            std::vector<std::uint64_t> acc_q30;
            const auto run = [&](const cbr::kern::KernelTable& k) {
                return ns_per_request(s.requests.size(), [&] {
                    if (m.q15) {
                        work.run_q15(k, acc_q30);
                    } else {
                        work.run_double(k, m.metric, acc);
                    }
                });
            };
            const double scalar_ns = run(scalar);
            const double active_ns = run(active);
            record_table("kernel_" + std::string(m.name) + "_" + std::to_string(impls),
                         active_ns, scalar_ns / active_ns);
            table.add_row({std::to_string(impls), util::to_fixed(scalar_ns, 1),
                           util::to_fixed(active_ns, 1),
                           util::to_fixed(scalar_ns / active_ns, 2) + "x"});
        }
        std::cout << table.render_with_title(
                         std::string("column-loop kernel: ") + m.name +
                         " (bit-identity vs scalar proven before timing;\n"
                         "one op = all mapped constraint columns of one request)")
                  << "\n";
    }
}

void bm_tree_retrieve(benchmark::State& state) {
    const Scenario s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds);
    const cbr::RetrievalOptions options = bench_options();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            retriever.retrieve(s.requests[i++ % s.requests.size()], options));
    }
}
BENCHMARK(bm_tree_retrieve)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void bm_compiled_retrieve(benchmark::State& state) {
    const Scenario s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const cbr::CompiledCaseBase compiled = s.compile();
    const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds, compiled);
    const cbr::RetrievalOptions options = bench_options();
    cbr::RetrievalScratch scratch;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(retriever.retrieve_compiled(
            s.requests[i++ % s.requests.size()], options, &scratch));
    }
}
BENCHMARK(bm_compiled_retrieve)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void bm_batch_retrieve(benchmark::State& state) {
    const Scenario s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const cbr::CompiledCaseBase compiled = s.compile();
    const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds, compiled);
    const cbr::RetrievalOptions options = bench_options();
    cbr::RetrievalScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(retriever.retrieve_batch(s.requests, options, scratch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(s.requests.size()));
}
BENCHMARK(bm_batch_retrieve)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void bm_q15_compiled(benchmark::State& state) {
    const Scenario s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const cbr::CompiledCaseBase compiled = s.compile();
    const cbr::Retriever retriever(s.catalog.case_base, s.catalog.bounds, compiled);
    cbr::RetrievalScratch scratch;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            retriever.score_q15_compiled(s.requests[i++ % s.requests.size()], &scratch));
    }
}
BENCHMARK(bm_q15_compiled)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
    // Strip our own --json=PATH flag before benchmark::Initialize sees the
    // argument vector.
    const std::string json_path = qfa::benchjson::strip_json_flag(argc, argv);

    print_comparison();
    print_two_phase();
    print_kernel_tables();
    if (!json_path.empty()) {
        qfa::benchjson::write("bench_compiled_retrieval", json_path);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
