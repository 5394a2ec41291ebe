// SLO behavior under an open-loop traffic harness: paced underload,
// calibrated 2x-capacity overload with deadline expiry and priority
// shedding, and the admission path's overhead vs the blocking submit path.
//
// Acceptance claims:
//  * paced underload (~30% of this machine's measured closed-loop
//    capacity): the engine serves effectively the whole tape and the
//    served-latency percentiles stay far below the SLO;
//  * 2x-capacity open-loop overload: the engine sheds/expires instead of
//    blocking — a visible share of arrivals lands in the typed refusal
//    classes, whatever IS served stays bit-identical to the closed-loop
//    reference, and served + rejected + expired + shed == submitted
//    exactly (nothing resolves silently);
//  * try_submit's admission bookkeeping (typed refusals, inflight
//    accounting, tenant counters) costs little over the blocking submit
//    path when there is no overload to manage.
// Every table self-checks bit-identity of non-shed outcomes against the
// single-threaded compiled reference before timing anything; the outcome
// count identity is additionally asserted by the harness itself.
//
// Offered load is calibrated, not hard-coded: each overload table measures
// the engine's own closed-loop throughput first and paces arrivals at a
// multiple of it, so "2x capacity" means 2x on *this* machine — CI boxes,
// 1-core containers and fast desktops all read the same story.
//
// --json=PATH writes the machine-readable summary CI's bench-smoke job
// archives as BENCH_slo.json.  For the SLO tables ns_per_op is the served
// p99 and "speedup" is the goodput fraction (good / submitted) — the two
// numbers an SLO trajectory needs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/retrieval.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"
#include "workload/openloop.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using steady = std::chrono::steady_clock;

using benchjson::record_table;

double to_us(steady::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
}

wl::GeneratedCatalog make_catalog(std::uint16_t types, std::uint16_t impls_per_type,
                                  std::uint64_t seed) {
    util::Rng rng(seed);
    wl::CatalogConfig config;
    config.function_types = types;
    config.impls_per_type = impls_per_type;
    config.attrs_per_impl = 10;
    config.attr_dropout = 0.2;
    return wl::generate_catalog_with_bounds(config, rng);
}

/// This machine's closed-loop service rate for `engine` over a 200-request
/// probe batch — the denominator every "Nx overload" in this binary is
/// calibrated against.
double measured_capacity_hz(serve::Engine& engine, const wl::GeneratedCatalog& catalog,
                            const cbr::RetrievalOptions& options) {
    util::Rng rng(0xCA11);
    std::vector<cbr::Request> probe;
    for (wl::GeneratedRequest& generated :
         wl::generate_request_batch(catalog.case_base, catalog.bounds, 200, rng)) {
        probe.push_back(std::move(generated.request));
    }
    (void)engine.retrieve_all(probe, options);  // warm-up
    const steady::time_point begin = steady::now();
    (void)engine.retrieve_all(probe, options);
    const double seconds = std::chrono::duration<double>(steady::now() - begin).count();
    return static_cast<double>(probe.size()) / std::max(seconds, 1e-6);
}

/// Tape length that lands `target_arrivals` at `offered_hz`, clamped to
/// [50ms, 300ms] so slow sanitized builds stay quick and fast machines
/// still accumulate a meaningful backlog.
steady::duration overload_duration(double offered_hz, std::size_t target_arrivals) {
    const double seconds = static_cast<double>(target_arrivals) / std::max(offered_hz, 1.0);
    const double clamped = std::min(0.3, std::max(0.05, seconds));
    return std::chrono::duration_cast<steady::duration>(std::chrono::duration<double>(clamped));
}

/// Dies unless every SERVED arrival is bit-identical to the
/// single-threaded compiled reference for the same scheduled request —
/// the self-check gating everything this binary reports.
void check_served_identical_or_die(const wl::ArrivalSchedule& schedule,
                                   const wl::OpenLoopReport& report,
                                   const cbr::Retriever& reference,
                                   const cbr::RetrievalOptions& options,
                                   const char* where) {
    for (std::size_t i = 0; i < report.records.size(); ++i) {
        if (report.records[i].outcome != wl::ArrivalOutcome::served) {
            continue;
        }
        const cbr::RetrievalResult expected =
            reference.retrieve(schedule.arrivals[i].generated.request, options);
        if (!cbr::identical_results(expected, report.records[i].result)) {
            std::cerr << "FATAL: " << where << " served arrival " << i
                      << " diverged from the closed-loop reference\n";
            std::exit(1);
        }
    }
}

void print_outcome_table(const wl::OpenLoopReport& report, const char* title) {
    util::Table table(
        {"tenant", "submitted", "served", "rejected", "expired", "shed", "good"});
    const auto row = [&](const std::string& name, std::uint64_t submitted,
                         std::uint64_t served, std::uint64_t rejected,
                         std::uint64_t expired, std::uint64_t shed, std::uint64_t good) {
        table.add_row({name, std::to_string(submitted), std::to_string(served),
                       std::to_string(rejected), std::to_string(expired),
                       std::to_string(shed), std::to_string(good)});
    };
    for (const wl::TenantReport& tenant : report.tenants) {
        row("tenant " + std::to_string(tenant.tenant), tenant.submitted, tenant.served,
            tenant.rejected, tenant.expired, tenant.shed, tenant.good);
    }
    row("total", report.submitted, report.served, report.rejected, report.expired,
        report.shed, report.good);
    std::cout << table.render_with_title(title) << "\n";
    std::cout << "served latency: p50 " << util::to_fixed(to_us(report.p50), 1)
              << " us, p99 " << util::to_fixed(to_us(report.p99), 1) << " us, p999 "
              << util::to_fixed(to_us(report.p999), 1) << " us\n";
}

// ---- 1. paced underload: the SLO baseline --------------------------------

void print_underload() {
    const wl::GeneratedCatalog catalog = make_catalog(8, 64, 0x510B01);
    serve::EngineConfig engine_config;
    engine_config.shard_count = 2;
    engine_config.queue_capacity = 1024;
    serve::Engine engine(catalog.case_base, engine_config);

    wl::OpenLoopConfig config;
    config.seed = 0x510B01;
    config.options.n_best = 4;
    const double capacity = measured_capacity_hz(engine, catalog, config.options);
    const double offered = 0.3 * capacity;  // comfortably below capacity
    config.duration = overload_duration(offered, 600);
    config.slo = std::chrono::milliseconds(50);

    std::vector<wl::OpenLoopTenant> tenants(2);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].tenant = static_cast<serve::TenantId>(t);
        tenants[t].arrival_rate_hz = offered / static_cast<double>(tenants.size());
    }
    const wl::ArrivalSchedule schedule =
        wl::build_schedule(catalog.case_base, catalog.bounds, tenants, config);

    const wl::OpenLoopReport report = run_open_loop(engine, schedule, config);
    const cbr::Retriever reference(catalog.case_base, catalog.bounds);
    check_served_identical_or_die(schedule, report, reference, config.options,
                                  "underload");

    std::cout << "=== Open-loop paced underload (0.3x measured capacity) ===\n\n";
    print_outcome_table(
        report,
        "two tenants paced at 0.3x this machine's closed-loop rate,\n"
        "no deadlines, SLO 50 ms; latency clocked from the scheduled\n"
        "arrival (coordinated omission charged to the system)");
    std::cout << "measured closed-loop capacity: " << util::to_fixed(capacity, 0)
              << " req/s; offered: " << util::to_fixed(offered, 0) << " req/s\n";
    std::cout << "goodput fraction: "
              << util::to_fixed(static_cast<double>(report.good) /
                                    static_cast<double>(std::max<std::uint64_t>(
                                        report.submitted, 1)),
                                3)
              << " (acceptance: ~1.0 under paced underload)\n\n";
    record_table("slo_underload", to_us(report.p99) * 1000.0,
                 static_cast<double>(report.good) /
                     static_cast<double>(std::max<std::uint64_t>(report.submitted, 1)));
}

// ---- 2. 2x-capacity overload: shed, don't block --------------------------

void print_overload() {
    const wl::GeneratedCatalog catalog = make_catalog(6, 128, 0x510B02);
    serve::EngineConfig engine_config;
    engine_config.shard_count = 2;
    engine_config.queue_capacity = 32;
    engine_config.admission.policy = serve::AdmissionPolicy::shed_lowest;
    serve::Engine engine(catalog.case_base, engine_config);

    wl::OpenLoopConfig config;
    config.seed = 0x510B02;
    config.options.n_best = 4;
    const double capacity = measured_capacity_hz(engine, catalog, config.options);
    const double offered = 2.0 * capacity;
    config.duration = overload_duration(offered, 1200);
    config.slo = std::chrono::milliseconds(50);

    std::vector<wl::OpenLoopTenant> tenants(3);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].tenant = static_cast<serve::TenantId>(t);
        tenants[t].arrival_rate_hz = offered / static_cast<double>(tenants.size());
        tenants[t].relative_deadline = std::chrono::milliseconds(50);
    }
    const wl::ArrivalSchedule schedule =
        wl::build_schedule(catalog.case_base, catalog.bounds, tenants, config);

    const wl::OpenLoopReport report = run_open_loop(engine, schedule, config);
    const cbr::Retriever reference(catalog.case_base, catalog.bounds);
    check_served_identical_or_die(schedule, report, reference, config.options,
                                  "2x overload");
    // The typed-refusal classes must actually engage: a 2x flood the
    // engine absorbed silently would mean it blocked the clock instead of
    // shedding — the failure mode this PR exists to remove.
    if (report.rejected + report.expired + report.shed == 0) {
        std::cerr << "FATAL: 2x overload produced no typed refusals — the engine "
                     "absorbed offered load it cannot have served in time\n";
        std::exit(1);
    }

    std::cout << "=== Open-loop 2x-capacity overload ===\n\n";
    print_outcome_table(
        report,
        "three equal tenants paced at 2x this machine's closed-loop\n"
        "rate, 50 ms relative deadlines, shed_lowest admission; every\n"
        "served result bit-identical to the closed-loop reference");
    std::cout << "measured closed-loop capacity: " << util::to_fixed(capacity, 0)
              << " req/s; offered: " << util::to_fixed(offered, 0) << " req/s\n";
    std::cout << "outcome identity: " << report.served << " served + " << report.rejected
              << " rejected + " << report.expired << " expired + " << report.shed
              << " shed == " << report.submitted
              << " submitted (asserted by the harness)\n";
    std::cout << "typed refusal share: "
              << util::to_fixed(static_cast<double>(report.rejected + report.expired +
                                                    report.shed) /
                                    static_cast<double>(std::max<std::uint64_t>(
                                        report.submitted, 1)),
                                3)
              << " (acceptance: > 0 — shed, don't block)\n\n";
    record_table("slo_overload_2x", to_us(report.p99) * 1000.0,
                 static_cast<double>(report.good) /
                     static_cast<double>(std::max<std::uint64_t>(report.submitted, 1)));
}

// ---- 3. 90/10 skew: work stealing vs a hot shard -------------------------

void print_skew() {
    // 8 types over 4 shards; the skew profile routes 90% of arrivals onto
    // ONE hot type (hot_type_fraction 0.1 -> ceil(0.8) = 1), which TypeId
    // sharding concentrates onto one worker while three idle — the
    // queue-depth-bound p999 the steal path exists to remove.
    const wl::GeneratedCatalog catalog = make_catalog(8, 64, 0x510B04);
    const auto engine_config = [](bool steal) {
        serve::EngineConfig cfg;
        cfg.shard_count = 4;
        cfg.queue_capacity = 4096;  // no refusals: latency is the story here
        cfg.steal.enabled = steal;
        cfg.steal.min_victim_depth = 2;
        return cfg;
    };

    wl::OpenLoopConfig config;
    config.seed = 0x510B04;
    config.options.n_best = 4;
    double capacity = 0.0;
    {
        serve::Engine probe(catalog.case_base, engine_config(false));
        capacity = measured_capacity_hz(probe, catalog, config.options);
    }
    // Under TOTAL capacity on purpose: offered load the engine as a whole
    // can absorb, so any p999 blow-up is shard imbalance, not overload.
    const double offered = 0.6 * capacity;
    config.duration = overload_duration(offered, 1500);
    config.slo = std::chrono::milliseconds(50);

    const auto tenant = [&](bool skewed) {
        wl::OpenLoopTenant t;
        t.tenant = 0;
        t.arrival_rate_hz = offered;
        t.zipf_s = 0.0;  // uniform popularity unless the hot/cold knob is on
        if (skewed) {
            t.hot_type_fraction = 0.1;
            t.hot_traffic_share = 0.9;
        }
        return t;
    };
    const wl::ArrivalSchedule uniform_schedule = wl::build_schedule(
        catalog.case_base, catalog.bounds, {tenant(false)}, config);
    const wl::ArrivalSchedule skew_schedule = wl::build_schedule(
        catalog.case_base, catalog.bounds, {tenant(true)}, config);
    const cbr::Retriever reference(catalog.case_base, catalog.bounds);

    // Steal-machinery self-check BEFORE any timed run, deterministic on
    // any core count: park the hot shard's worker in an execute closure,
    // submit hot-shard retrievals behind it, and require them to complete
    // — with the home worker provably blocked, every completion IS a
    // steal.  Each stolen result must match the reference; the no-steal
    // runs are checked against the same reference, so "bit-identical to
    // the no-steal engine" holds transitively.
    {
        serve::Engine engine(catalog.case_base, engine_config(true));
        std::vector<std::uint64_t> arrivals_by_shard(engine.shard_count(), 0);
        for (const wl::Arrival& arrival : skew_schedule.arrivals) {
            ++arrivals_by_shard[engine.shard_of(arrival.generated.request.type())];
        }
        const std::size_t hot_shard = static_cast<std::size_t>(
            std::max_element(arrivals_by_shard.begin(), arrivals_by_shard.end()) -
            arrivals_by_shard.begin());
        std::promise<void> latch;
        std::shared_future<void> gate = latch.get_future().share();
        std::future<void> parked = engine.execute(hot_shard, [gate] { gate.wait(); });
        std::vector<std::size_t> submitted_arrivals;
        std::vector<std::future<cbr::RetrievalResult>> futures;
        for (std::size_t i = 0;
             i < skew_schedule.arrivals.size() && futures.size() < 32; ++i) {
            const cbr::Request& request = skew_schedule.arrivals[i].generated.request;
            if (engine.shard_of(request.type()) == hot_shard) {
                submitted_arrivals.push_back(i);
                futures.push_back(engine.submit(request, config.options));
            }
        }
        // Wait on all but the LAST future: thieves pull the victim's FIFO
        // front, so every earlier job is stolen while the home worker is
        // provably parked — but the final job sits at depth 1, below
        // min_victim_depth (stealing a backlog of one is churn the knob
        // exists to forbid), and is the home worker's to serve after the
        // latch opens.
        const std::size_t stealable = futures.size() > 0 ? futures.size() - 1 : 0;
        for (std::size_t f = 0; f < stealable; ++f) {
            const cbr::RetrievalResult result = futures[f].get();
            const cbr::RetrievalResult expected = reference.retrieve(
                skew_schedule.arrivals[submitted_arrivals[f]].generated.request,
                config.options);
            if (!cbr::identical_results(expected, result)) {
                std::cerr << "FATAL: stolen retrieval diverged from the reference\n";
                std::exit(1);
            }
        }
        const std::uint64_t stolen = engine.stats().stolen;
        latch.set_value();
        parked.get();
        for (std::size_t f = stealable; f < futures.size(); ++f) {
            (void)futures[f].get();
        }
        if (stealable == 0 || stolen == 0) {
            std::cerr << "FATAL: hot-shard retrievals behind a parked worker were "
                         "not stolen — the steal path never engaged\n";
            std::exit(1);
        }
    }

    struct SkewRun {
        const char* name;
        const wl::ArrivalSchedule* schedule;
        bool steal;
        wl::OpenLoopReport report;
        serve::EngineStats stats;
    };
    SkewRun runs[] = {
        {"uniform, no steal", &uniform_schedule, false, {}, {}},
        {"90/10 hot, no steal", &skew_schedule, false, {}, {}},
        {"90/10 hot, steal", &skew_schedule, true, {}, {}},
    };
    for (SkewRun& run : runs) {
        serve::Engine engine(catalog.case_base, engine_config(run.steal));
        run.report = run_open_loop(engine, *run.schedule, config);
        run.stats = engine.stats();
        check_served_identical_or_die(*run.schedule, run.report, reference,
                                      config.options, run.name);
    }
    const double uniform_p999 = std::max(to_us(runs[0].report.p999), 1e-3);

    std::cout << "=== 90/10 skew: work stealing vs a hot shard ===\n\n";
    util::Table table({"traffic / engine", "served", "p50 us", "p99 us", "p999 us",
                       "p999 vs uniform", "stolen"});
    for (const SkewRun& run : runs) {
        table.add_row({run.name, std::to_string(run.report.served),
                       util::to_fixed(to_us(run.report.p50), 1),
                       util::to_fixed(to_us(run.report.p99), 1),
                       util::to_fixed(to_us(run.report.p999), 1),
                       util::to_fixed(to_us(run.report.p999) / uniform_p999, 2) + "x",
                       std::to_string(run.stats.stolen)});
    }
    std::cout << table.render_with_title(
                     "one tenant paced at 0.6x measured capacity over 8 types on\n"
                     "4 shards; the hot profile routes 90% of arrivals to 1 type\n"
                     "(one shard).  Same offered load everywhere; every served\n"
                     "result bit-identical to the single-threaded reference")
              << "\n";
    const serve::EngineStats& steal_stats = runs[2].stats;
    std::cout << "steal telemetry (90/10 + steal): stolen " << steal_stats.stolen
              << "; per-victim-shard [";
    for (std::size_t s = 0; s < steal_stats.shard_stolen.size(); ++s) {
        std::cout << (s == 0 ? "" : ", ") << steal_stats.shard_stolen[s];
    }
    std::cout << "]\n";
    std::cout << "acceptance: p999(90/10, steal) <= 2x p999(uniform) — measured "
              << util::to_fixed(to_us(runs[2].report.p999) / uniform_p999, 2)
              << "x (vs " << util::to_fixed(to_us(runs[1].report.p999) / uniform_p999, 2)
              << "x with stealing off; the no-steal gap needs idle sibling cores "
                 "to be visible)\n\n";
    record_table("slo_skew_uniform", to_us(runs[0].report.p999) * 1000.0, 1.0);
    record_table("slo_skew_nosteal", to_us(runs[1].report.p999) * 1000.0,
                 uniform_p999 / std::max(to_us(runs[1].report.p999), 1e-3));
    record_table("slo_skew_steal", to_us(runs[2].report.p999) * 1000.0,
                 uniform_p999 / std::max(to_us(runs[2].report.p999), 1e-3));
}

// ---- 4. admission bookkeeping overhead vs the blocking path --------------

void print_admission_overhead() {
    const wl::GeneratedCatalog catalog = make_catalog(16, 64, 0x510B03);
    util::Rng rng(0x510B03);
    std::vector<cbr::Request> requests;
    for (wl::GeneratedRequest& generated :
         wl::generate_request_batch(catalog.case_base, catalog.bounds, 256, rng)) {
        requests.push_back(std::move(generated.request));
    }

    serve::EngineConfig engine_config;
    engine_config.shard_count = 2;
    engine_config.queue_capacity = requests.size();  // no refusals: pure overhead
    serve::Engine engine(catalog.case_base, engine_config);
    cbr::RetrievalOptions options;
    options.n_best = 4;

    // Self-check both paths against the reference before timing.
    const cbr::Retriever reference(catalog.case_base, catalog.bounds);
    for (const cbr::Request& request : requests) {
        const cbr::RetrievalResult expected = reference.retrieve(request, options);
        serve::AdmissionResult admitted = engine.try_submit(request, options, {});
        if (!admitted.admitted()) {
            std::cerr << "FATAL: try_submit refused with an empty queue\n";
            std::exit(1);
        }
        if (!cbr::identical_results(expected, admitted.future.get()) ||
            !cbr::identical_results(expected, engine.submit(request, options).get())) {
            std::cerr << "FATAL: admission-path retrieval diverged from the reference\n";
            std::exit(1);
        }
    }

    const auto ns_per_request = [&](auto&& run_batch_once) {
        run_batch_once();  // warm-up
        std::size_t reps = 0;
        const steady::time_point start = steady::now();
        steady::duration elapsed{};
        do {
            run_batch_once();
            ++reps;
            elapsed = steady::now() - start;
        } while (elapsed < std::chrono::milliseconds(200));
        return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       elapsed)
                                       .count()) /
               static_cast<double>(reps) / static_cast<double>(requests.size());
    };

    const double blocking_ns = ns_per_request([&] {
        std::vector<std::future<cbr::RetrievalResult>> futures;
        futures.reserve(requests.size());
        for (const cbr::Request& request : requests) {
            futures.push_back(engine.submit(request, options));
        }
        for (std::future<cbr::RetrievalResult>& future : futures) {
            benchmark::DoNotOptimize(future.get());
        }
    });
    const double admission_ns = ns_per_request([&] {
        std::vector<std::future<cbr::RetrievalResult>> futures;
        futures.reserve(requests.size());
        for (const cbr::Request& request : requests) {
            serve::AdmissionResult result = engine.try_submit(request, options, {});
            if (!result.admitted()) {
                std::cerr << "FATAL: try_submit refused mid-bench\n";
                std::exit(1);
            }
            futures.push_back(std::move(result.future));
        }
        for (std::future<cbr::RetrievalResult>& future : futures) {
            benchmark::DoNotOptimize(future.get());
        }
    });

    std::cout << "=== Admission bookkeeping overhead (no overload) ===\n\n";
    util::Table table({"path", "ns/req", "x vs submit"});
    table.add_row({"blocking submit()", util::to_fixed(blocking_ns, 1), "1.00x"});
    table.add_row({"try_submit()", util::to_fixed(admission_ns, 1),
                   util::to_fixed(blocking_ns / admission_ns, 2) + "x"});
    std::cout << table.render_with_title(
                     "256-request batches, 1024 impls over 16 types, n_best = 4,\n"
                     "2 shards, queue never full; try_submit adds the typed\n"
                     "refusal checks, inflight accounting and tenant counters\n"
                     "(results bit-identical on both paths)")
              << "\n";
    std::cout << "admission overhead: " << util::to_fixed(blocking_ns / admission_ns, 2)
              << "x vs blocking submit (acceptance: near 1x — the checks are cheap)\n\n";
    record_table("admission_overhead", admission_ns, blocking_ns / admission_ns);
}

// ---- benchmark registrations ---------------------------------------------

void bm_try_submit_drain(benchmark::State& state) {
    const wl::GeneratedCatalog catalog = make_catalog(16, 64, 0x510B03);
    util::Rng rng(0x510B03);
    std::vector<cbr::Request> requests;
    for (wl::GeneratedRequest& generated :
         wl::generate_request_batch(catalog.case_base, catalog.bounds, 256, rng)) {
        requests.push_back(std::move(generated.request));
    }
    serve::EngineConfig config;
    config.shard_count = static_cast<std::size_t>(state.range(0));
    config.queue_capacity = requests.size();
    serve::Engine engine(catalog.case_base, config);
    cbr::RetrievalOptions options;
    options.n_best = 4;
    for (auto _ : state) {
        std::vector<std::future<cbr::RetrievalResult>> futures;
        futures.reserve(requests.size());
        for (const cbr::Request& request : requests) {
            serve::AdmissionResult result = engine.try_submit(request, options, {});
            if (result.admitted()) {
                futures.push_back(std::move(result.future));
            }
        }
        for (std::future<cbr::RetrievalResult>& future : futures) {
            benchmark::DoNotOptimize(future.get());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(bm_try_submit_drain)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = benchjson::strip_json_flag(argc, argv);
    // --only-skew: just the skew/stealing table (CI's skewed-overload smoke
    // leg archives its JSON as BENCH_slo_skew.json without re-running the
    // other tables).  Stripped before Google Benchmark sees the args.
    bool only_skew = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--only-skew") {
            only_skew = true;
            for (int j = i; j + 1 < argc; ++j) {
                argv[j] = argv[j + 1];
            }
            --argc;
            break;
        }
    }

    if (!only_skew) {
        print_underload();
        print_overload();
    }
    print_skew();
    if (!only_skew) {
        print_admission_overhead();
    }
    if (!json_path.empty()) {
        benchjson::write("bench_serve_slo", json_path);
    }
    if (only_skew) {
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
