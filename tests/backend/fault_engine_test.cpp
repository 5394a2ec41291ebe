// Fault tolerance end to end: the serve engine's recovery ladder (retry ->
// failover -> circuit breaker -> probe) driven by deterministic injected
// faults.  The headline invariant: ANY fault schedule over an exact inner
// backend yields results bit-identical to the all-cpu-simd reference — a
// caller cannot tell a chaotic run from a healthy one by its bits, only the
// EngineStats counters know.  CI replays the suite under QFA_CHAOS_SEED
// 1/2/3 (and under TSan/ASan), so the schedules below parameterize on it.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_injection.hpp"
#include "core/retrieval.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using backend::BackendErrorKind;
using backend::FaultSchedule;
using serve::AdmissionPolicy;
using serve::AdmissionResult;
using serve::DeadlineExceeded;
using serve::Engine;
using serve::EngineConfig;
using serve::EngineStats;
using serve::JobClass;
using serve::LoadShed;
using serve::TenantId;

/// The chaos seed CI sweeps (QFA_CHAOS_SEED=1/2/3); default 1 locally.
std::uint64_t chaos_seed() {
    const char* env = std::getenv("QFA_CHAOS_SEED");
    return env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1u;
}

/// Registers a fault wrapper in the PROCESS registry (the engine resolves
/// placement by name there) under a test-unique name.  Registering twice
/// would throw, so each test owns one name.
std::string register_wrapper(std::string_view inner, const FaultSchedule& schedule,
                             std::string name) {
    return backend::register_fault_injected(backend::registry(), inner, schedule,
                                            std::move(name));
}

struct Scenario {
    cbr::CaseBase cb;
    cbr::BoundsTable bounds;
    std::vector<wl::GeneratedRequest> generated;
    std::vector<cbr::Request> requests;
};

Scenario make_scenario(std::size_t request_count, std::uint64_t seed = 0xE26B4CE) {
    util::Rng rng(seed);
    wl::CatalogConfig config;
    config.function_types = 8;
    config.impls_per_type = 6;
    config.attrs_per_impl = 5;
    config.attr_dropout = 0.1;
    wl::GeneratedCatalog generated = wl::generate_catalog_with_bounds(config, rng);
    Scenario scenario{std::move(generated.case_base), std::move(generated.bounds), {}, {}};
    scenario.generated =
        wl::generate_request_batch(scenario.cb, scenario.bounds, request_count, rng);
    for (const wl::GeneratedRequest& gen : scenario.generated) {
        scenario.requests.push_back(gen.request);
    }
    return scenario;
}

/// The headline invariant.  A chaotic engine (transient faults, stuck
/// tickets, retries, failovers — all against a fault-wrapped cpu-simd) must
/// return exactly the bits of the healthy all-cpu-simd engine: the wrapper's
/// inner backend is exact and the failover target is exact, so every rung of
/// the recovery ladder produces the reference result.
TEST(FaultEngine, AnyFaultScheduleIsBitIdenticalToTheHealthyReference) {
    const std::uint64_t seed = chaos_seed();
    const Scenario scenario = make_scenario(192);
    FaultSchedule schedule;
    schedule.seed = seed;
    schedule.fail_probability = 0.25;
    schedule.fail_every = 7;
    schedule.stuck_every = 5;
    schedule.stuck_polls = 3;
    const std::string chaotic = register_wrapper(
        "cpu-simd", schedule, "cpu-simd+chaos-bitident-" + std::to_string(seed));

    EngineConfig healthy_config;
    healthy_config.shard_count = 4;
    Engine healthy(scenario.cb, healthy_config);
    const std::vector<cbr::RetrievalResult> reference =
        healthy.retrieve_all(scenario.requests);

    EngineConfig chaos_config;
    chaos_config.shard_count = 4;
    chaos_config.backend = chaotic;
    chaos_config.fault.max_retries = 1;
    chaos_config.fault.backoff_base = {};
    chaos_config.fault.breaker_threshold = 4;
    chaos_config.fault.breaker_cooldown = 8;
    Engine engine(scenario.cb, chaos_config);
    const std::vector<cbr::RetrievalResult> served = engine.retrieve_all(scenario.requests);

    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_TRUE(cbr::identical_results(reference[i], served[i])) << "request " << i;
    }
    // The chaos was real — and every recovery is accounted for: each
    // request was served by the wrapper or failed over, never dropped.
    const EngineStats stats = engine.stats();
    const EngineStats::BackendStats& slice = stats.backends.at(chaotic);
    EXPECT_GT(slice.failovers + slice.retries, 0u) << "schedule injected nothing";
    EXPECT_EQ(slice.served + slice.failovers, scenario.requests.size());
    EXPECT_EQ(stats.served, stats.submitted);
}

/// The full breaker lifecycle with pinned arithmetic: 3 warm-up failures
/// open it (threshold 3), 4 cooldown requests ride the fallback, the 8th
/// request probes half-open against a now-healthy backend and closes it.
/// Every transition is visible in EngineStats.
TEST(FaultEngine, BreakerOpensCoolsProbesAndCloses) {
    const Scenario scenario = make_scenario(16);
    FaultSchedule schedule;
    schedule.fail_first = 3;  // calls 1..3 fail, everything after succeeds
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+breaker");

    EngineConfig config;
    config.shard_count = 1;  // one worker: sequential ordinals, exact counts
    config.backend = name;
    config.fault.max_retries = 0;  // every failure books one breaker strike
    config.fault.backoff_base = {};
    config.fault.breaker_threshold = 3;
    config.fault.breaker_cooldown = 4;
    Engine engine(scenario.cb, config);

    const cbr::Retriever reference(scenario.cb, scenario.bounds);
    for (std::size_t i = 0; i < 12; ++i) {
        const cbr::Request& request = scenario.requests[i % scenario.requests.size()];
        const cbr::RetrievalResult result = engine.submit(request).get();
        EXPECT_TRUE(cbr::identical_results(reference.retrieve(request), result))
            << "request " << i;
    }
    const EngineStats stats = engine.stats();
    const EngineStats::BackendStats& slice = stats.backends.at(name);
    // Requests 1-3 fail and fail over (strikes 1-3 open the breaker);
    // requests 4-7 burn the cooldown on the fallback; request 8 probes and
    // closes; requests 8-12 are served by the recovered backend.
    EXPECT_EQ(slice.failovers, 7u);
    EXPECT_EQ(slice.breaker_opens, 1u);
    EXPECT_EQ(slice.probes, 1u);
    EXPECT_EQ(slice.breaker_closes, 1u);
    EXPECT_EQ(slice.served, 5u);
    EXPECT_EQ(slice.retries, 0u);
    EXPECT_EQ(stats.backends.at("cpu-simd").served, 7u);
}

/// A failed probe must reopen a FULL cooldown (no thrashing half-open):
/// with 4 warm-up failures the first probe (call 4) still fails, the
/// breaker reopens, and only the second probe closes it.
TEST(FaultEngine, FailedProbeReopensFullCooldown) {
    const Scenario scenario = make_scenario(16);
    FaultSchedule schedule;
    schedule.fail_first = 4;
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+reopen");

    EngineConfig config;
    config.shard_count = 1;
    config.backend = name;
    config.fault.max_retries = 0;
    config.fault.backoff_base = {};
    config.fault.breaker_threshold = 3;
    config.fault.breaker_cooldown = 4;
    Engine engine(scenario.cb, config);

    for (std::size_t i = 0; i < 16; ++i) {
        (void)engine.submit(scenario.requests[i % scenario.requests.size()]).get();
    }
    const EngineStats stats = engine.stats();
    const EngineStats::BackendStats& slice = stats.backends.at(name);
    // 3 strikes open; 4 cooldown; probe at request 8 fails (call 4) and
    // reopens; 4 more cooldown; probe at request 13 succeeds and closes;
    // requests 13-16 served.
    EXPECT_EQ(slice.breaker_opens, 2u);
    EXPECT_EQ(slice.probes, 2u);
    EXPECT_EQ(slice.breaker_closes, 1u);
    EXPECT_EQ(slice.failovers, 12u);
    EXPECT_EQ(slice.served, 4u);
}

/// Transient failures are retried against the SAME backend and succeed
/// without failing over — the retry rung of the ladder, isolated.
TEST(FaultEngine, TransientFaultsAreRetriedNotFailedOver) {
    const Scenario scenario = make_scenario(8);
    FaultSchedule schedule;
    schedule.fail_every = 2;  // every even call fails; its retry (odd) succeeds
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+transient");

    EngineConfig config;
    config.shard_count = 1;
    config.backend = name;
    config.fault.max_retries = 2;
    config.fault.backoff_base = {};
    config.fault.breaker_threshold = 3;  // never reached: failures don't streak
    Engine engine(scenario.cb, config);

    const cbr::Retriever reference(scenario.cb, scenario.bounds);
    for (const cbr::Request& request : scenario.requests) {
        EXPECT_TRUE(cbr::identical_results(reference.retrieve(request),
                                           engine.submit(request).get()));
    }
    const EngineStats stats = engine.stats();
    const EngineStats::BackendStats& slice = stats.backends.at(name);
    // Call 1 serves request 1; every later request burns a failing even
    // call plus its succeeding odd retry: 7 retries, zero failovers.
    EXPECT_EQ(slice.served, scenario.requests.size());
    EXPECT_EQ(slice.retries, scenario.requests.size() - 1);
    EXPECT_EQ(slice.failovers, 0u);
    EXPECT_EQ(slice.breaker_opens, 0u);
}

/// Permanent failures skip the retry budget entirely: one attempt, straight
/// to the exact fallback.
TEST(FaultEngine, PermanentFaultsFailOverWithoutRetry) {
    const Scenario scenario = make_scenario(8);
    FaultSchedule schedule;
    schedule.fail_every = 1;  // every call fails
    schedule.kind = BackendErrorKind::permanent;
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+permanent");

    EngineConfig config;
    config.shard_count = 1;
    config.backend = name;
    config.fault.max_retries = 3;       // available but must not be spent
    config.fault.backoff_base = {};
    config.fault.breaker_threshold = 0;  // isolate the retry policy
    Engine engine(scenario.cb, config);

    const cbr::Retriever reference(scenario.cb, scenario.bounds);
    for (const cbr::Request& request : scenario.requests) {
        EXPECT_TRUE(cbr::identical_results(reference.retrieve(request),
                                           engine.submit(request).get()));
    }
    const EngineStats::BackendStats slice = engine.stats().backends.at(name);
    EXPECT_EQ(slice.retries, 0u);
    EXPECT_EQ(slice.failovers, scenario.requests.size());
    EXPECT_EQ(slice.served, 0u);
}

/// A ticket that never completes becomes a typed timeout once the poll
/// budget runs dry; timeouts are retryable, and exhaustion fails over — the
/// request resolves exactly, never hangs.
TEST(FaultEngine, StuckTicketTimesOutThenFailsOver) {
    const Scenario scenario = make_scenario(6);
    FaultSchedule schedule;
    schedule.stuck_every = 1;
    schedule.stuck_polls = static_cast<std::size_t>(-1);  // forever
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+wedged");

    EngineConfig config;
    config.shard_count = 1;
    config.backend = name;
    config.fault.max_retries = 1;
    config.fault.backoff_base = {};
    config.fault.breaker_threshold = 0;
    config.fault.poll_budget = 64;  // tiny: the timeout rung, fast
    Engine engine(scenario.cb, config);

    const cbr::Retriever reference(scenario.cb, scenario.bounds);
    for (const cbr::Request& request : scenario.requests) {
        EXPECT_TRUE(cbr::identical_results(reference.retrieve(request),
                                           engine.submit(request).get()));
    }
    const EngineStats::BackendStats slice = engine.stats().backends.at(name);
    EXPECT_EQ(slice.retries, scenario.requests.size());     // timeout retried once
    EXPECT_EQ(slice.failovers, scenario.requests.size());   // then failed over
    EXPECT_EQ(slice.served, 0u);
}

/// Injected bit flips on the mblaze CB-MEM images are detected by the
/// checksum verify, counted as integrity rebuilds, and retried from a fresh
/// image — outcomes stay identical to the fault-free mblaze engine (the
/// modeled datapath is deterministic and corrupted images are never served).
TEST(FaultEngine, IntegrityFlipsForceRebuildsAndExactRecovery) {
    const Scenario scenario = make_scenario(96);
    FaultSchedule schedule;
    schedule.seed = chaos_seed();
    schedule.corrupt_every = 3;
    const std::string name = register_wrapper("mblaze", schedule, "mblaze+bitflips");

    EngineConfig healthy_config;
    healthy_config.shard_count = 2;
    healthy_config.backend = "mblaze";
    Engine healthy(scenario.cb, healthy_config);
    const std::vector<cbr::RetrievalResult> reference =
        healthy.retrieve_all(scenario.requests);

    EngineConfig config;
    config.shard_count = 2;
    config.backend = name;
    config.fault.max_retries = 1;  // one rebuild per detection is enough
    config.fault.backoff_base = {};
    Engine engine(scenario.cb, config);
    const std::vector<cbr::RetrievalResult> served = engine.retrieve_all(scenario.requests);

    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_TRUE(cbr::identical_results(reference[i], served[i])) << "request " << i;
    }
    const EngineStats::BackendStats slice = engine.stats().backends.at(name);
    EXPECT_GT(slice.integrity_rebuilds, 0u) << "no corruption was ever detected";
    EXPECT_EQ(slice.retries, slice.integrity_rebuilds);
    EXPECT_EQ(slice.failovers, 0u);
}

/// The satellite: a ticket stuck forever with an UNBOUNDED poll budget is
/// interruptible only by shutdown — which must resolve the in-flight future
/// with the shutdown error, never leave the caller hanging.
TEST(FaultEngine, ShutdownResolvesAForeverStuckTicket) {
    const Scenario scenario = make_scenario(1);
    FaultSchedule schedule;
    schedule.stuck_every = 1;
    schedule.stuck_polls = static_cast<std::size_t>(-1);
    const std::string name = register_wrapper("cpu-simd", schedule, "cpu-simd+hung");

    EngineConfig config;
    config.shard_count = 1;
    config.backend = name;
    config.fault.max_retries = 0;
    config.fault.breaker_threshold = 0;
    config.fault.poll_budget = 0;  // unbounded: only shutdown can interrupt
    Engine engine(scenario.cb, config);

    std::future<cbr::RetrievalResult> future = engine.submit(scenario.requests[0]);
    // Let the worker reach the poll loop, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.shutdown();
    try {
        (void)future.get();
        FAIL() << "a forever-stuck ticket must resolve with the shutdown error";
    } catch (const std::runtime_error& err) {
        EXPECT_NE(std::string(err.what()).find("shut down"), std::string::npos)
            << err.what();
    }
}

/// Chaos x everything: the overload pipeline (tiny FIFO queues, stealing,
/// shed_lowest, tight deadlines), concurrent retain publishes, AND a
/// fault-injecting backend with retries and a live breaker — under TSan this
/// exercises breaker-mutex vs thief crossfire and retry vs shed.  The
/// outcome-identity ledger must keep balancing from both sides.
TEST(FaultEngine, ChaosStressKeepsOutcomeIdentityUnderFaults) {
    util::Rng rng(0xFA017 + chaos_seed());
    wl::CatalogConfig config;
    config.function_types = 8;
    config.impls_per_type = 5;
    config.attrs_per_impl = 6;
    config.attr_dropout = 0.25;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);

    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kPerProducer = 160;
    const std::vector<std::vector<wl::GeneratedRequest>> streams =
        wl::generate_request_streams(catalog.case_base, catalog.bounds, kProducers,
                                     kPerProducer, rng);

    FaultSchedule schedule;
    schedule.seed = chaos_seed();
    schedule.fail_probability = 0.2;
    schedule.fail_every = 9;
    const std::string name =
        register_wrapper("cpu-simd", schedule,
                         "cpu-simd+chaos-stress-" + std::to_string(chaos_seed()));

    EngineConfig engine_config;
    engine_config.shard_count = 4;
    engine_config.queue_capacity = 8;
    engine_config.steal.enabled = true;
    engine_config.steal.min_victim_depth = 1;
    engine_config.admission.policy = AdmissionPolicy::shed_lowest;
    engine_config.backend = name;
    engine_config.fault.max_retries = 1;
    engine_config.fault.backoff_base = {};
    engine_config.fault.breaker_threshold = 5;
    engine_config.fault.breaker_cooldown = 16;
    Engine engine(catalog.case_base, engine_config);

    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<bool> stop_polling{false};

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            cbr::RetrievalOptions options;
            options.n_best = 2;
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                JobClass cls;
                cls.tenant = static_cast<TenantId>(p);
                cls.priority = static_cast<std::uint8_t>(1 + (i % 3) * 5);
                if (i % 3 == 0) {
                    cls.deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(2);
                }
                AdmissionResult result =
                    engine.try_submit(streams[p][i].request, options, cls);
                if (!result.admitted()) {
                    rejected.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                try {
                    (void)result.future.get();
                    served.fetch_add(1, std::memory_order_relaxed);
                } catch (const DeadlineExceeded&) {
                    expired.fetch_add(1, std::memory_order_relaxed);
                } catch (const LoadShed&) {
                    shed.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    threads.emplace_back([&] {
        util::Rng writer_rng(0x5EDC0FFEEULL);
        std::uint16_t next_id = 9000;
        std::size_t published = 0;
        while (published < 8) {
            const cbr::TypeId type = wl::random_type(catalog.case_base, writer_rng);
            cbr::Implementation impl;
            impl.id = cbr::ImplId{next_id++};
            impl.target = cbr::Target::dsp;
            impl.attributes.push_back(
                {cbr::AttrId{static_cast<std::uint16_t>(1 + writer_rng.index(8))},
                 static_cast<cbr::AttrValue>(writer_rng.index(400))});
            published += engine.retain(type, std::move(impl)) ==
                                 cbr::RetainVerdict::retained
                             ? 1
                             : 0;
        }
    });
    threads.emplace_back([&] {
        while (!stop_polling.load(std::memory_order_acquire)) {
            const EngineStats stats = engine.stats();
            ASSERT_LE(stats.stolen, stats.served);
            ASSERT_LE(stats.served, stats.submitted);
        }
    });

    for (std::size_t t = 0; t + 1 < threads.size(); ++t) {
        threads[t].join();
    }
    stop_polling.store(true, std::memory_order_release);
    threads.back().join();

    // Caller-side outcome identity: every request landed in exactly one
    // class — faults, retries and failovers included.
    EXPECT_EQ(served.load() + rejected.load() + expired.load() + shed.load(),
              kProducers * kPerProducer);
    // Engine-side ledger agrees, and the fault machinery is accounted:
    // everything the engine served was scored by the wrapper or by the
    // fallback after a counted failover.
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.served, served.load());
    EXPECT_EQ(stats.served + stats.expired + stats.shed, stats.submitted);
    EXPECT_EQ(stats.rejected, rejected.load());
    const EngineStats::BackendStats& slice = stats.backends.at(name);
    EXPECT_EQ(slice.served + slice.failovers, stats.served);
}

}  // namespace
