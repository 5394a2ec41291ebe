// Admission control, deadline expiry and load shedding on the serve
// engine: try_submit never blocks and refuses with typed reasons,
// submit_until waits bounded, deadlines expire loudly (DeadlineExceeded)
// and never silently, the shedder evicts strictly-lower-priority work with
// per-tenant debt fairness, and a try_submit racing shutdown always
// resolves or cleanly rejects — never hangs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "alloc/manager.hpp"
#include "core/retrieval.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using namespace qfa::serve;
using namespace std::chrono_literals;
using steady = std::chrono::steady_clock;

struct Workload {
    wl::GeneratedCatalog catalog;
    std::vector<cbr::Request> requests;
};

Workload make_workload(std::size_t count, std::uint64_t seed) {
    util::Rng rng(seed);
    wl::CatalogConfig config;
    config.function_types = 8;
    config.impls_per_type = 5;
    config.attrs_per_impl = 6;
    Workload w{wl::generate_catalog_with_bounds(config, rng), {}};
    for (wl::GeneratedRequest& g :
         wl::generate_request_batch(w.catalog.case_base, w.catalog.bounds, count, rng)) {
        w.requests.push_back(std::move(g.request));
    }
    return w;
}

/// Parks a shard's worker until release() — the backlog-builder for every
/// admission test: with the worker busy, queued jobs stay queued.
class WorkerGate {
public:
    explicit WorkerGate(Engine& engine, std::size_t shard) {
        std::promise<void> started;
        std::future<void> running = started.get_future();
        done_ = engine.execute(shard, [this, &started] {
            started.set_value();
            gate_.get_future().wait();
        });
        // Only return once the worker is actually parked inside the gate,
        // so every job a test queues afterwards really stays queued.
        running.wait();
    }
    void release() {
        gate_.set_value();
        done_.get();
    }

private:
    std::promise<void> gate_;
    std::future<void> done_;
};

TEST(AdmissionTest, TrySubmitServesBitIdenticalToReference) {
    const Workload w = make_workload(48, 0xAD01);
    Engine engine(w.catalog.case_base, EngineConfig{2, 64});
    const cbr::Retriever reference(w.catalog.case_base, w.catalog.bounds);
    cbr::RetrievalOptions options;
    options.n_best = 3;

    std::vector<std::future<cbr::RetrievalResult>> futures;
    for (const cbr::Request& request : w.requests) {
        JobClass cls;
        cls.tenant = 7;
        AdmissionResult result = engine.try_submit(request, options, cls);
        ASSERT_EQ(result.status, AdmissionStatus::admitted);
        ASSERT_TRUE(result.future.valid());
        futures.push_back(std::move(result.future));
    }
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
        EXPECT_TRUE(cbr::identical_results(reference.retrieve(w.requests[i], options),
                                           futures[i].get()));
    }

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.admitted, w.requests.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.shed, 0u);
    ASSERT_EQ(stats.tenants.count(7), 1u);
    EXPECT_EQ(stats.tenants.at(7).admitted, w.requests.size());
    EXPECT_EQ(stats.tenants.at(7).served, w.requests.size());
}

TEST(AdmissionTest, PastDeadlineIsRefusedAtAdmission) {
    const Workload w = make_workload(1, 0xAD02);
    Engine engine(w.catalog.case_base, EngineConfig{1, 8});

    JobClass cls;
    cls.tenant = 3;
    cls.deadline = steady::now() - 1ms;
    AdmissionResult past = engine.try_submit(w.requests[0], {}, cls);
    EXPECT_EQ(past.status, AdmissionStatus::deadline_infeasible);
    EXPECT_FALSE(past.future.valid());  // refusals carry no future

    // A zero-relative (already-due) deadline is equally infeasible.
    cls.deadline = steady::now();
    // now() has advanced past the stored instant by the time try_submit
    // re-reads the clock, so this is deterministic.
    AdmissionResult due = engine.try_submit(w.requests[0], {}, cls);
    EXPECT_EQ(due.status, AdmissionStatus::deadline_infeasible);

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.submitted, 0u);  // never entered a queue
    EXPECT_EQ(stats.tenants.at(3).rejected, 2u);
}

TEST(AdmissionTest, FullBacklogRejectsInsteadOfBlocking) {
    const Workload w = make_workload(4, 0xAD03);
    Engine engine(w.catalog.case_base, EngineConfig{1, 2});
    WorkerGate gate(engine, 0);

    // Capacity 2: two jobs queue up behind the gated worker...
    AdmissionResult first = engine.try_submit(w.requests[0]);
    AdmissionResult second = engine.try_submit(w.requests[1]);
    ASSERT_TRUE(first.admitted());
    ASSERT_TRUE(second.admitted());
    // ...and the third is refused immediately — no blocking, default
    // policy rejects the newcomer.
    const steady::time_point before = steady::now();
    AdmissionResult third = engine.try_submit(w.requests[2]);
    EXPECT_EQ(third.status, AdmissionStatus::queue_full);
    EXPECT_LT(steady::now() - before, 1s);

    gate.release();
    (void)first.future.get();
    (void)second.future.get();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
}

TEST(AdmissionTest, MaxQueueDepthTightensTheBound) {
    const Workload w = make_workload(2, 0xAD04);
    EngineConfig config{1, 64};
    config.admission.max_queue_depth = 1;
    Engine engine(w.catalog.case_base, config);
    WorkerGate gate(engine, 0);

    AdmissionResult first = engine.try_submit(w.requests[0]);
    ASSERT_TRUE(first.admitted());
    // Queue depth 1 >= max_queue_depth: refused long before capacity 64.
    AdmissionResult second = engine.try_submit(w.requests[1]);
    EXPECT_EQ(second.status, AdmissionStatus::queue_full);

    gate.release();
    (void)first.future.get();
}

TEST(AdmissionTest, MaxInflightBoundsAdmittedWork) {
    const Workload w = make_workload(2, 0xAD05);
    EngineConfig config{1, 64};
    config.admission.max_inflight = 1;
    Engine engine(w.catalog.case_base, config);
    WorkerGate gate(engine, 0);

    AdmissionResult first = engine.try_submit(w.requests[0]);
    ASSERT_TRUE(first.admitted());
    AdmissionResult second = engine.try_submit(w.requests[1]);
    EXPECT_EQ(second.status, AdmissionStatus::queue_full);

    gate.release();
    (void)first.future.get();
    // The bound releases with the completion (the engine decrements its
    // inflight count just after resolving the future, so wait for it).
    AdmissionResult third = engine.submit_until(w.requests[1], {}, steady::now() + 5s);
    EXPECT_TRUE(third.admitted());
    (void)third.future.get();
}

TEST(AdmissionTest, QueuedDeadlineExpiresLoudlyOnDequeue) {
    const Workload w = make_workload(1, 0xAD06);
    Engine engine(w.catalog.case_base, EngineConfig{1, 8});
    WorkerGate gate(engine, 0);

    steady::time_point completed{};
    JobClass cls;
    cls.tenant = 9;
    cls.deadline = steady::now() + 5ms;
    cls.completed_at = &completed;
    AdmissionResult result = engine.try_submit(w.requests[0], {}, cls);
    ASSERT_TRUE(result.admitted());

    std::this_thread::sleep_for(20ms);  // let the deadline pass while queued
    gate.release();
    EXPECT_THROW((void)result.future.get(), DeadlineExceeded);
    EXPECT_NE(completed, steady::time_point{});  // stamped even on expiry

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.tenants.at(9).expired, 1u);
    // The expired job is not served; the gate's execute closure is.
    EXPECT_EQ(stats.served, 1u);
}

TEST(AdmissionTest, ShedLowestEvictsByPriorityThenSpreadsByDebt) {
    const Workload w = make_workload(8, 0xAD07);
    EngineConfig config{1, 3};
    config.admission.policy = AdmissionPolicy::shed_lowest;
    Engine engine(w.catalog.case_base, config);
    WorkerGate gate(engine, 0);

    // Backlog: two priority-5 jobs from different tenants and one
    // priority-8 job, filling capacity 3.
    const auto classed = [](TenantId tenant, std::uint8_t priority) {
        JobClass cls;
        cls.tenant = tenant;
        cls.priority = priority;
        return cls;
    };
    AdmissionResult low_a = engine.try_submit(w.requests[0], {}, classed(1, 5));
    AdmissionResult low_b = engine.try_submit(w.requests[1], {}, classed(2, 5));
    AdmissionResult mid = engine.try_submit(w.requests[2], {}, classed(1, 8));
    ASSERT_TRUE(low_a.admitted() && low_b.admitted() && mid.admitted());

    // A priority-20 arrival at the full queue sheds the LOWEST priority
    // first — one of the 5s, never the 8 — and on equal priority the
    // tenant shed least so far loses (both at debt 0: arrival order).
    AdmissionResult high1 = engine.try_submit(w.requests[3], {}, classed(3, 20));
    ASSERT_TRUE(high1.admitted());
    EXPECT_THROW((void)low_a.future.get(), LoadShed);

    // Next high-priority arrival: tenant 1 now carries debt 1, so tenant
    // 2's remaining priority-5 job is the victim — debt spreads eviction.
    AdmissionResult high2 = engine.try_submit(w.requests[4], {}, classed(3, 20));
    ASSERT_TRUE(high2.admitted());
    EXPECT_THROW((void)low_b.future.get(), LoadShed);

    // A THIRD high-priority arrival finds only priority-8 and priority-20
    // work queued... the 8 is still strictly lower than 20, so it sheds.
    AdmissionResult high3 = engine.try_submit(w.requests[5], {}, classed(3, 20));
    ASSERT_TRUE(high3.admitted());
    EXPECT_THROW((void)mid.future.get(), LoadShed);

    // Peers cannot shed peers: a fourth priority-20 arrival at the full
    // all-priority-20 queue is refused, not admitted by churn.
    AdmissionResult high4 = engine.try_submit(w.requests[6], {}, classed(3, 20));
    EXPECT_EQ(high4.status, AdmissionStatus::queue_full);

    gate.release();
    (void)high1.future.get();
    (void)high2.future.get();
    (void)high3.future.get();

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.shed, 3u);
    EXPECT_EQ(stats.tenants.at(1).shed, 2u);  // priority 5 + priority 8
    EXPECT_EQ(stats.tenants.at(2).shed, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    // Outcome identity: everything admitted is served, expired or shed.
    EXPECT_EQ(stats.admitted, 6u);
    EXPECT_EQ(stats.shed + 3u /*high1-3 served*/, stats.admitted);
}

TEST(AdmissionTest, SubmitUntilWaitsForASlotThenAdmits) {
    const Workload w = make_workload(2, 0xAD08);
    Engine engine(w.catalog.case_base, EngineConfig{1, 1});
    auto gate = std::make_unique<WorkerGate>(engine, 0);
    AdmissionResult first = engine.try_submit(w.requests[0]);
    ASSERT_TRUE(first.admitted());

    std::thread releaser([&] {
        std::this_thread::sleep_for(10ms);
        gate->release();
    });
    // Blocks until the worker drains the queued job, then admits — well
    // within the 5 s patience.
    AdmissionResult waited =
        engine.submit_until(w.requests[1], {}, steady::now() + 5s);
    EXPECT_TRUE(waited.admitted());
    releaser.join();
    (void)first.future.get();
    (void)waited.future.get();
    EXPECT_EQ(engine.stats().rejected, 0u);
}

TEST(AdmissionTest, SubmitUntilTimesOutToQueueFullCountedOnce) {
    const Workload w = make_workload(2, 0xAD09);
    Engine engine(w.catalog.case_base, EngineConfig{1, 1});
    WorkerGate gate(engine, 0);
    AdmissionResult first = engine.try_submit(w.requests[0]);
    ASSERT_TRUE(first.admitted());

    AdmissionResult timed =
        engine.submit_until(w.requests[1], {}, steady::now() + 20ms);
    EXPECT_EQ(timed.status, AdmissionStatus::queue_full);
    // However many internal retries the wait took, ONE rejection.
    EXPECT_EQ(engine.stats().rejected, 1u);

    gate.release();
    (void)first.future.get();
}

TEST(AdmissionTest, ClassedSubmitBatchPropagatesDeadlines) {
    const Workload w = make_workload(3, 0xAD11);
    Engine engine(w.catalog.case_base, EngineConfig{2, 16});

    std::vector<JobClass> classes(3);
    classes[1].deadline = steady::now() - 1ms;  // infeasible before submission
    cbr::RetrievalOptions options;
    std::vector<std::future<cbr::RetrievalResult>> futures = engine.submit_batch(
        w.requests, std::span<const cbr::RetrievalOptions>(&options, 1), classes);
    ASSERT_EQ(futures.size(), 3u);
    EXPECT_NO_THROW((void)futures[0].get());
    EXPECT_THROW((void)futures[1].get(), DeadlineExceeded);
    EXPECT_NO_THROW((void)futures[2].get());

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected, 1u);   // the infeasible one never queued
    EXPECT_EQ(stats.submitted, 2u);  // only the feasible two entered queues
}

TEST(AdmissionTest, AllocateBatchSurfacesTypedOverloadRejections) {
    const Workload w = make_workload(4, 0xAD12);
    Engine engine(w.catalog.case_base, EngineConfig{2, 16});
    sys::Platform platform;
    platform.repository().import_case_base(w.catalog.case_base);
    alloc::AllocationManager manager(platform, w.catalog.case_base, w.catalog.bounds);
    manager.rebind(engine.current());

    std::vector<alloc::AllocRequest> requests;
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
        requests.push_back(alloc::AllocRequest{0, w.requests[i], 10, 0.1, 4, true,
                                               static_cast<TenantId>(i % 2),
                                               /*deadline=*/{}});
    }
    // Request 2's retrieval can never meet an already-passed deadline: the
    // typed reason must survive the batch pipeline, not collapse into
    // retrieval_failed.
    requests[2].deadline = steady::now() - 1ms;

    const std::vector<alloc::AllocationOutcome> outcomes =
        manager.allocate_batch(requests, engine);
    ASSERT_EQ(outcomes.size(), 4u);
    // The overload reasons are reserved for the deadline'd request; the
    // others decide normally (granted or resource-rejected, never these).
    for (const std::size_t i : {0u, 1u, 3u}) {
        if (outcomes[i].reject.has_value()) {
            EXPECT_NE(*outcomes[i].reject, alloc::RejectReason::deadline_exceeded) << i;
            EXPECT_NE(*outcomes[i].reject, alloc::RejectReason::load_shed) << i;
        }
    }
    ASSERT_EQ(outcomes[2].kind, alloc::AllocationOutcome::Kind::rejected);
    EXPECT_EQ(outcomes[2].reject, alloc::RejectReason::deadline_exceeded);
    EXPECT_STREQ(alloc::reject_reason_name(*outcomes[2].reject), "deadline-exceeded");
}

TEST(AdmissionTest, TrySubmitRacingShutdownResolvesOrCleanlyRejects) {
    // The satellite hardening test: a producer hammering try_submit while
    // the engine shuts down must end with every admitted future RESOLVED
    // (value or error) and every refusal typed — never a hang, never a
    // broken promise.  shutdown() drains accepted jobs, so admitted futures
    // resolve with values; the race window is admission vs queue close.
    // (The destructor itself is not raced — calling into a destroyed engine
    // is UB like any other object; the destructor just runs shutdown().)
    const Workload w = make_workload(4, 0xAD13);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::future<cbr::RetrievalResult>> admitted;
        std::atomic<bool> saw_shutdown{false};
        Engine engine(w.catalog.case_base, EngineConfig{2, 8});
        std::thread producer([&] {
            for (int i = 0; i < 400 && !saw_shutdown.load(); ++i) {
                AdmissionResult result =
                    engine.try_submit(w.requests[static_cast<std::size_t>(i) % 4]);
                if (result.admitted()) {
                    admitted.push_back(std::move(result.future));
                } else if (result.status == AdmissionStatus::shutting_down) {
                    EXPECT_FALSE(result.future.valid());
                    saw_shutdown.store(true);
                } else {
                    EXPECT_EQ(result.status, AdmissionStatus::queue_full);
                }
            }
        });
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
        engine.shutdown();  // races the producer's admissions
        producer.join();
        for (std::future<cbr::RetrievalResult>& future : admitted) {
            ASSERT_EQ(future.wait_for(5s), std::future_status::ready)
                << "admitted future left unresolved after shutdown";
            EXPECT_NO_THROW((void)future.get());  // drained, not dropped
        }
    }
}

}  // namespace
