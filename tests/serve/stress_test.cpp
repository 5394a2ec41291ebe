// Concurrent retain-vs-retrieve stress: reader threads hammer the engine
// with request streams while a writer thread retains new variants,
// publishing a patched epoch each time.  Every served result must be
// bit-identical to the single-threaded reference at *some* published epoch
// — the torn-column detector: a reader observing a half-swapped plan
// (old columns, new rows; stale divisors; resized-but-unfilled arrays)
// produces a result no consistent epoch can produce.  Each published
// epoch's incrementally patched plans are additionally checked
// bit-identical to a from-scratch compile.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "core/retrieval.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace {

using namespace qfa;
using namespace qfa::serve;

TEST(ServeStressTest, EveryRetrievalObservesAConsistentEpoch) {
    util::Rng rng(0x57A85EEDULL);
    wl::CatalogConfig config;
    config.function_types = 8;
    config.impls_per_type = 6;
    config.attrs_per_impl = 7;
    config.attr_dropout = 0.25;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);

    constexpr std::size_t kReaders = 3;
    constexpr std::size_t kPerReader = 160;
    constexpr std::size_t kRetains = 24;

    // Deterministic per-reader request streams, independent of scheduling.
    const std::vector<std::vector<wl::GeneratedRequest>> streams =
        wl::generate_request_streams(catalog.case_base, catalog.bounds, kReaders,
                                     kPerReader, rng);

    EngineConfig engine_config;
    engine_config.shard_count = 4;
    engine_config.queue_capacity = 64;
    Engine engine(catalog.case_base, engine_config);

    // The writer keeps every published generation alive so results can be
    // replayed against each epoch afterwards.
    std::vector<GenerationPtr> generations;
    generations.push_back(engine.current());

    cbr::RetrievalOptions options;
    options.n_best = 3;

    std::vector<std::vector<cbr::RetrievalResult>> observed(kReaders);
    std::atomic<bool> writer_done{false};
    // Readers start only after the writer's first publish: every request
    // is then served at epoch >= 1, which makes the cross-epoch assertion
    // below deterministic (generation contents are seed-fixed; only the
    // reader/writer interleaving varies with scheduling).
    std::latch first_publish(1);

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            first_publish.wait();
            observed[r].reserve(kPerReader);
            for (const wl::GeneratedRequest& g : streams[r]) {
                observed[r].push_back(engine.submit(g.request, options).get());
            }
        });
    }

    std::thread writer([&] {
        util::Rng writer_rng(0xD00DULL);
        std::uint16_t next_id = 5000;
        std::size_t published = 0;
        while (published < kRetains) {
            const cbr::TypeId type =
                wl::random_type(catalog.case_base, writer_rng);
            cbr::Implementation impl;
            impl.id = cbr::ImplId{next_id++};
            impl.target = cbr::Target::dsp;
            const std::size_t n_attrs = 1 + writer_rng.index(5);
            for (std::size_t a = 0; a < n_attrs; ++a) {
                const cbr::AttrId id{static_cast<std::uint16_t>(1 + writer_rng.index(10))};
                bool duplicate = false;
                for (const cbr::Attribute& existing : impl.attributes) {
                    duplicate = duplicate || existing.id == id;
                }
                if (!duplicate) {
                    impl.attributes.push_back(
                        {id, static_cast<cbr::AttrValue>(writer_rng.index(500))});
                }
            }
            if (engine.retain(type, std::move(impl)) == cbr::RetainVerdict::retained) {
                generations.push_back(engine.current());
                ++published;
                if (published == 1) {
                    first_publish.count_down();  // release the readers
                }
            }
        }
        writer_done.store(true, std::memory_order_release);
    });

    for (std::thread& reader : readers) {
        reader.join();
    }
    writer.join();
    ASSERT_TRUE(writer_done.load());
    ASSERT_EQ(generations.size(), kRetains + 1);

    // 1. No torn columns: every observed result is exactly what the
    //    single-threaded reference produces on one of the published epochs.
    std::size_t beyond_first_epoch = 0;
    for (std::size_t r = 0; r < kReaders; ++r) {
        for (std::size_t i = 0; i < streams[r].size(); ++i) {
            bool matched = false;
            std::size_t matched_epoch = 0;
            for (std::size_t g = 0; g < generations.size() && !matched; ++g) {
                const cbr::Retriever reference(generations[g]->case_base,
                                               generations[g]->bounds,
                                               generations[g]->compiled);
                matched = cbr::identical_results(
                    observed[r][i],
                    reference.retrieve_compiled(streams[r][i].request, options));
                matched_epoch = g;
            }
            ASSERT_TRUE(matched) << "reader " << r << " request " << i
                                 << " matches no published epoch (torn read?)";
            beyond_first_epoch += matched_epoch > 0 ? 1 : 0;
        }
    }
    // The race must actually interleave.  Readers were latch-gated on the
    // first publish, so every request was served at epoch >= 1; as the
    // seed-fixed retains widen bounds and change rankings, at least one
    // result must differ from what epoch 0 would have produced.
    EXPECT_GT(beyond_first_epoch, 0u);

    // 2. Every published epoch's patched plans are bit-identical to a
    //    from-scratch compile of the same tree/bounds.
    for (const GenerationPtr& generation : generations) {
        const cbr::CompiledCaseBase fresh(generation->case_base, generation->bounds);
        const cbr::CompiledStats a = fresh.stats();
        const cbr::CompiledStats b = generation->compiled.stats();
        EXPECT_EQ(a.type_count, b.type_count);
        EXPECT_EQ(a.impl_count, b.impl_count);
        EXPECT_EQ(a.column_count, b.column_count);
        EXPECT_EQ(a.value_slots, b.value_slots);
        EXPECT_EQ(a.sentinel_slots, b.sentinel_slots);
        ASSERT_EQ(fresh.plans().size(), generation->compiled.plans().size());
        for (std::size_t t = 0; t < fresh.plans().size(); ++t) {
            const cbr::TypePlan& x = *fresh.plans()[t];
            const cbr::TypePlan& y = *generation->compiled.plans()[t];
            EXPECT_EQ(x.impl_ids, y.impl_ids);
            EXPECT_EQ(x.attr_ids, y.attr_ids);
            EXPECT_EQ(x.dmax, y.dmax);
            EXPECT_EQ(x.values, y.values);
            EXPECT_EQ(x.present_mask, y.present_mask);
        }
    }
}

TEST(ServeStressTest, ExecuteVsRetainVsSubmitBatchStaysCoherent) {
    // The run-on-shard primitive must coexist with the retrieval batch
    // path and concurrent epoch publication: executor threads fan
    // closures across the shards (each writing its own result slot),
    // batch threads drive submit_batch retrievals, a writer publishes
    // patched epochs via retain, and a poller keeps reading stats() —
    // TSan fodder for the queue variant, the execute completion path and
    // the snapshot ordering.  Coherence pins: every closure ran exactly
    // once, every retrieval resolved, and every stats() snapshot obeys
    // executed <= served <= submitted.
    util::Rng rng(0xE8EC5EEDULL);
    wl::CatalogConfig config;
    config.function_types = 6;
    config.impls_per_type = 5;
    config.attrs_per_impl = 6;
    config.attr_dropout = 0.25;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);

    constexpr std::size_t kExecutors = 2;
    constexpr std::size_t kWavesPerExecutor = 40;
    constexpr std::size_t kBatchThreads = 2;
    constexpr std::size_t kBatchesPerThread = 30;
    constexpr std::size_t kBatchSize = 16;
    constexpr std::size_t kRetains = 12;

    const std::vector<std::vector<wl::GeneratedRequest>> streams =
        wl::generate_request_streams(catalog.case_base, catalog.bounds, kBatchThreads,
                                     kBatchesPerThread * kBatchSize, rng);

    EngineConfig engine_config;
    engine_config.shard_count = 4;
    engine_config.queue_capacity = 32;
    Engine engine(catalog.case_base, engine_config);
    const std::size_t shards = engine.shard_count();

    // One private slot per (executor, wave, shard): a closure that runs
    // twice or races another would trip the exactly-once check or TSan.
    std::vector<std::uint32_t> slots(kExecutors * kWavesPerExecutor * shards, 0);
    std::atomic<bool> stop_polling{false};
    std::atomic<std::uint64_t> snapshots{0};

    std::vector<std::thread> threads;
    for (std::size_t e = 0; e < kExecutors; ++e) {
        threads.emplace_back([&, e] {
            for (std::size_t wave = 0; wave < kWavesPerExecutor; ++wave) {
                std::vector<Engine::ShardTask> tasks;
                tasks.reserve(shards);
                for (std::size_t s = 0; s < shards; ++s) {
                    const std::size_t slot = (e * kWavesPerExecutor + wave) * shards + s;
                    tasks.push_back({s, [&slots, slot] { slots[slot] += 1; }});
                }
                std::vector<std::future<void>> futures = engine.execute_batch(tasks);
                for (std::future<void>& future : futures) {
                    future.get();
                }
            }
        });
    }
    for (std::size_t b = 0; b < kBatchThreads; ++b) {
        threads.emplace_back([&, b] {
            cbr::RetrievalOptions options;
            options.n_best = 2;
            for (std::size_t batch = 0; batch < kBatchesPerThread; ++batch) {
                std::vector<cbr::Request> requests;
                requests.reserve(kBatchSize);
                for (std::size_t i = 0; i < kBatchSize; ++i) {
                    requests.push_back(streams[b][batch * kBatchSize + i].request);
                }
                std::vector<std::future<cbr::RetrievalResult>> futures =
                    engine.submit_batch(requests, options);
                for (std::future<cbr::RetrievalResult>& future : futures) {
                    (void)future.get();  // must resolve (engine never stops mid-test)
                }
            }
        });
    }
    threads.emplace_back([&] {
        util::Rng writer_rng(0xBEEFULL);
        std::uint16_t next_id = 7000;
        std::size_t published = 0;
        while (published < kRetains) {
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
            ASSERT_LE(stats.executed, stats.served);
            ASSERT_LE(stats.served, stats.submitted);
            ASSERT_LE(stats.cow_plans_shared, stats.cow_plans_published);
            snapshots.fetch_add(1, std::memory_order_relaxed);
        }
    });

    for (std::size_t t = 0; t + 1 < threads.size(); ++t) {
        threads[t].join();
    }
    stop_polling.store(true, std::memory_order_release);
    threads.back().join();
    EXPECT_GT(snapshots.load(), 0u);

    for (const std::uint32_t count : slots) {
        ASSERT_EQ(count, 1u);  // every closure ran exactly once
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.executed, kExecutors * kWavesPerExecutor * shards);
    EXPECT_EQ(stats.served,
              stats.executed + kBatchThreads * kBatchesPerThread * kBatchSize);
    EXPECT_EQ(stats.submitted, stats.served);
    EXPECT_EQ(stats.retains, kRetains);
}

TEST(ServeStressTest, StealVsRetainVsShedStaysCoherent) {
    // The full overload pipeline under fire WITH stealing on: producer
    // threads hammer try_submit with mixed priorities and tight deadlines
    // against tiny queues (rejection + expiry + shed_lowest all live), a
    // writer publishes patched epochs via retain, thieves drain whatever
    // backlog the scheduler piles up, and a poller reads stats() throughout
    // — TSan
    // fodder for steal-vs-retain (epoch pin at the thief's dequeue vs
    // concurrent publication) and steal-vs-shed (extract() crossfire on
    // one queue).  Coherence pins: every admitted future resolves exactly
    // once into exactly one outcome class, the outcome tally satisfies
    // served + rejected + expired + shed == submitted, and every stats()
    // snapshot obeys stolen <= served <= submitted.
    util::Rng rng(0x57EA15EEDULL);
    wl::CatalogConfig config;
    config.function_types = 8;
    config.impls_per_type = 5;
    config.attrs_per_impl = 6;
    config.attr_dropout = 0.25;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(config, rng);

    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kPerProducer = 240;

    const std::vector<std::vector<wl::GeneratedRequest>> streams =
        wl::generate_request_streams(catalog.case_base, catalog.bounds, kProducers,
                                     kPerProducer, rng);

    EngineConfig engine_config;
    engine_config.shard_count = 4;
    engine_config.queue_capacity = 8;  // tiny: overload is the steady state
    engine_config.steal.enabled = true;
    engine_config.steal.min_victim_depth = 1;
    engine_config.admission.policy = AdmissionPolicy::shed_lowest;
    Engine engine(catalog.case_base, engine_config);

    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<bool> stop_polling{false};
    std::atomic<std::uint64_t> snapshots{0};

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            cbr::RetrievalOptions options;
            options.n_best = 2;
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                JobClass cls;
                cls.tenant = static_cast<TenantId>(p);
                // Mixed shedding ranks so shed_lowest has real victims,
                // and a tight deadline on every third request so expiry
                // fires whenever TSan's slowdown builds a real backlog.
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
                // Resolve inline: each future lands in exactly one outcome
                // class (a double resolution would throw here).
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
        while (published < 10) {
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
            snapshots.fetch_add(1, std::memory_order_relaxed);
        }
    });

    for (std::size_t t = 0; t + 1 < threads.size(); ++t) {
        threads[t].join();
    }
    stop_polling.store(true, std::memory_order_release);
    threads.back().join();
    EXPECT_GT(snapshots.load(), 0u);

    // Outcome identity over OUR tally: nothing resolved twice, nothing
    // vanished — the open-loop invariant, reproduced from the caller side.
    EXPECT_EQ(served.load() + rejected.load() + expired.load() + shed.load(),
              kProducers * kPerProducer);

    // Engine-side ledger after quiescence (queues drained, all futures
    // resolved): every admitted job landed in exactly one outcome class,
    // and the steal telemetry is internally consistent.
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.served, served.load());
    EXPECT_EQ(stats.expired, expired.load());
    EXPECT_EQ(stats.shed, shed.load());
    EXPECT_EQ(stats.rejected, rejected.load());
    EXPECT_EQ(stats.served + stats.expired + stats.shed, stats.submitted);
    EXPECT_LE(stats.stolen, stats.served);
    std::uint64_t per_victim = 0;
    for (const std::uint64_t s : stats.shard_stolen) {
        per_victim += s;
    }
    EXPECT_EQ(per_victim, stats.stolen);
}

}  // namespace
