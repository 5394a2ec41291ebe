// Work-stealing semantics (EngineConfig::steal): a thief serves exactly
// the job the backlogged victim's own pop() would serve next, epoch-pinned
// at service time — so stolen results are bit-identical to home-shard
// execution, execute closures never migrate, and the steal telemetry stays
// coherent.
//
// Determinism recipe: the victim shard's worker is parked inside an
// execute() closure on a latch, so its queued retrievals can ONLY complete
// by being stolen — every resolved future is a proven steal, independent
// of scheduler timing.  min_victim_depth is 1 in these tests: with the
// worker parked forever, a depth-1 backlog would otherwise be (correctly)
// declined as the home worker's churn-guarded last job and strand the
// final future.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
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

struct StealFixture {
    wl::GeneratedCatalog catalog;
    Engine engine;
    std::size_t victim;  ///< the shard whose worker the tests park

    explicit StealFixture(EngineConfig config, std::uint64_t seed = 0x57EA1ULL)
        : catalog([&] {
              util::Rng rng(seed);
              wl::CatalogConfig cc;
              cc.function_types = 8;
              cc.impls_per_type = 8;
              cc.attrs_per_impl = 7;
              cc.attr_dropout = 0.25;
              return wl::generate_catalog_with_bounds(cc, rng);
          }()),
          engine(catalog.case_base, config),
          victim(0) {}

    /// Deterministic requests owned by the victim shard.
    std::vector<cbr::Request> victim_requests(std::size_t want, std::uint64_t seed) {
        util::Rng rng(seed);
        std::vector<cbr::Request> out;
        const auto generated = wl::generate_request_batch(
            catalog.case_base, catalog.bounds, 4 * want + 64, rng);
        for (const wl::GeneratedRequest& g : generated) {
            if (out.size() < want && engine.shard_of(g.request.type()) == victim) {
                out.push_back(g.request);
            }
        }
        return out;
    }
};

TEST(StealTest, ParkedVictimsBacklogIsFullyServedByThieves) {
    EngineConfig config;
    config.shard_count = 2;
    config.queue_capacity = 256;
    config.steal.enabled = true;
    config.steal.min_victim_depth = 1;
    StealFixture fx(config);

    // Reference results at the only epoch (no retains in this test).
    const GenerationPtr generation = fx.engine.current();
    const cbr::Retriever reference(generation->case_base, generation->bounds,
                                   generation->compiled);
    cbr::RetrievalOptions options;
    options.n_best = 3;

    const std::vector<cbr::Request> requests = fx.victim_requests(24, 0xBEEF);
    ASSERT_GE(requests.size(), 8u) << "catalog seed no longer maps types onto shard 0";

    // Park the victim's worker: it pops this closure (FIFO front) and then
    // blocks until the latch releases — everything queued behind it can
    // only complete via the steal path.
    std::promise<void> latch;
    std::shared_future<void> gate = latch.get_future().share();
    std::future<void> parked = fx.engine.execute(fx.victim, [gate] { gate.wait(); });

    std::vector<std::future<cbr::RetrievalResult>> futures;
    futures.reserve(requests.size());
    for (const cbr::Request& request : requests) {
        futures.push_back(fx.engine.submit(request, options));
    }
    // Every future resolving while the home worker is parked proves the
    // thief both took the job and produced a usable result; bit-identity
    // to the single-threaded reference proves the epoch pin at the thief's
    // dequeue changes nothing about *what* is computed.
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const cbr::RetrievalResult served = futures[i].get();
        EXPECT_TRUE(cbr::identical_results(
            reference.retrieve_compiled(requests[i], options), served))
            << "stolen result diverged from the reference for request " << i;
    }

    const EngineStats stats = fx.engine.stats();
    EXPECT_EQ(stats.stolen, requests.size());
    ASSERT_EQ(stats.shard_stolen.size(), fx.engine.shard_count());
    // Steals are attributed to the HOME (victim) shard they were taken from.
    EXPECT_EQ(stats.shard_stolen[fx.victim], stats.stolen);
    std::uint64_t per_victim = 0;
    for (const std::uint64_t s : stats.shard_stolen) {
        per_victim += s;
    }
    EXPECT_EQ(per_victim, stats.stolen);
    // Coherence: stolen jobs are served by their executing worker.
    EXPECT_LE(stats.stolen, stats.served);
    EXPECT_LE(stats.served, stats.submitted);

    latch.set_value();
    parked.get();
}

TEST(StealTest, ExecuteClosuresAreNeverStolenAndNeverBypassed) {
    EngineConfig config;
    config.shard_count = 2;
    config.queue_capacity = 64;
    config.steal.enabled = true;
    config.steal.min_victim_depth = 1;
    StealFixture fx(config);

    std::promise<void> latch;
    std::shared_future<void> gate = latch.get_future().share();
    std::future<void> parked = fx.engine.execute(fx.victim, [gate] { gate.wait(); });

    // Queue a second execute closure at the victim's FIFO front, with
    // retrievals behind it.  The thief must decline the whole queue: an
    // execute is the run-on-*this*-shard primitive (stealing it would
    // change which thread runs it), and stealing a retrieval from BEHIND
    // it would bypass the job the victim's pop() serves next.
    std::atomic<bool> second_ran{false};
    std::future<void> second =
        fx.engine.execute(fx.victim, [&second_ran] { second_ran.store(true); });
    const std::vector<cbr::Request> requests = fx.victim_requests(4, 0xCAFE);
    ASSERT_GE(requests.size(), 1u);
    std::vector<std::future<cbr::RetrievalResult>> futures;
    for (const cbr::Request& request : requests) {
        futures.push_back(fx.engine.submit(request));
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(fx.engine.stats().stolen, 0u);
    EXPECT_FALSE(second_ran.load());
    EXPECT_EQ(futures.front().wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);

    latch.set_value();
    parked.get();
    second.get();  // ran on the victim's worker after the park released
    EXPECT_TRUE(second_ran.load());
    for (std::future<cbr::RetrievalResult>& f : futures) {
        (void)f.get();
    }
}

TEST(StealTest, ShardOfIsStableAcrossEngineInstances) {
    // Victim-shard telemetry (EngineStats::shard_stolen) is keyed by
    // shard_of, documented comparable across processes and engine
    // instances of equal shard count — which requires the mapping to be a
    // pure function of (TypeId, shard_count).  Two engines over DIFFERENT
    // catalogues must agree on every id, and both must equal the
    // documented formula.
    EngineConfig config;
    config.shard_count = 4;
    config.queue_capacity = 16;
    StealFixture a(config, 0x111);
    StealFixture b(config, 0x222);
    ASSERT_EQ(a.engine.shard_count(), b.engine.shard_count());
    for (std::uint16_t raw = 0; raw < 512; ++raw) {
        const cbr::TypeId id{raw};
        const std::size_t expected = static_cast<std::size_t>(
            Engine::mix_type_id(id.value()) % a.engine.shard_count());
        EXPECT_EQ(a.engine.shard_of(id), expected);
        EXPECT_EQ(b.engine.shard_of(id), expected);
    }
}

}  // namespace
