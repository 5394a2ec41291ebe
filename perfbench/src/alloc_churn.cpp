// The allocation workload: one decision thread calling
// AllocationManager::allocate_batch on 256-request batches from the four
// fig. 1 application archetypes, releasing each batch's grants (and
// declining its counter-offers) after it, and every kRetainEvery batches
// retaining a novel variant into the engine and rebinding the manager to
// the published generation.
//
// Phases, after set-up (median of several repetitions):
//  * self-check: kVerifyBatches batches decided by allocate_batch and, in
//    lockstep, by a twin manager calling sequential allocate() over the
//    same batches, retains and rebinds.  Outcomes and ManagerStats must be
//    identical before anything is measured;
//  * a fresh set-up, so the measured pass starts from the same catalogue
//    as the traced one;
//  * closed loop: batches back to back, for the printed capacity and CPU
//    cost per decision;
//  * light and heavy: batches arrive on a Poisson tape at frozen absolute
//    batch rates and the decision thread takes each at its scheduled
//    instant (or as soon as it is free); latency runs from the scheduled
//    instant to allocate_batch's return.
// Trace mode repeats the three measured phases with spans and then replays
// a sample of the traced batches' retrievals and feasibility checks.
#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <optional>

#include "alloc/feasibility.hpp"
#include "alloc/manager.hpp"
#include "backend/backend.hpp"
#include "core/retrieval.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serve/engine.hpp"
#include "sysmodel/system.hpp"
#include "trace.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"
#include "workload/scenarios.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

using namespace qfa;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kNBest = 4;  ///< retrieval width for alternatives
constexpr std::size_t kRetainEvery = 16;
constexpr std::size_t kVerifyBatches = 64;
constexpr std::size_t kPoolBatches = 128;   ///< distinct batches, replayed in a cycle
constexpr std::size_t kReplayBatches = 64;  ///< traced batches replayed per layer
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kChunks = 50;  ///< closed-phase measurement slices

// Shares of --seconds per measured phase.  The open phases get nearly all
// of it: at a few hundred batches/s they need seconds to collect the
// 1,000+ batches a p99 with ten samples beyond it takes (at --seconds 10),
// and a longer phase spreads the window medians over more of the host's
// stalls.  The closed loop feeds printed figures only.
constexpr double kLightShare = 0.55;
constexpr double kHeavyShare = 0.4;
constexpr double kCapacityShare = 0.05;

// Frozen absolute batch rates (batches/s): ~0.24x and ~0.33x of the
// closed-loop batch rate measured on the host perfbench/BENCH.md describes.
// A heavier rate leaves too little slack: a stretch of the host running at
// half speed saturates the decision thread and the median runs away.
constexpr double kLightBatchRate = 200.0;
constexpr double kHeavyBatchRate = 280.0;
constexpr double kNominalBatchRate = 840.0;  ///< sizes the closed-loop phase
constexpr double kLatencyLimitUs = 100'000.0;

/// The engine-caused rejections; the others are the manager's decisions.
bool engine_caused(const alloc::AllocationOutcome& o) {
    return o.reject.has_value() && (*o.reject == alloc::RejectReason::retrieval_failed ||
                                    *o.reject == alloc::RejectReason::deadline_exceeded ||
                                    *o.reject == alloc::RejectReason::load_shed);
}

bool same_outcome(const alloc::AllocationOutcome& a, const alloc::AllocationOutcome& b) {
    if (a.kind != b.kind || a.grant.has_value() != b.grant.has_value() ||
        a.reject != b.reject || a.offer.has_value() != b.offer.has_value()) {
        return false;
    }
    if (a.grant && (a.grant->impl.type != b.grant->impl.type ||
                    a.grant->impl.impl != b.grant->impl.impl ||
                    a.grant->via_bypass != b.grant->via_bypass ||
                    a.grant->preemptions != b.grant->preemptions ||
                    std::bit_cast<std::uint64_t>(a.grant->similarity) !=
                        std::bit_cast<std::uint64_t>(b.grant->similarity))) {
        return false;
    }
    return !a.offer || (a.offer->alternative.impl == b.offer->alternative.impl &&
                        a.offer->best_infeasible.impl == b.offer->best_infeasible.impl &&
                        a.offer->offer_id == b.offer->offer_id);
}

bool same_stats(const alloc::ManagerStats& a, const alloc::ManagerStats& b) {
    return a.requests == b.requests && a.retrievals == b.retrievals &&
           a.bypass_grants == b.bypass_grants && a.grants == b.grants &&
           a.counter_offers == b.counter_offers && a.offers_accepted == b.offers_accepted &&
           a.offers_rejected == b.offers_rejected && a.rejections == b.rejections &&
           a.preemptions == b.preemptions && a.bypass.hits == b.bypass.hits &&
           a.bypass.misses == b.bypass.misses && a.bypass.stale == b.bypass.stale &&
           a.bypass.evictions == b.bypass.evictions;
}

using Batch = std::vector<alloc::AllocRequest>;

/// Draws batches the way the fig. 1 applications call functions: each
/// request comes from one of the four archetypes, targets its hot set with
/// its Zipf skew, and with its repeat probability re-issues its previous
/// request for that type verbatim (a bypass-token candidate).
std::vector<Batch> make_pool(const wl::GeneratedCatalog& catalog, std::uint64_t seed) {
    util::Rng rng(seed);
    const wl::AppKind kinds[] = {wl::AppKind::mp3_player, wl::AppKind::video,
                                 wl::AppKind::automotive_ecu, wl::AppKind::cruise_control};
    std::vector<wl::AppProfile> profiles;
    std::vector<wl::ZipfSampler> popularity;
    for (std::size_t a = 0; a < 4; ++a) {
        profiles.push_back(wl::make_profile(kinds[a], static_cast<alloc::AppId>(a + 1),
                                            catalog.case_base, rng, 4));
        popularity.emplace_back(profiles.back().hot_types.size(), profiles.back().zipf_s);
    }
    std::map<std::pair<std::size_t, std::uint16_t>, cbr::Request> last;
    std::vector<Batch> pool(kPoolBatches);
    for (Batch& batch : pool) {
        batch.reserve(kBatch);
        for (std::size_t r = 0; r < kBatch; ++r) {
            const std::size_t a = rng.index(profiles.size());
            const wl::AppProfile& profile = profiles[a];
            const cbr::TypeId type = profile.hot_types[popularity[a].sample(rng)];
            const auto key = std::make_pair(a, type.value());
            auto it = last.find(key);
            if (it == last.end() || !rng.bernoulli(profile.repeat_prob)) {
                cbr::Request request = wl::generate_request(catalog.case_base, catalog.bounds,
                                                            type, rng, profile.request_gen)
                                           .request;
                it = last.insert_or_assign(key, std::move(request)).first;
            }
            batch.push_back(alloc::AllocRequest{profile.app, it->second, profile.priority,
                                                profile.threshold, kNBest});
        }
    }
    return pool;
}

/// Poisson batch arrival offsets over `seconds` at `rate` batches/s.
std::vector<steady::duration> make_arrivals(double rate, double seconds, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<steady::duration> at;
    double now = 0.0;
    for (;;) {
        now += rng.exponential(rate);
        if (now >= seconds) {
            return at;
        }
        at.push_back(from_s(now));
    }
}

/// The k-th retained variant: a copy of a catalogue variant of type
/// k mod T under a fresh id, its values moved by up to 30 % of each
/// attribute's design range (some beyond it, which widens the bounds and
/// forces the COW publish to clone plans).
std::pair<cbr::TypeId, cbr::Implementation> novel_variant(const wl::GeneratedCatalog& catalog,
                                                          std::uint64_t seed, std::size_t k) {
    util::Rng rng(child_seed(seed, 1000 + k));
    const std::span<const cbr::FunctionType> types = catalog.case_base.types();
    const cbr::FunctionType& type = types[k % types.size()];
    cbr::Implementation impl = type.impls[rng.index(type.impls.size())];
    impl.id = cbr::ImplId{static_cast<std::uint16_t>(1000 + k)};
    for (cbr::Attribute& attr : impl.attributes) {
        const std::optional<cbr::AttrBounds> b = catalog.bounds.find(attr.id);
        const double range = b ? static_cast<double>(b->dmax()) + 1.0 : 16.0;
        const double moved = static_cast<double>(attr.value) + rng.uniform_real(-0.3, 0.3) * range;
        attr.value = static_cast<cbr::AttrValue>(std::clamp(moved, 0.0, 65535.0));
    }
    return {type.id, std::move(impl)};
}

/// One allocation pipeline: platform + manager bound to the engine.
struct Pipeline {
    std::unique_ptr<sys::Platform> platform;
    std::unique_ptr<alloc::AllocationManager> manager;

    Pipeline(const wl::GeneratedCatalog& catalog, const serve::Engine& engine) {
        platform = std::make_unique<sys::Platform>();
        platform->repository().import_case_base(catalog.case_base);
        manager = std::make_unique<alloc::AllocationManager>(*platform, catalog.case_base,
                                                             catalog.bounds);
        manager->rebind(engine.current());
    }

    /// Releases the batch's grants and declines its counter-offers, so the
    /// platform and the pending-offer table return to the between-batch
    /// state.
    void settle(const std::vector<alloc::AllocationOutcome>& outcomes) {
        for (const alloc::AllocationOutcome& o : outcomes) {
            if (o.grant) {
                (void)manager->release(o.grant->task);
            } else if (o.offer) {
                manager->reject_offer(o.offer->offer_id);
            }
        }
    }

    void adopt(const serve::GenerationPtr& gen) {
        manager->rebind(gen);
        platform->repository().import_case_base(gen->case_base);
    }
};

struct Rig {
    wl::GeneratedCatalog catalog;
    std::unique_ptr<serve::Engine> engine;
    std::unique_ptr<Pipeline> pipeline;
    std::unique_ptr<Pipeline> twin;
};

Rig set_up(std::size_t shards) {
    Rig rig;
    // The catalogue is the workload's fixed data set; --seed varies the
    // request pool and the retained variants, not the data.
    util::Rng rng(0x5e7eacc0);
    wl::CatalogConfig shape;
    shape.function_types = 16;
    shape.impls_per_type = 32;
    shape.attrs_per_impl = 10;
    shape.attr_dropout = 0.2;
    rig.catalog = wl::generate_catalog_with_bounds(shape, rng);
    serve::EngineConfig config;
    config.shard_count = shards;
    config.queue_capacity = kQueueCapacity;
    config.backend = "cpu-simd";  // explicit: the QFA_BACKEND hint must not move placement
    rig.engine = std::make_unique<serve::Engine>(rig.catalog.case_base, config);
    rig.pipeline = std::make_unique<Pipeline>(rig.catalog, *rig.engine);
    return rig;
}

/// Warms the engine's workers and the allocation stages on the pool's
/// first batches, through a throwaway pipeline so the rig's own starts
/// from the between-batch state.
void warm_up(Rig& rig, const std::vector<Batch>& pool) {
    Pipeline warm(rig.catalog, *rig.engine);
    for (std::size_t b = 0; b < 8; ++b) {
        warm.settle(warm.manager->allocate_batch(pool[b], *rig.engine));
    }
}

/// Everything one pass of phases accumulates.
struct PassStats {
    Samples batch_us;          ///< allocate_batch wall time, closed phase
    LatencyRecorder light;     ///< per batch, to allocate_batch's return
    LatencyRecorder heavy;
    Samples lag_us;            ///< idle decision thread woken late
    Samples publish_us;        ///< retain + rebind
    Samples retain_us;         ///< retain alone
    std::uint64_t capacity_decisions = 0;
    double capacity_elapsed_s = 0.0;
    SliceMeter slices;  ///< closed phase, over kChunks slices
    std::uint64_t decisions = 0;
    std::uint64_t engine_failures = 0;
    std::uint64_t retains = 0;
    std::uint64_t duplicates = 0;
    /// Traced batches kept for the layer replays: pool index plus, per
    /// request, whether its decision needed a retrieval (no bypass grant).
    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> replay;
    alloc::ManagerStats manager_before;
    alloc::ManagerStats manager_after;
    alloc::BatchPipelineStats pipeline_before;
    alloc::BatchPipelineStats pipeline_after;
    serve::EngineStats engine_before;
    serve::EngineStats engine_after;
};

/// The decision thread's loop body, shared by every phase.
class DecisionLoop {
public:
    DecisionLoop(Rig& rig, const std::vector<Batch>& pool, std::uint64_t seed)
        : rig_(rig), pool_(pool), seed_(seed) {}

    /// One batch; returns the instant allocate_batch returned.
    steady::time_point step(PassStats& pass, Trace& trace, std::uint64_t id,
                            steady::time_point arrived, bool with_twin) {
        const std::size_t pool_index = cursor_++ % pool_.size();
        const Batch& batch = pool_[pool_index];
        Pipeline& pipeline = *rig_.pipeline;
        const steady::time_point t0 = steady::now();
        std::vector<alloc::AllocationOutcome> outcomes =
            pipeline.manager->allocate_batch(batch, *rig_.engine);
        const steady::time_point t1 = steady::now();
        for (const alloc::AllocationOutcome& o : outcomes) {
            pass.engine_failures += engine_caused(o) ? 1 : 0;
        }
        pass.decisions += outcomes.size();
        if (with_twin) {
            std::vector<alloc::AllocationOutcome> sequential;
            sequential.reserve(batch.size());
            for (const alloc::AllocRequest& request : batch) {
                sequential.push_back(rig_.twin->manager->allocate(request));
            }
            for (std::size_t r = 0; r < batch.size() && divergence_.empty(); ++r) {
                if (!same_outcome(sequential[r], outcomes[r])) {
                    divergence_ = "batch " + std::to_string(id) + " request " +
                                  std::to_string(r) +
                                  ": allocate_batch diverged from sequential allocate()";
                }
            }
            rig_.twin->settle(sequential);
        }
        if (trace.enabled() && pass.replay.size() < kReplayBatches) {
            std::vector<std::uint8_t> missed(outcomes.size());
            for (std::size_t r = 0; r < outcomes.size(); ++r) {
                missed[r] = !(outcomes[r].grant && outcomes[r].grant->via_bypass);
            }
            pass.replay.emplace_back(pool_index, std::move(missed));
        }
        pipeline.settle(outcomes);
        const steady::time_point t2 = steady::now();
        const std::int64_t root = trace.add("alloc.batch", id, -1, arrived, t2);
        trace.add("alloc.allocate_batch", id, root, t0, t1);
        trace.add("alloc.release", id, root, t1, t2);
        if (++since_retain_ == kRetainEvery) {
            since_retain_ = 0;
            publish(pass, trace, id, root, with_twin);
            trace.close(root, steady::now());
        }
        return t1;
    }

    [[nodiscard]] const std::string& divergence() const noexcept { return divergence_; }

private:
    void publish(PassStats& pass, Trace& trace, std::uint64_t id, std::int64_t root,
                 bool with_twin) {
        auto [type, impl] = novel_variant(rig_.catalog, seed_, retains_++);
        const steady::time_point t0 = steady::now();
        const cbr::RetainVerdict verdict = rig_.engine->retain(type, std::move(impl));
        const steady::time_point t1 = steady::now();
        if (verdict != cbr::RetainVerdict::retained) {
            ++pass.duplicates;
            return;
        }
        const serve::GenerationPtr gen = rig_.engine->current();
        rig_.pipeline->manager->rebind(gen);
        const steady::time_point t2 = steady::now();
        rig_.pipeline->platform->repository().import_case_base(gen->case_base);
        if (with_twin) {
            rig_.twin->adopt(gen);
        }
        ++pass.retains;
        pass.retain_us.add(to_us(t1 - t0));
        pass.publish_us.add(to_us(t2 - t0));
        trace.add("generation.retain", id, root, t0, t1);
        trace.add("alloc.rebind", id, root, t1, t2);
    }

    Rig& rig_;
    const std::vector<Batch>& pool_;
    std::uint64_t seed_;
    std::size_t cursor_ = 0;
    std::size_t since_retain_ = 0;
    std::size_t retains_ = 0;
    std::string divergence_;
};

struct Tapes {
    std::size_t capacity_batches = 0;
    std::vector<steady::duration> light;
    std::vector<steady::duration> heavy;
};

void run_pass(DecisionLoop& loop, Rig& rig, const Tapes& tapes, Trace& trace, std::uint64_t id_base,
              PassStats& pass) {
    pass.manager_before = rig.pipeline->manager->stats();
    pass.pipeline_before = rig.pipeline->manager->batch_pipeline_stats();
    pass.engine_before = rig.engine->stats();
    std::uint64_t id = id_base;

    const std::uint64_t decisions_before = pass.decisions;
    const steady::time_point closed_start = steady::now();
    const std::size_t chunk = std::max<std::size_t>(1, tapes.capacity_batches / kChunks);
    pass.slices.start(pass.decisions);
    for (std::size_t b = 0; b < tapes.capacity_batches; ++b) {
        const steady::time_point t0 = steady::now();
        const steady::time_point decided = loop.step(pass, trace, id++, t0, false);
        pass.batch_us.add(to_us(decided - t0));
        if ((b + 1) % chunk == 0) {
            pass.slices.mark(pass.decisions);
        }
    }
    pass.capacity_elapsed_s = to_s(steady::now() - closed_start);
    pass.capacity_decisions = pass.decisions - decisions_before;

    const auto open_phase = [&](const std::vector<steady::duration>& tape,
                                LatencyRecorder& latency) {
        const steady::time_point start = steady::now() + std::chrono::milliseconds(1);
        replay_tape(
            tape.size(), start, [&](std::size_t i) { return tape[i]; },
            [&](steady::time_point when) {
                const bool idle = steady::now() < when;
                wait_until(when);
                if (idle) {
                    pass.lag_us.add(to_us(steady::now() - when));
                }
            },
            [&](std::size_t i, steady::time_point scheduled) {
                const steady::time_point decided = loop.step(pass, trace, id++, scheduled, false);
                latency.add(i, tape.size(), to_us(decided - scheduled), kLatencyLimitUs);
            });
    };
    open_phase(tapes.light, pass.light);
    open_phase(tapes.heavy, pass.heavy);

    pass.manager_after = rig.pipeline->manager->stats();
    pass.pipeline_after = rig.pipeline->manager->batch_pipeline_stats();
    pass.engine_after = rig.engine->stats();
}

/// Engine outcome identity at quiescence: every job the batch fan-out and
/// the offloaded stages put into a queue was served, expired or shed.
void check_engine(RunReport& report, const PassStats& pass, const char* label) {
    const serve::EngineStats& a = pass.engine_before;
    const serve::EngineStats& b = pass.engine_after;
    const std::uint64_t submitted = b.submitted - a.submitted;
    const std::uint64_t resolved = (b.served - a.served) + (b.expired - a.expired) +
                                   (b.shed - a.shed);
    if (submitted != resolved) {
        report.fail(std::string(label) + ": engine served + expired + shed (" +
                    std::to_string(resolved) + ") != submitted (" + std::to_string(submitted) +
                    ")");
    }
}

std::vector<Metric> end_to_end(RunReport& report, const PassStats& pass) {
    // Every batch is decided, so each heavy arrival has a latency sample.
    std::vector<Metric> out = open_loop_metrics(report, pass.light, pass.heavy, pass.heavy.all.size());

    // The allocation figures the gated metrics above do not name.
    pass.slices.note(report, "capacity_rps = decisions_per_s", pass.capacity_decisions,
                     pass.capacity_elapsed_s, ", batch " + std::to_string(kBatch));
    note_percentile(report, "batch_p50_us", pass.batch_us, 0.50, "us");
    note_percentile(report, "batch_p99_us", pass.batch_us, 0.99, "us");
    note_percentile(report, "publish_p50_us", pass.publish_us, 0.50, "us");
    report.notes.push_back("retains: " + std::to_string(pass.retains) + " published, " +
                           std::to_string(pass.duplicates) + " refused as duplicates");
    report.notes.push_back("offered: light " + std::to_string(kLightBatchRate) +
                           " batches/s, heavy " + std::to_string(kHeavyBatchRate) +
                           " batches/s; limit " + std::to_string(kLatencyLimitUs) + " us");
    report.notes.push_back("workload.gen_lag_us.p99 = " +
                           std::to_string(pass.lag_us.percentile_or_zero(0.99)) + " us (n=" +
                           std::to_string(pass.lag_us.size()) + ")");
    return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void per_layer(RunReport& report, Rig& rig, const std::vector<Batch>& pool,
               const PassStats& pass, Trace& trace, const std::vector<Metric>& untraced,
               const std::vector<Metric>& traced) {
    std::vector<Metric>& out = report.per_layer;
    const auto add = [&](const std::string& name, double value, const std::string& unit) {
        out.push_back(Metric{name, value, unit});
    };
    const alloc::ManagerStats& ma = pass.manager_before;
    const alloc::ManagerStats& mb = pass.manager_after;
    const std::uint64_t requests = mb.requests - ma.requests;
    add("workload.gen_lag_us.p99", pass.lag_us.percentile_or_zero(0.99), "us");
    add("alloc.bypass_hit_ratio", ratio(mb.bypass_grants - ma.bypass_grants, requests), "ratio");
    add("alloc.retrievals_per_req", ratio(mb.retrievals - ma.retrievals, requests), "count");
    add("alloc.spec_adopt_ratio",
        ratio(pass.pipeline_after.speculations_adopted - pass.pipeline_before.speculations_adopted,
              pass.pipeline_after.speculated - pass.pipeline_before.speculated),
        "ratio");
    add("alloc.counter_offer_ratio", ratio(mb.counter_offers - ma.counter_offers, requests),
        "ratio");
    add("alloc.preemptions_per_req", ratio(mb.preemptions - ma.preemptions, requests), "count");
    add("alloc.batch_us.p50", pass.batch_us.percentile_or_zero(0.50), "us");
    add("generation.publish_us.p50", pass.retain_us.percentile_or_zero(0.50), "us");
    const serve::EngineStats& ea = pass.engine_before;
    const serve::EngineStats& eb = pass.engine_after;
    add("generation.cow_shared_ratio",
        ratio(eb.cow_plans_shared - ea.cow_plans_shared,
              eb.cow_plans_published - ea.cow_plans_published),
        "ratio");
    add("serve.shard_imbalance", shard_imbalance(ea, eb), "ratio");

    // Layer replays over the kept traced batches: the retrievals their
    // bypass misses needed (engine fan-out, then one thread through the
    // compiled path and the cpu-simd backend), and the feasibility check
    // of every retrieved candidate against the between-batch platform.
    const serve::GenerationPtr gen = rig.engine->current();
    CoreReplay core(*gen);
    const backend::RetrievalBackend* cpu = backend::registry().find("cpu-simd");
    const std::unique_ptr<backend::BackendScratch> cpu_scratch = cpu->make_scratch();
    const backend::ShardContext ctx{&gen->case_base, &gen->bounds, &gen->compiled, gen->epoch};
    cbr::RetrievalOptions options;
    options.n_best = kNBest;
    Samples fanout_us;
    Samples feasibility_us;
    Samples score_us;
    const sys::Platform& platform = *rig.pipeline->platform;
    std::uint64_t id = 0;
    for (const auto& [pool_index, missed] : pass.replay) {
        const Batch& batch = pool[pool_index];
        std::vector<cbr::Request> misses;
        std::vector<sys::Priority> priorities;
        for (std::size_t r = 0; r < batch.size(); ++r) {
            if (missed[r]) {
                misses.push_back(batch[r].request);
                priorities.push_back(batch[r].priority);
            }
        }
        ++id;
        const steady::time_point f0 = steady::now();
        const std::vector<cbr::RetrievalResult> results = rig.engine->retrieve_all(misses, options);
        const steady::time_point f1 = steady::now();
        fanout_us.add(to_us(f1 - f0));
        const std::int64_t root = trace.add("alloc.fanout", id, -1, f0, f1);
        for (std::size_t r = 0; r < misses.size(); ++r) {
            if (!cbr::identical_results(core.scan(misses[r], options, trace, id, root),
                                        results[r])) {
                report.fail("alloc fan-out replay diverged from Retriever::retrieve_compiled");
            }
            const steady::time_point s0 = steady::now();
            (void)cpu->score(ctx, misses[r], options, *cpu_scratch);
            const steady::time_point s1 = steady::now();
            trace.add("backend.score", id, root, s0, s1);
            score_us.add(to_us(s1 - s0));
            for (const cbr::Match& m : results[r].matches) {
                const cbr::FunctionType* type = gen->case_base.find_type(m.type);
                const cbr::Implementation* impl = type ? type->find_impl(m.impl) : nullptr;
                if (impl == nullptr) {
                    continue;
                }
                const steady::time_point c0 = steady::now();
                (void)alloc::check_feasibility(platform, sys::ImplRef{m.type, m.impl}, *impl,
                                               priorities[r]);
                const steady::time_point c1 = steady::now();
                feasibility_us.add(to_us(c1 - c0));
                trace.add("alloc.feasibility", id, root, c0, c1);
            }
        }
    }
    add("alloc.fanout_us.p50", fanout_us.percentile_or_zero(0.50), "us");
    add("alloc.feasibility_us.p50", feasibility_us.percentile_or_zero(0.50), "us");
    core.report(out);
    add("backend.score_us.p50.cpu-simd", score_us.percentile_or_zero(0.50), "us");
    add_overheads(out, untraced, traced);
}

}  // namespace

RunReport run_alloc_churn(const RunConfig& config) {
    RunReport report;
    Rig rig;
    std::vector<Batch> pool;
    // One timed set-up: catalogue, engine (its constructor compiles the
    // plans), pipeline and warm-up.  The request pool is input generation,
    // not set-up; it needs the catalogue, so the first set-up draws it
    // between the two timed halves (every set-up builds the same
    // catalogue).
    const auto build = [&] {
        rig = Rig{};  // the previous engine joins its workers before the next is built
        const steady::time_point t0 = steady::now();
        rig = set_up(config.shards);
        const steady::time_point t1 = steady::now();
        if (pool.empty()) {
            pool = make_pool(rig.catalog, child_seed(config.seed, 2));
        }
        const steady::time_point t2 = steady::now();
        warm_up(rig, pool);
        return to_s(t1 - t0) + to_s(steady::now() - t2);
    };
    const double setup_s = median_setup_s(report, build);

    // Self-check gate: lockstep twin over the verification batches.
    {
        DecisionLoop loop(rig, pool, config.seed);
        rig.twin = std::make_unique<Pipeline>(rig.catalog, *rig.engine);
        Trace off(false);
        PassStats verify;
        const alloc::ManagerStats before = rig.pipeline->manager->stats();
        verify.engine_before = rig.engine->stats();
        for (std::size_t b = 0; b < kVerifyBatches; ++b) {
            (void)loop.step(verify, off, b, steady::now(), true);
        }
        verify.engine_after = rig.engine->stats();
        if (!loop.divergence().empty()) {
            report.fail(loop.divergence());
        }
        if (!same_stats(rig.pipeline->manager->stats(), rig.twin->manager->stats()) ||
            rig.pipeline->manager->stats().requests - before.requests !=
                kVerifyBatches * kBatch) {
            report.fail("allocate_batch ManagerStats diverged from sequential allocate()");
        }
        check_engine(report, verify, "self-check");
        report.notes.push_back("self-check: " + std::to_string(kVerifyBatches) + " batches (" +
                               std::to_string(verify.retains) +
                               " retains) identical to sequential allocate()");
    }

    Tapes tapes;
    tapes.capacity_batches =
        static_cast<std::size_t>(kNominalBatchRate * kCapacityShare * config.seconds);
    tapes.light = make_arrivals(kLightBatchRate, kLightShare * config.seconds,
                                child_seed(config.seed, 4));
    tapes.heavy = make_arrivals(kHeavyBatchRate, kHeavyShare * config.seconds,
                                child_seed(config.seed, 5));

    // A pass retains a variant every kRetainEvery batches, so the catalogue
    // grows while it runs.  Each pass starts from a fresh set-up and a fresh
    // decision loop, so the untraced and the traced pass run the same
    // batches and retains over the same catalogue.
    (void)build();
    DecisionLoop loop(rig, pool, config.seed);
    Trace off(false);
    PassStats pass;
    run_pass(loop, rig, tapes, off, 0, pass);
    check_engine(report, pass, "untraced");
    report.end_to_end = end_to_end(report, pass);
    report.end_to_end.push_back(Metric{"setup_s", setup_s, "s"});
    report.notes.push_back("failed_ratio = " + std::to_string(ratio(pass.engine_failures,
                                                                    pass.decisions)) +
                           " (engine-caused rejections / decisions)");
    report.attempted = pass.decisions;
    report.failed = pass.engine_failures;

    if (config.trace) {
        (void)build();
        DecisionLoop traced_loop(rig, pool, config.seed);
        Trace trace(true);
        PassStats traced;
        run_pass(traced_loop, rig, tapes, trace, 1'000'000, traced);
        check_engine(report, traced, "traced");
        RunReport scratch_report;
        const std::vector<Metric> traced_e2e = end_to_end(scratch_report, traced);
        per_layer(report, rig, pool, traced, trace, report.end_to_end, traced_e2e);
        if (!config.trace_path.empty()) {
            report.notes.push_back(trace.write_jsonl(config.trace_path)
                                       ? std::to_string(trace.spans().size()) +
                                             " spans written to " + config.trace_path
                                       : "could not write spans to " + config.trace_path);
        }
    }
    return report;
}

}  // namespace perfbench
