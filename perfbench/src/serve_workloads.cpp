// The three serving workloads: fixed-rate open-loop retrieval traffic
// through Engine::try_submit, plus a closed-loop capacity phase.
//
// Every run goes through the same steps:
//  1. set-up, repeated (catalogue generation, engine construction with
//     its plan compile, warm-up); setup_s is the median;
//  2. a closed-loop phase: the generator keeps a fixed window of requests
//     outstanding, for the printed capacity and CPU cost per request;
//  3. a light and a heavy open-loop phase at frozen absolute rates; latency
//     is clocked from each arrival's scheduled instant;
//  4. the self-check: every served result is compared with a
//     single-threaded Retriever::retrieve_compiled replay (bit-identical on
//     exact shards, within the backend's documented error bound on modeled
//     ones), and the outcome identity and EngineStats deltas must balance.
// In trace mode the three phases run a second time with spans recorded,
// followed by single-threaded replays that time the core and backend
// layers.  Only the traced pass feeds the per-layer metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "backend/backend.hpp"
#include "backend/device_backend.hpp"
#include "core/retrieval.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"
#include "workload/catalog.hpp"
#include "workload/openloop.hpp"
#include "workload/requests.hpp"

namespace perfbench {
namespace {

using namespace qfa;

constexpr std::size_t kQueueCapacity = 8192;     ///< per shard; never the binding limit
constexpr std::size_t kWindowPerShard = 16;      ///< closed-loop requests outstanding
constexpr std::size_t kKeepWhole = 4096;         ///< served results kept whole per phase
constexpr std::size_t kSpanArrivals = 20000;     ///< arrivals per phase in the span file
constexpr std::size_t kReplayArrivals = 20000;   ///< traced single-thread replay size
constexpr std::size_t kChunks = 100;            ///< closed-phase measurement slices
constexpr double kLagLimitShare = 0.5;           ///< gen-lag p99 / latency limit ceiling

// Shares of --seconds given to each measured phase.
constexpr double kLightShare = 0.35;
constexpr double kHeavyShare = 0.35;
constexpr double kCapacityShare = 0.2;

/// One traffic source; a phase's offered rate is split evenly over them.
struct TenantSpec {
    serve::TenantId id = 0;
    double zipf_s = 1.0;
    std::uint8_t priority = 10;
};

struct ServeSpec {
    const char* name = "";
    wl::CatalogConfig catalog;
    /// The catalogue is the workload's fixed data set; --seed varies the
    /// traffic over it (tapes, warm-up), not the data.
    std::uint64_t catalog_seed = 0;
    std::vector<TenantSpec> tenants;
    std::size_t n_best = 4;
    std::vector<std::string> placement;  ///< backend per shard; empty = all cpu-simd
    serve::AdmissionPolicy policy = serve::AdmissionPolicy::reject_new;
    bool deadlines = false;  ///< per-request deadline = the latency limit
    // Frozen absolute offered rates (arrivals/s), set once from the
    // capacity this workload measured on the host perfbench/BENCH.md
    // describes (the table there gives each ratio and why).  Never
    // recalibrated per run.
    double light_rps = 0.0;
    double heavy_rps = 0.0;
    double latency_limit_us = 0.0;
    /// Sizes the closed-loop phase (requests = nominal x share x seconds),
    /// so every commit is handed the same work.
    double nominal_capacity_rps = 0.0;
};

enum class Outcome : std::uint8_t { pending, served, rejected, expired, shed, errored };

/// What the self-check needs of one served result once the result itself
/// is dropped: a digest over every field cbr::identical_results compares,
/// plus the ranked similarities for the modeled-backend bound.
struct ServedRecord {
    std::uint64_t digest = 0;
    cbr::RetrievalStatus status = cbr::RetrievalStatus::ok;
    std::uint8_t count = 0;
    std::array<double, 4> similarity{};
};

std::uint64_t digest_of(const cbr::RetrievalResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.impls_considered);
    mix(r.attrs_compared);
    mix(r.matches.size());
    for (const cbr::Match& m : r.matches) {
        mix(m.type.value());
        mix(m.impl.value());
        mix(static_cast<std::uint64_t>(m.target));
        mix(std::bit_cast<std::uint64_t>(m.similarity));
        mix(m.details.size());
        for (const cbr::LocalDetail& d : m.details) {
            mix(d.id.value());
            mix(d.request_value);
            mix(d.case_value.has_value() ? *d.case_value + 1u : 0u);
            mix(d.distance);
            mix(d.dmax);
            mix(std::bit_cast<std::uint64_t>(d.weight));
            mix(std::bit_cast<std::uint64_t>(d.similarity));
        }
    }
    return h;
}

ServedRecord record_of(const cbr::RetrievalResult& r) {
    ServedRecord rec;
    rec.digest = digest_of(r);
    rec.status = r.status;
    rec.count = static_cast<std::uint8_t>(std::min<std::size_t>(r.matches.size(), 255));
    for (std::size_t k = 0; k < r.matches.size() && k < rec.similarity.size(); ++k) {
        rec.similarity[k] = r.matches[k].similarity;
    }
    return rec;
}

/// One measured phase over one tape.
struct Phase {
    const char* name = "";
    const wl::ArrivalSchedule* tape = nullptr;
    bool open = true;        ///< paced on the tape's clock; false = closed window
    std::uint64_t id_base = 0;  ///< span id of arrival 0

    std::vector<Outcome> outcome;
    std::vector<ServedRecord> served;
    std::vector<cbr::RetrievalResult> kept;  ///< first kKeepWhole arrivals, when served
    std::vector<double> sojourn_us;          ///< traced, first kReplayArrivals arrivals
    std::vector<cbr::Request> replay;        ///< traced, their requests (the tape is freed)
    LatencyRecorder latency;  ///< served (open phases)
    Samples lag_us;      ///< actual try_submit instant - scheduled instant
    Samples admit_ns;    ///< traced: duration of try_submit
    Samples sojourn;     ///< traced: try_submit return -> completion stamp (us)
    std::array<std::uint64_t, 6> counts{};
    double elapsed_s = 0.0;
    SliceMeter slices;  ///< closed phase, over kChunks slices

    [[nodiscard]] std::uint64_t count(Outcome o) const {
        return counts[static_cast<std::size_t>(o)];
    }
    [[nodiscard]] std::uint64_t submitted() const { return outcome.size(); }
};

/// Drives one phase from the single generator thread: submissions through
/// try_submit, and in-order harvesting of completed futures whenever the
/// generator has slack, so finished results do not pile up in memory.
class PhaseRunner {
public:
    PhaseRunner(serve::Engine& engine, Phase& phase, const cbr::RetrievalOptions& options,
                double latency_limit_us, Trace& trace)
        : engine_(engine), phase_(phase), options_(options), limit_us_(latency_limit_us),
          trace_(trace) {
        const std::size_t n = phase.tape->arrivals.size();
        phase.outcome.assign(n, Outcome::pending);
        phase.served.assign(n, ServedRecord{});
        phase.kept.assign(std::min(n, kKeepWhole), cbr::RetrievalResult{});
        if (trace.enabled()) {
            phase.sojourn_us.assign(std::min(n, kReplayArrivals), -1.0);
        }
        futures_.resize(n);
        scheduled_.resize(n);
        submitted_.resize(n);
        returned_.resize(n);
        completed_.resize(n);
    }

    void run() {
        const wl::ArrivalSchedule& tape = *phase_.tape;
        const std::size_t n = tape.arrivals.size();
        if (n == 0) {
            return;
        }
        next_.emplace(tape.arrivals[0].generated.request);
        const std::size_t window = kWindowPerShard * engine_.shard_count();
        const steady::time_point start = steady::now() + std::chrono::milliseconds(1);
        if (phase_.open) {
            replay_tape(
                n, start, [&](std::size_t i) { return tape.arrivals[i].at; },
                [&](steady::time_point when) {
                    // Harvest finished work while the next arrival is far
                    // enough away that doing so cannot make it late.
                    while (steady::now() + std::chrono::microseconds(5) < when &&
                           harvest(false)) {
                    }
                    wait_until(when);
                },
                [&](std::size_t i, steady::time_point scheduled) { submit(i, scheduled); });
        } else {
            const std::size_t chunk = std::max<std::size_t>(1, n / kChunks);
            phase_.slices.start(0);
            for (std::size_t i = 0; i < n; ++i) {
                while (i - oldest_ >= window) {
                    harvest(true);
                }
                if (i % chunk == 0) {
                    phase_.slices.mark(oldest_);
                }
                submit(i, steady::now());
            }
        }
        while (harvest(true)) {
        }
        phase_.elapsed_s = to_s(last_completion_ - submitted_[0]);
    }

private:
    void submit(std::size_t i, steady::time_point scheduled) {
        const wl::ArrivalSchedule& tape = *phase_.tape;
        const wl::OpenLoopTenant& tenant = tape.tenants[tape.arrivals[i].tenant_index];
        serve::JobClass cls;
        cls.tenant = tenant.tenant;
        cls.priority = tenant.priority;
        if (tenant.relative_deadline.has_value() && phase_.open) {
            cls.deadline = scheduled + *tenant.relative_deadline;
        }
        cls.completed_at = &completed_[i];
        const steady::time_point t0 = steady::now();
        serve::AdmissionResult admitted = engine_.try_submit(std::move(*next_), options_, cls);
        const steady::time_point t1 = trace_.enabled() ? steady::now() : t0;
        scheduled_[i] = scheduled;
        submitted_[i] = t0;
        returned_[i] = t1;
        if (admitted.admitted()) {
            futures_[i] = std::move(admitted.future);
        }
        if (i + 1 < tape.arrivals.size()) {
            next_.emplace(tape.arrivals[i + 1].generated.request);
        }
        submitted_count_ = i + 1;
    }

    /// Resolves the oldest unresolved arrival.  Non-blocking mode returns
    /// false when it is still in flight; both return false when nothing
    /// submitted is left unresolved.
    bool harvest(bool block) {
        if (oldest_ >= submitted_count_) {
            return false;
        }
        const std::size_t i = oldest_;
        std::future<cbr::RetrievalResult>& future = futures_[i];
        if (!block && future.valid() &&
            future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            return false;
        }
        Outcome outcome = Outcome::rejected;
        steady::time_point end = returned_[i];
        if (future.valid()) {
            try {
                cbr::RetrievalResult result = future.get();
                outcome = Outcome::served;
                end = completed_[i];
                phase_.served[i] = record_of(result);
                if (i < phase_.kept.size()) {
                    phase_.kept[i] = std::move(result);
                }
            } catch (const serve::DeadlineExceeded&) {
                outcome = Outcome::expired;
            } catch (const serve::LoadShed&) {
                outcome = Outcome::shed;
            } catch (const std::exception&) {
                outcome = Outcome::errored;
            }
        }
        book(i, outcome, end);
        ++oldest_;
        return true;
    }

    void book(std::size_t i, Outcome outcome, steady::time_point end) {
        phase_.outcome[i] = outcome;
        ++phase_.counts[static_cast<std::size_t>(outcome)];
        last_completion_ = std::max(last_completion_, end);
        if (!phase_.open) {
            return;
        }
        phase_.lag_us.add(to_us(submitted_[i] - scheduled_[i]));
        if (outcome == Outcome::served) {
            phase_.latency.add(i, phase_.outcome.size(), to_us(completed_[i] - scheduled_[i]),
                               limit_us_);
        }
        if (!trace_.enabled()) {
            return;
        }
        phase_.admit_ns.add(to_ns(returned_[i] - submitted_[i]));
        if (outcome == Outcome::served) {
            const double sojourn = to_us(completed_[i] - returned_[i]);
            phase_.sojourn.add(sojourn);
            if (i < phase_.sojourn_us.size()) {
                phase_.sojourn_us[i] = sojourn;
            }
        }
        if (i < kSpanArrivals) {
            const std::uint64_t id = phase_.id_base + i;
            const std::int64_t request = trace_.add("request", id, -1, scheduled_[i], end);
            trace_.add("admit", id, request, submitted_[i], returned_[i]);
            if (outcome == Outcome::served) {
                trace_.add("sojourn", id, request, returned_[i], completed_[i]);
            }
        }
    }

    serve::Engine& engine_;
    Phase& phase_;
    const cbr::RetrievalOptions& options_;
    double limit_us_;
    Trace& trace_;
    std::optional<cbr::Request> next_;  ///< copied ahead, so no copy delays a submission
    std::vector<std::future<cbr::RetrievalResult>> futures_;
    std::vector<steady::time_point> scheduled_;
    std::vector<steady::time_point> submitted_;
    std::vector<steady::time_point> returned_;
    std::vector<steady::time_point> completed_;  ///< stamped by the shard workers
    std::size_t submitted_count_ = 0;
    std::size_t oldest_ = 0;
    steady::time_point last_completion_{};
};

std::string backend_of_shard(const ServeSpec& spec, std::size_t shard) {
    if (shard < spec.placement.size() && !spec.placement[shard].empty()) {
        return spec.placement[shard];
    }
    return "cpu-simd";
}

serve::EngineConfig engine_config(const ServeSpec& spec, std::size_t shards) {
    serve::EngineConfig config;
    config.shard_count = shards;
    config.queue_capacity = kQueueCapacity;
    config.admission.policy = spec.policy;
    config.backend = "cpu-simd";  // explicit: the QFA_BACKEND hint must not move placement
    config.shard_backends = spec.placement;
    return config;
}

cbr::RetrievalOptions retrieval_options(const ServeSpec& spec) {
    cbr::RetrievalOptions options;
    options.n_best = spec.n_best;
    return options;
}

backend::DeviceBackend::CostStats device_cost() {
    const auto* device =
        dynamic_cast<const backend::DeviceBackend*>(backend::registry().find("device"));
    return device != nullptr ? device->cost_stats() : backend::DeviceBackend::CostStats{};
}

/// Steal telemetry, while the engine still has it.
template <class Stats>
std::uint64_t stolen_of(const Stats& stats) {
    if constexpr (requires { stats.stolen; }) {
        return stats.stolen;
    } else {
        return 0;
    }
}

struct Rig {
    wl::GeneratedCatalog catalog;
    std::unique_ptr<serve::Engine> engine;
};

/// One set-up: catalogue, engine (its constructor compiles the plans), and
/// a warm-up that touches every type on every shard, so lazily built
/// per-worker state (scratch high-water marks, backend memory images) is
/// in place before anything is timed.
Rig set_up(const ServeSpec& spec, std::uint64_t seed, std::size_t shards) {
    Rig rig;
    util::Rng rng(spec.catalog_seed);
    rig.catalog = wl::generate_catalog_with_bounds(spec.catalog, rng);
    rig.engine =
        std::make_unique<serve::Engine>(rig.catalog.case_base, engine_config(spec, shards));
    util::Rng warm_rng(child_seed(seed, 2));
    std::vector<cbr::Request> warm;
    for (wl::GeneratedRequest& g : wl::generate_request_batch(
             rig.catalog.case_base, rig.catalog.bounds, 2048, warm_rng)) {
        warm.push_back(std::move(g.request));
    }
    (void)rig.engine->retrieve_all(warm, retrieval_options(spec));
    return rig;
}

wl::ArrivalSchedule make_tape(const ServeSpec& spec, const wl::GeneratedCatalog& catalog,
                              double rate, double seconds, std::uint64_t seed) {
    std::vector<wl::OpenLoopTenant> tenants;
    for (const TenantSpec& t : spec.tenants) {
        wl::OpenLoopTenant tenant;
        tenant.tenant = t.id;
        tenant.arrival_rate_hz = rate / static_cast<double>(spec.tenants.size());
        tenant.zipf_s = t.zipf_s;
        tenant.priority = t.priority;
        if (spec.deadlines) {
            tenant.relative_deadline = from_s(spec.latency_limit_us * 1e-6);
        }
        tenants.push_back(tenant);
    }
    wl::OpenLoopConfig config;
    config.seed = seed;
    config.duration = from_s(seconds);
    return wl::build_schedule(catalog.case_base, catalog.bounds, std::move(tenants), config);
}

/// The three phases of one pass, in run order.
struct Pass {
    Phase capacity;
    Phase light;
    Phase heavy;
    serve::EngineStats before;
    serve::EngineStats after;
    backend::DeviceBackend::CostStats device_after;
};

/// Self-check of one phase's served results against the single-threaded
/// compiled reference, split across the host's cores (the engine is idle
/// between phases).  Each checker owns its scratch.
void check_results(RunReport& report, const ServeSpec& spec, const serve::Engine& engine,
                   const Phase& phase, const char* label) {
    const serve::GenerationPtr gen = engine.current();
    const cbr::RetrievalOptions options = retrieval_options(spec);
    const backend::ShardContext ctx{&gen->case_base, &gen->bounds, &gen->compiled, gen->epoch};
    std::vector<std::size_t> items;
    for (std::size_t i = 0; i < phase.outcome.size(); ++i) {
        if (phase.outcome[i] == Outcome::served) {
            items.push_back(i);
        }
    }
    std::mutex failure_mutex;
    std::string first_failure;
    std::atomic<std::uint64_t> divergent{0};
    const std::size_t workers =
        std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            const cbr::Retriever reference(gen->case_base, gen->bounds, gen->compiled);
            cbr::RetrievalScratch scratch;
            for (std::size_t k = w; k < items.size(); k += workers) {
                const std::size_t i = items[k];
                const cbr::Request& request = phase.tape->arrivals[i].generated.request;
                const cbr::RetrievalResult expected =
                    reference.retrieve_compiled(request, options, &scratch);
                const ServedRecord& got = phase.served[i];
                const std::string backend_name =
                    backend_of_shard(spec, engine.shard_of(request.type()));
                bool ok = true;
                if (backend_name == "cpu-simd") {
                    ok = got.digest == digest_of(expected) &&
                         (i >= phase.kept.size() ||
                          cbr::identical_results(expected, phase.kept[i]));
                } else {
                    const backend::RetrievalBackend* be = backend::registry().find(backend_name);
                    const double bound = be != nullptr ? be->similarity_error_bound(ctx, request)
                                                       : 0.0;
                    ok = got.status == expected.status && got.count == expected.matches.size();
                    for (std::size_t r = 0; ok && r < expected.matches.size() &&
                                            r < got.similarity.size();
                         ++r) {
                        ok = std::abs(got.similarity[r] - expected.matches[r].similarity) <= bound;
                    }
                }
                if (!ok) {
                    divergent.fetch_add(1, std::memory_order_relaxed);
                    const std::lock_guard<std::mutex> lock(failure_mutex);
                    if (first_failure.empty()) {
                        first_failure = std::string(label) + " " + phase.name + " arrival " +
                                        std::to_string(i) + " on " + backend_name +
                                        " diverged from Retriever::retrieve_compiled";
                    }
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    if (divergent.load() != 0) {
        report.fail(first_failure + " (" + std::to_string(divergent.load()) + " of " +
                    std::to_string(items.size()) + " served results)");
    }
    report.notes.push_back(std::string(label) + " " + phase.name + " self-check: " +
                           std::to_string(items.size()) +
                           " served results match the compiled reference");
}

/// Outcome identity per phase, and the engine's counters against the
/// outcomes the benchmark saw.
void check_counts(RunReport& report, const Pass& pass, const char* label) {
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t shed = 0;
    for (const Phase* phase : {&pass.capacity, &pass.light, &pass.heavy}) {
        const std::uint64_t total = phase->count(Outcome::served) +
                                    phase->count(Outcome::rejected) +
                                    phase->count(Outcome::expired) + phase->count(Outcome::shed);
        if (total != phase->submitted() || phase->count(Outcome::errored) != 0 ||
            phase->count(Outcome::pending) != 0) {
            report.fail(std::string(label) + " " + phase->name +
                        ": served + rejected + expired + shed != submitted (" +
                        std::to_string(total) + " vs " + std::to_string(phase->submitted()) +
                        ", errored " + std::to_string(phase->count(Outcome::errored)) + ")");
        }
        served += phase->count(Outcome::served);
        rejected += phase->count(Outcome::rejected);
        expired += phase->count(Outcome::expired);
        shed += phase->count(Outcome::shed);
    }
    const serve::EngineStats& a = pass.before;
    const serve::EngineStats& b = pass.after;
    if (b.served - a.served != served || b.rejected - a.rejected != rejected ||
        b.expired - a.expired != expired || b.shed - a.shed != shed) {
        report.fail(std::string(label) + ": EngineStats deltas disagree with the outcomes seen");
    }
}

/// Runs the closed-loop, light and heavy phases.  Each phase's tape is
/// built just before it runs and dropped once its results are checked, so
/// only one tape is in memory at a time; the tapes are pure functions of
/// the seed, so the traced pass replays exactly the untraced pass's input.
void run_pass(RunReport& report, serve::Engine& engine, const ServeSpec& spec,
              const wl::GeneratedCatalog& catalog, const RunConfig& config, Trace& trace,
              std::uint64_t id_base, const char* label, Pass& pass) {
    const cbr::RetrievalOptions options = retrieval_options(spec);
    struct Step {
        Phase* phase;
        const char* name;
        bool open;
        double rate;
        double seconds;
        std::uint64_t stream;
    };
    const double capacity_requests = spec.nominal_capacity_rps * kCapacityShare * config.seconds;
    const Step steps[] = {
        {&pass.capacity, "capacity", false, spec.heavy_rps, capacity_requests / spec.heavy_rps, 3},
        {&pass.light, "light", true, spec.light_rps, kLightShare * config.seconds, 4},
        {&pass.heavy, "heavy", true, spec.heavy_rps, kHeavyShare * config.seconds, 5},
    };
    pass.before = engine.stats();
    for (std::size_t k = 0; k < std::size(steps); ++k) {
        const Step& step = steps[k];
        const wl::ArrivalSchedule tape =
            make_tape(spec, catalog, step.rate, step.seconds, child_seed(config.seed, step.stream));
        Phase& phase = *step.phase;
        phase = Phase{};
        phase.name = step.name;
        phase.tape = &tape;
        phase.open = step.open;
        phase.id_base = id_base + 10'000'000 * k;
        PhaseRunner(engine, phase, options, spec.latency_limit_us, trace).run();
        check_results(report, spec, engine, phase, label);
        for (std::size_t i = 0; i < phase.sojourn_us.size(); ++i) {
            phase.replay.push_back(tape.arrivals[i].generated.request);
        }
        phase.tape = nullptr;
    }
    pass.after = engine.stats();
    pass.device_after = device_cost();
    check_counts(report, pass, label);
}

/// End-to-end metrics of one pass.
std::vector<Metric> end_to_end(RunReport& report, const ServeSpec& spec, const Pass& pass) {
    std::vector<Metric> out =
        open_loop_metrics(report, pass.light.latency, pass.heavy.latency, pass.heavy.submitted());
    pass.capacity.slices.note(report, "capacity_rps", pass.capacity.count(Outcome::served),
                              pass.capacity.elapsed_s,
                              ", window " + std::to_string(kWindowPerShard) + " per shard");
    report.notes.push_back("offered: light " + std::to_string(spec.light_rps) + " 1/s (" +
                           std::to_string(pass.light.submitted()) + " arrivals), heavy " +
                           std::to_string(spec.heavy_rps) + " 1/s (" +
                           std::to_string(pass.heavy.submitted()) + " arrivals); limit " +
                           std::to_string(spec.latency_limit_us) + " us");

    // Generator-lag guard: a late generator hides queueing.
    Samples lag = pass.light.lag_us;
    lag.append(pass.heavy.lag_us);
    const double lag_p99 = lag.percentile_or_zero(0.99);
    report.notes.push_back("workload.gen_lag_us.p99 = " + std::to_string(lag_p99) + " us (n=" +
                           std::to_string(lag.size()) + ", guard " +
                           std::to_string(kLagLimitShare * spec.latency_limit_us) + " us)");
    if (lag_p99 > kLagLimitShare * spec.latency_limit_us) {
        report.invalidate("generator lag p99 " + std::to_string(lag_p99) + " us exceeds " +
                          std::to_string(kLagLimitShare) + " of the latency limit");
    }
    return out;
}

/// Per-layer metrics from the traced pass plus single-thread replays of the
/// pass's served open-loop requests through the core and backend layers.
void per_layer(RunReport& report, const ServeSpec& spec, serve::Engine& engine,
               const Pass& pass, const backend::DeviceBackend::CostStats& device_before,
               Trace& trace, const std::vector<Metric>& untraced,
               const std::vector<Metric>& traced) {
    std::vector<Metric>& out = report.per_layer;
    const auto add = [&](const std::string& name, double value, const std::string& unit) {
        out.push_back(Metric{name, value, unit});
    };
    const Phase* open_phases[] = {&pass.light, &pass.heavy};

    Samples lag;
    Samples admit;
    Samples sojourn;
    std::uint64_t submitted = 0;
    std::uint64_t refused = 0;
    std::uint64_t expired = 0;
    std::uint64_t shed = 0;
    for (const Phase* phase : open_phases) {
        lag.append(phase->lag_us);
        admit.append(phase->admit_ns);
        sojourn.append(phase->sojourn);
        submitted += phase->submitted();
        refused += phase->count(Outcome::rejected);
        expired += phase->count(Outcome::expired);
        shed += phase->count(Outcome::shed);
    }
    const double denom = static_cast<double>(std::max<std::uint64_t>(1, submitted));
    add("workload.gen_lag_us.p99", lag.percentile_or_zero(0.99), "us");
    add("serve.admit_ns.p50", admit.percentile_or_zero(0.50), "ns");
    add("serve.admit_ns.p99", admit.percentile_or_zero(0.99), "ns");
    add("serve.sojourn_us.p50", sojourn.percentile_or_zero(0.50), "us");
    add("serve.sojourn_us.p99", sojourn.percentile_or_zero(0.99), "us");

    // Replay set: the first kReplayArrivals served open-loop arrivals.
    struct Item {
        const Phase* phase;
        std::size_t i;
    };
    std::vector<Item> items;
    for (const Phase* phase : open_phases) {
        for (std::size_t i = 0; i < phase->sojourn_us.size() && items.size() < kReplayArrivals;
             ++i) {
            if (phase->outcome[i] == Outcome::served) {
                items.push_back(Item{phase, i});
            }
        }
    }
    const serve::GenerationPtr gen = engine.current();
    const cbr::RetrievalOptions options = retrieval_options(spec);
    const backend::ShardContext ctx{&gen->case_base, &gen->bounds, &gen->compiled, gen->epoch};

    // Backend layer: each request scored by its home shard's backend, or
    // by cpu-simd where that backend declines it (the engine's fallback).
    std::map<std::string, Samples> score_us;
    std::map<std::string, std::unique_ptr<backend::BackendScratch>> scratches;
    const auto scratch_for = [&](const backend::RetrievalBackend& be) -> backend::BackendScratch& {
        std::unique_ptr<backend::BackendScratch>& scratch = scratches[std::string(be.name())];
        if (!scratch) {
            scratch = be.make_scratch();
        }
        return *scratch;
    };
    std::vector<double> service_us(items.size(), 0.0);
    const std::int64_t backend_root =
        trace.add("backend.replay", 0, -1, steady::now(), steady::now());
    for (std::size_t k = 0; k < items.size(); ++k) {
        const cbr::Request& request = items[k].phase->replay[items[k].i];
        const backend::RetrievalBackend* be =
            backend::registry().find(backend_of_shard(spec, engine.shard_of(request.type())));
        if (!be->can_serve(ctx, request, options, &scratch_for(*be))) {
            be = backend::registry().find("cpu-simd");
        }
        backend::BackendScratch& scratch = scratch_for(*be);
        const steady::time_point t0 = steady::now();
        (void)be->score(ctx, request, options, scratch);
        const steady::time_point t1 = steady::now();
        service_us[k] = to_us(t1 - t0);
        trace.add("backend.score", items[k].phase->id_base + items[k].i, backend_root, t0, t1);
        score_us[std::string(be->name())].add(service_us[k]);
    }
    trace.close(backend_root, steady::now());
    Samples queue_wait;
    for (std::size_t k = 0; k < items.size(); ++k) {
        queue_wait.add(std::max(0.0, items[k].phase->sojourn_us[items[k].i] - service_us[k]));
    }
    add("serve.queue_wait_us.p99", queue_wait.percentile_or_zero(0.99), "us");

    const serve::EngineStats& a = pass.before;
    const serve::EngineStats& b = pass.after;
    add("serve.shard_imbalance", shard_imbalance(a, b), "ratio");
    const double served_delta =
        static_cast<double>(std::max<std::uint64_t>(1, b.served - a.served));
    add("serve.stolen_ratio", static_cast<double>(stolen_of(b) - stolen_of(a)) / served_delta,
        "ratio");
    add("serve.refused_ratio", static_cast<double>(refused) / denom, "ratio");
    add("serve.expired_ratio", static_cast<double>(expired) / denom, "ratio");
    add("serve.shed_ratio", static_cast<double>(shed) / denom, "ratio");

    // Core layer: the exact compiled path, one thread, one scratch.
    CoreReplay core(*gen);
    const std::int64_t core_root = trace.add("core.replay", 0, -1, steady::now(), steady::now());
    for (const Item& item : items) {
        (void)core.scan(item.phase->replay[item.i], options, trace, item.phase->id_base + item.i,
                        core_root);
    }
    trace.close(core_root, steady::now());
    core.report(out);

    for (const char* name : {"cpu-simd", "device", "mblaze"}) {
        const auto it = score_us.find(name);
        add(std::string("backend.score_us.p50.") + name,
            it == score_us.end() ? 0.0 : it->second.percentile_or_zero(0.50), "us");
    }
    std::uint64_t be_served = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t failovers = 0;
    std::uint64_t breaker_opens = 0;
    for (const auto& [name, after] : b.backends) {
        const auto it = a.backends.find(name);
        const serve::EngineStats::BackendStats before =
            it == a.backends.end() ? serve::EngineStats::BackendStats{} : it->second;
        be_served += after.served - before.served;
        fallbacks += after.fallbacks - before.fallbacks;
        failovers += after.failovers - before.failovers;
        breaker_opens += after.breaker_opens - before.breaker_opens;
    }
    add("backend.fallback_ratio",
        static_cast<double>(fallbacks) / static_cast<double>(std::max<std::uint64_t>(1, be_served)),
        "ratio");
    add("backend.failovers", static_cast<double>(failovers), "count");
    add("backend.breaker_opens", static_cast<double>(breaker_opens), "count");

    // The fig. 6 ledger over the traced engine's life (set-up warm-up
    // included: that is where the per-worker images are first programmed).
    const backend::DeviceBackend::CostStats& d = pass.device_after;
    const std::uint64_t runs = d.runs - device_before.runs;
    add("device.cycles_per_run",
        runs > 0 ? static_cast<double>(d.cycles - device_before.cycles) / static_cast<double>(runs)
                 : 0.0,
        "count");
    add("device.reconfigurations",
        static_cast<double>(d.reconfigurations - device_before.reconfigurations), "count");

    add_overheads(out, untraced, traced);
}

RunReport run_serve(const ServeSpec& spec, const RunConfig& config) {
    RunReport report;
    if (spec.placement.size() > config.shards) {
        // Fewer shards than placed backends would drop a backend, and with
        // it the layers this workload exists to measure.
        report.invalidate(std::to_string(spec.placement.size()) + " backends placed on " +
                          std::to_string(config.shards) +
                          " shards: the host has too few cores for this workload");
        return report;
    }
    Rig rig;
    backend::DeviceBackend::CostStats device_before;
    const double setup_s = median_setup_s(report, [&] {
        rig = Rig{};  // the previous engine joins its workers before the next is built
        device_before = device_cost();
        const steady::time_point t0 = steady::now();
        rig = set_up(spec, config.seed, config.shards);
        return to_s(steady::now() - t0);
    });
    serve::Engine& engine = *rig.engine;

    Trace untraced_trace(false);
    Pass pass;
    run_pass(report, engine, spec, rig.catalog, config, untraced_trace, 0, "untraced", pass);
    report.end_to_end = end_to_end(report, spec, pass);
    report.end_to_end.push_back(Metric{"setup_s", setup_s, "s"});
    for (const Phase* phase : {&pass.capacity, &pass.light, &pass.heavy}) {
        report.attempted += phase->submitted();
        report.failed += phase->submitted() - phase->count(Outcome::served);
    }

    if (config.trace) {
        Trace trace(true);
        Pass traced;
        run_pass(report, engine, spec, rig.catalog, config, trace, 100'000'000, "traced",
                 traced);
        RunReport scratch_report;
        const std::vector<Metric> traced_e2e = end_to_end(scratch_report, spec, traced);
        per_layer(report, spec, engine, traced, device_before, trace, report.end_to_end,
                  traced_e2e);
        if (!config.trace_path.empty()) {
            report.notes.push_back(trace.write_jsonl(config.trace_path)
                                       ? std::to_string(trace.spans().size()) +
                                             " spans written to " + config.trace_path
                                       : "could not write spans to " + config.trace_path);
        }
    }
    return report;
}

wl::CatalogConfig catalog_shape(std::uint16_t types, std::uint16_t impls, double dropout) {
    wl::CatalogConfig c;
    c.function_types = types;
    c.impls_per_type = impls;
    c.attrs_per_impl = 10;
    c.attr_dropout = dropout;
    return c;
}

}  // namespace

// Why each workload exists is recorded in perfbench/BENCH.md.

RunReport run_serve_small(const RunConfig& config) {
    ServeSpec spec;
    spec.name = "serve_small";
    spec.catalog_seed = 0x5e7e5a11;
    spec.catalog = catalog_shape(64, 64, 0.2);
    spec.tenants = {{0, 0.5, 10}, {1, 0.5, 10}, {2, 0.5, 10}, {3, 0.5, 10}};
    spec.n_best = 4;
    spec.light_rps = 90'000;
    spec.heavy_rps = 180'000;
    spec.latency_limit_us = 50'000;
    spec.nominal_capacity_rps = 200'000;
    return run_serve(spec, config);
}

RunReport run_serve_large_skew(const RunConfig& config) {
    ServeSpec spec;
    spec.name = "serve_large_skew";
    spec.catalog_seed = 0x5e7e1a26;
    spec.catalog = catalog_shape(8, 32768, 0.2);
    spec.tenants = {{0, 1.1, 5}, {1, 1.1, 10}, {2, 1.1, 20}};
    spec.n_best = 4;
    spec.policy = serve::AdmissionPolicy::shed_lowest;
    spec.deadlines = true;
    spec.light_rps = 1'400;
    spec.heavy_rps = 2'100;
    spec.latency_limit_us = 200'000;
    spec.nominal_capacity_rps = 4'670;
    return run_serve(spec, config);
}

RunReport run_serve_hw_mixed(const RunConfig& config) {
    ServeSpec spec;
    spec.name = "serve_hw_mixed";
    spec.catalog_seed = 0x5e7eb0a3;
    spec.catalog = catalog_shape(15, 10, 0.0);  // Table 3 shape, dense attribute lists
    spec.tenants = {{0, 0.5, 10}, {1, 0.5, 10}};
    spec.n_best = 1;  // the soft core has a single result register
    spec.placement = {"cpu-simd", "device", "mblaze"};
    spec.light_rps = 27'600;
    spec.heavy_rps = 64'400;
    spec.latency_limit_us = 50'000;
    spec.nominal_capacity_rps = 92'000;
    return run_serve(spec, config);
}

}  // namespace perfbench
