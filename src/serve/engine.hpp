// The sharded serving engine — fig. 1's allocation manager as an always-on
// multi-core service.
//
// §5's outlook is explicit: the allocation manager is meant to serve "the
// dynamic allocation of functions requested by several applications" at run
// time, and the retrieval unit exists because software retrieval was the
// bottleneck (§4's ~8.5x hardware speedup).  On a multi-core host the same
// bottleneck is answered with parallelism instead of RTL: this engine
// partitions the compiled type plans (core/compiled.hpp) across worker
// threads and serves retrievals from all cores at once.
//
//  * Sharding.  Function types are distributed over `shard_count` shards by
//    TypeId (shard_of).  Every request names exactly one type (fig. 4's
//    request list starts with the basic-function id), so a request is
//    served entirely by one shard — no cross-shard coordination, no
//    locking on the hot path.  Each worker owns a private RetrievalScratch,
//    so steady-state retrieval performs no allocation and no sharing.
//  * Queueing.  Producers (application threads) push jobs into the target
//    shard's bounded MPMC queue (serve/queue.hpp) and receive a
//    std::future for the result; backpressure is by blocking at capacity.
//    Every shard queue is FIFO: a deadline (serve/admission.hpp) is
//    refused at admission when already infeasible and expired on dequeue
//    once passed, but never reorders service.
//  * Epochs.  The catalogue lives in a PlanStore (serve/generation.hpp).
//    Workers pin the current Generation per job; retain()/revise() build
//    the successor with an incremental plan patch and publish it with one
//    atomic swap — readers never block on a writer, writers never wait for
//    readers (§5's "dynamic update mechanisms" without a stop-the-world).
//  * Stealing (opt-in, EngineConfig::steal).  A worker whose queue runs
//    dry takes the exact job a backlogged sibling's pop() would serve
//    next, epoch-pinned at service time — skew-proofing for Zipf-hot
//    types.  See docs/ARCHITECTURE.md §3.
//
// Bit-identity: a retrieval served by any shard at epoch E performs exactly
// the floating-point / Q15 operations of the single-threaded
// Retriever::retrieve_compiled against generation E — sharding only decides
// *where* a plan is scored, never *how*.
//
// Beyond retrievals, the shards double as a general execution substrate:
// execute() / execute_batch() enqueue type-erased closures that run on a
// named shard's worker thread, interleaved FIFO with that shard's
// retrieval jobs.  Layers above use this to follow the workload onto the
// cores without spawning threads of their own — the allocation manager's
// batch pipeline runs its bypass-probe stage and its speculative
// feasibility stage this way (alloc/manager.cpp).
//
// Thread safety: submit / submit_batch / retrieve_all / execute /
// execute_batch / retain / add_type / remove_implementation / current /
// epoch / stats are all safe from any thread.  Mutations serialize on an
// internal writer mutex; retrievals never take it.  shutdown() (and the
// destructor) closes the queues, drains accepted jobs and joins the
// workers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "backend/backend.hpp"
#include "core/retain.hpp"
#include "core/retrieval.hpp"
#include "serve/admission.hpp"
#include "serve/generation.hpp"
#include "serve/queue.hpp"
#include "util/rng.hpp"

namespace qfa::serve {

/// Work-stealing knobs (EngineConfig::steal).  Stealing answers shard
/// skew: TypeId sharding turns a Zipf-hot type into one hot worker while
/// its siblings idle, so p999 under 90/10 skew is queue-depth-bound, not
/// hardware-bound.  A thief only ever takes the EXACT job the victim's own
/// pop() would serve next (the FIFO front), so a steal can never bypass an
/// earlier-arrived job the home worker would have taken — it only moves
/// that job to an idle core.  Execute closures are never stolen (they are
/// the run-on-*this*-shard primitive; moving one would change which thread
/// runs it).  A worker steals only when its own queue is dry.
struct StealConfig {
    /// Off by default: stealing changes only *when/where* a queued job
    /// runs, never what it computes, but it relaxes execute()'s
    /// same-shard FIFO-interleave guarantee (a stolen retrieval may
    /// complete on another worker after an execute enqueued behind it), so
    /// it is opt-in.
    bool enabled = false;
    /// A victim qualifies only at this backlog depth or more — stealing
    /// the last queued job from a worker that is about to pop it anyway is
    /// churn, not balance.
    std::size_t min_victim_depth = 2;
};

/// Fault-tolerance knobs (EngineConfig::fault): what the engine does when
/// a backend that ACCEPTED a request fails at runtime (backend.hpp's
/// BackendError vocabulary — capability declines stay on the counted
/// cpu-simd fallback path and never touch these).
///
/// The recovery ladder per request: retryable failures (transient /
/// timeout / integrity) get up to `max_retries` re-submissions against the
/// same backend with deterministic linear backoff; exhaustion — or a
/// permanent failure — fails the request over to the exact cpu-simd
/// fallback.  Because cpu-simd is exact and failover is per-request, a
/// request served through ANY point of the ladder returns the same bits
/// the all-cpu-simd reference would.
///
/// The circuit breaker (per shard × assigned backend) quarantines a
/// backend that keeps failing: `breaker_threshold` consecutive failures
/// open it (traffic goes straight to fallback, no scoring attempt), the
/// next `breaker_cooldown` requests ride out the quarantine, then the
/// breaker half-opens and probes with REAL requests — one probe success
/// closes it, a probe failure reopens a full cooldown.  Every transition
/// is counted in EngineStats.
struct FaultToleranceConfig {
    /// Retries per request for retryable failures before failover; the
    /// first attempt is not a retry.  0 = fail over immediately.
    std::size_t max_retries = 2;
    /// Deterministic linear backoff: the k-th retry (1-based) sleeps
    /// k * backoff_base on the worker.  Zero = no sleep (tests, and any
    /// deployment where the fallback is cheaper than waiting).
    std::chrono::steady_clock::duration backoff_base = std::chrono::microseconds(100);
    /// Consecutive failures (across requests, counted per attempt) that
    /// open the breaker.  0 disables the breaker entirely.
    std::size_t breaker_threshold = 8;
    /// Requests routed straight to fallback while open before the breaker
    /// half-opens and probes.
    std::size_t breaker_cooldown = 64;
    /// poll() attempts per submit before the silence becomes a `timeout`
    /// failure (stuck-ticket guard).  0 = unbounded — then only engine
    /// shutdown interrupts a ticket that never completes.
    std::size_t poll_budget = 4096;
};

/// Engine shape knobs.
struct EngineConfig {
    std::size_t shard_count = 4;      ///< worker threads / plan partitions
    std::size_t queue_capacity = 1024;  ///< per-shard backlog bound
    AdmissionConfig admission;        ///< overload knobs for the try_submit path
    StealConfig steal;                ///< skew answer: epoch-pinned work stealing
    /// Retrieval backend every shard scores through, by registry name
    /// (src/backend: "cpu-simd", "mblaze", "device").  Empty = the
    /// registry default (the QFA_BACKEND environment variable when it
    /// names a registered backend, else cpu-simd — so the default engine
    /// stays bit-identical to the pre-backend compiled path).  An unknown
    /// name here throws from the constructor: explicit config is a
    /// contract, only the env hint degrades silently.
    std::string backend;
    /// Per-shard placement override: element i names shard i's backend,
    /// "" falls through to `backend` above.  Shorter vectors pad with ""
    /// (so {"mblaze"} puts only shard 0 on the soft core).  A request is
    /// always scored by its HOME shard's backend — work stealing moves
    /// *where* a job runs, never which backend scores it.
    std::vector<std::string> shard_backends;
    /// Runtime-failure handling: retry/backoff, per-(shard, backend)
    /// circuit breaker, exact-fallback failover.  See FaultToleranceConfig.
    FaultToleranceConfig fault;
};

/// Monotone counters (mirrors ManagerStats' role for the serve layer).
///
/// Snapshot coherence: stats() reads every completion-side counter
/// (`served`, `expired`, `shed`) before `submitted`, with release/acquire
/// ordering on the completion side, so any snapshot satisfies
/// `served + expired + shed <= submitted` — a caller can treat
/// `submitted - served - expired - shed` as the non-negative in-flight
/// backlog.  Counters are otherwise independently monotone; two snapshots
/// taken around a mutation may disagree on how far each counter advanced.
struct EngineStats {
    /// Per-tenant outcome slice (admission-path traffic carries a TenantId;
    /// the blocking closed-loop paths land on tenant 0 only when they pass
    /// JobClasses).
    struct TenantStats {
        std::uint64_t admitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t expired = 0;
        std::uint64_t shed = 0;
        std::uint64_t served = 0;
    };

    /// Per-backend outcome slice.  `served` counts retrievals this backend
    /// actually scored (stolen jobs included — attribution follows the
    /// scoring backend, not the executing worker); `fallbacks` counts
    /// retrievals ASSIGNED to this backend that it declined via
    /// can_serve(), each of which was then scored — and counted served —
    /// by cpu-simd.  Declines are never silent: every fallback shows here.
    ///
    /// The fault-tolerance slice (FaultToleranceConfig) keys on the
    /// ASSIGNED backend too: `retries` counts re-submissions after a
    /// retryable failure, `failovers` counts requests rescored by cpu-simd
    /// after this backend failed (runtime failures; capability declines
    /// are `fallbacks`) or while its breaker was open, `breaker_opens` /
    /// `breaker_closes` / `probes` expose every breaker transition, and
    /// `integrity_rebuilds` counts checksum mismatches detected before
    /// scoring (each forced an image rebuild — corrupted images are never
    /// served).  No silent degradation: a fault-free run shows zeros.
    struct BackendStats {
        std::uint64_t served = 0;
        std::uint64_t fallbacks = 0;
        std::uint64_t retries = 0;
        std::uint64_t failovers = 0;
        std::uint64_t breaker_opens = 0;
        std::uint64_t breaker_closes = 0;
        std::uint64_t probes = 0;
        std::uint64_t integrity_rebuilds = 0;
    };

    std::uint64_t submitted = 0;        ///< jobs accepted into a queue
    std::uint64_t served = 0;           ///< jobs completed by workers
                                        ///< (retrievals and executes); expired
                                        ///< and shed jobs are NOT served
    std::uint64_t executed = 0;         ///< execute()/execute_batch closures
                                        ///< completed (subset of `served`)
    std::uint64_t retains = 0;          ///< successful retain() calls
    std::uint64_t published_epochs = 0; ///< generations published (every one
                                        ///< built by incremental patching)
    /// COW sharing telemetry (ROADMAP): of the type plans carried by all
    /// published epochs, how many were pointer-aliased from the
    /// predecessor epoch rather than spliced/cloned.  The sharing ratio
    /// `cow_plans_shared / cow_plans_published` is the per-epoch
    /// publication cost long-running serving wants to watch — near 1 means
    /// epochs cost a splice plus pointer copies, near 0 means widened
    /// bounds keep forcing clones.
    std::uint64_t cow_plans_shared = 0;     ///< plans aliased across publishes
    std::uint64_t cow_plans_published = 0;  ///< plans carried by publishes
    // Overload pipeline (admission → expiry → shed; serve/admission.hpp):
    std::uint64_t admitted = 0;  ///< accepted by try_submit/submit_until
                                 ///< (subset of `submitted`)
    std::uint64_t rejected = 0;  ///< typed admission refusals — these never
                                 ///< entered a queue and are NOT in `submitted`
    std::uint64_t expired = 0;   ///< dropped on dequeue past their deadline
    std::uint64_t shed = 0;      ///< evicted from a backlog by the shedder
    // Steal telemetry (StealConfig).  `stolen` counts jobs served by a
    // worker other than their home shard's; `shard_stolen[s]` attributes
    // each steal to the HOME (victim) shard s it was taken from — keyed by
    // shard_of, which is stable across runs and engine instances of equal
    // shard count, so victim profiles are comparable across processes.
    // `stolen` is Σ shard_stolen.  Stolen jobs participate in the usual
    // coherence: a stolen job is counted in `served` (and `shard_served`)
    // by its EXECUTING worker, and the per-shard stolen counters are read
    // acquire before `submitted`, so stolen <= served <= submitted holds
    // in any snapshot.
    std::uint64_t stolen = 0;            ///< jobs served off their home shard
    std::vector<std::uint64_t> shard_stolen;  ///< steals per HOME (victim) shard
    std::vector<std::uint64_t> shard_served;  ///< per-shard completion counts
    std::map<TenantId, TenantStats> tenants;  ///< per-tenant outcome slices
    /// Per-backend outcome slices, one entry per registered backend (all
    /// present even when zero, so dashboards see stable keys).  Counter
    /// coherence: served/fallback counts are bumped release before the
    /// job's promise resolves and read acquire before `submitted`, so
    /// Σ backends.served <= submitted in any snapshot.
    std::map<std::string, BackendStats> backends;
};

class Engine {
public:
    /// Spawns the shard workers over an initial catalogue; design-global
    /// bounds are derived from the tree (BoundsTable::from_case_base), and
    /// only widen afterwards as retain() covers new values.
    explicit Engine(cbr::CaseBase initial, EngineConfig config = {});

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Joins the workers after draining accepted jobs.
    ~Engine();

    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

    /// Deterministic mix (util::mix64, the SplitMix64 finalizer) applied
    /// to a TypeId before the shard modulo.  Raw ids are often allocated
    /// on a stride — a catalogue numbering its types 0, S, 2S, ... with S
    /// a multiple of the shard count would collapse onto one worker under
    /// a plain modulo; the finalizer's avalanche spreads any arithmetic
    /// progression evenly.  Pure function of the id: the mapping is stable
    /// across runs, processes and engine instances of equal shard count.
    [[nodiscard]] static constexpr std::uint64_t mix_type_id(std::uint64_t id) noexcept {
        return util::mix64(id);
    }

    /// The shard that owns a function type's plan: mix_type_id(id) modulo
    /// the shard count.
    [[nodiscard]] std::size_t shard_of(cbr::TypeId type) const noexcept {
        return static_cast<std::size_t>(mix_type_id(type.value()) % shards_.size());
    }

    /// Enqueues one retrieval on the owning shard.  The future resolves to
    /// the same result the single-threaded compiled path produces at the
    /// pinned epoch; it carries an exception if the engine is shut down
    /// before the job runs.
    /// The allocation layer's batch front-end
    /// (AllocationManager::allocate_batch) fans its AllocRequests out
    /// through this, mapping each request's QoS knobs (n_best width, §3
    /// threshold) onto the options — the serve layer itself stays below
    /// alloc and knows nothing about grants.
    [[nodiscard]] std::future<cbr::RetrievalResult> submit(cbr::Request request,
                                                           cbr::RetrievalOptions options = {});

    /// Bulk enqueue: groups the requests by owning shard and feeds each
    /// shard's jobs with ONE queue lock acquisition per shard per batch
    /// (BoundedMpmcQueue::push_all) instead of one per job.  futures[i]
    /// belongs to requests[i] and resolves exactly as submit(requests[i],
    /// options[i]) would — grouping changes how jobs enter the queues,
    /// never what a shard computes.  `options` must be the same size as
    /// `requests` (per-request QoS knobs, the alloc batch front-end) or a
    /// single element broadcast to every request.  Jobs refused by a
    /// closed queue resolve to the shut-down exception.
    [[nodiscard]] std::vector<std::future<cbr::RetrievalResult>> submit_batch(
        std::span<const cbr::Request> requests,
        std::span<const cbr::RetrievalOptions> options);

    /// submit_batch with one options set for the whole batch.
    [[nodiscard]] std::vector<std::future<cbr::RetrievalResult>> submit_batch(
        std::span<const cbr::Request> requests, const cbr::RetrievalOptions& options = {}) {
        return submit_batch(requests, std::span<const cbr::RetrievalOptions>(&options, 1));
    }

    /// Classed bulk enqueue: submit_batch plus per-request SLO classes
    /// (tenant, priority, deadline, completion stamp).  Still the blocking
    /// closed-loop path — producers wait at capacity — but workers now
    /// honor deadlines: a request infeasible already at submission resolves
    /// immediately with DeadlineExceeded (counted rejected), and one whose
    /// deadline passes while queued resolves with DeadlineExceeded at
    /// dequeue (counted expired).  `classes` is per-request, one broadcast
    /// element, or empty (= unclassed, exactly the 2-arg overload).
    [[nodiscard]] std::vector<std::future<cbr::RetrievalResult>> submit_batch(
        std::span<const cbr::Request> requests,
        std::span<const cbr::RetrievalOptions> options, std::span<const JobClass> classes);

    /// Non-blocking admission (the open-loop path): never waits at
    /// capacity.  Refusals are typed — queue_full (backlog or inflight
    /// bound hit, after shedding under AdmissionPolicy::shed_lowest),
    /// shutting_down, deadline_infeasible (cls.deadline <= now) — and a
    /// refused result carries NO future: the status is the whole answer and
    /// the request never entered a queue.  Admitted requests resolve like
    /// submit()'s, or with DeadlineExceeded / LoadShed when the overload
    /// pipeline drops them later (never silently).
    [[nodiscard]] AdmissionResult try_submit(cbr::Request request,
                                             cbr::RetrievalOptions options = {},
                                             JobClass cls = {});

    /// try_submit with patience: blocks on a full backlog, but only until
    /// `admit_by`.  Still full then → queue_full.  All counters move once,
    /// at the final outcome, regardless of how many internal retries the
    /// wait took.
    [[nodiscard]] AdmissionResult submit_until(cbr::Request request,
                                               cbr::RetrievalOptions options,
                                               std::chrono::steady_clock::time_point admit_by,
                                               JobClass cls = {});

    /// One type-erased closure bound for one shard (execute_batch input).
    struct ShardTask {
        std::size_t shard = 0;      ///< must be < shard_count()
        std::function<void()> fn;   ///< runs on that shard's worker thread
    };

    /// Run-on-shard primitive: enqueues a type-erased closure on shard
    /// `shard`'s queue, FIFO-interleaved with that shard's retrieval jobs,
    /// and returns a future that resolves when the closure has run (or
    /// carries the closure's exception, or the shut-down error when the
    /// engine stopped first).  The closure runs on the worker thread with
    /// no lock held — it must synchronize access to shared state itself
    /// and must not block on work queued behind it on the same shard
    /// (deadlock: one worker drains each queue).  Layers above use this to
    /// fan read-mostly stages across the cores — see the header comment.
    [[nodiscard]] std::future<void> execute(std::size_t shard, std::function<void()> fn);

    /// Bulk run-on-shard: groups the tasks by target shard and feeds each
    /// shard's queue with one push_all per batch, exactly as submit_batch
    /// does for retrievals.  futures[i] belongs to tasks[i]; tasks bound
    /// for the same shard run in input order.  Tasks refused by a closed
    /// queue resolve to the shut-down exception.
    [[nodiscard]] std::vector<std::future<void>> execute_batch(std::span<ShardTask> tasks);

    /// Blocking batch helper: submit_batch (bulk per-shard enqueue), waits
    /// for all, and returns results in input order — bit-identical to
    /// Retriever::retrieve_batch on the current generation.
    [[nodiscard]] std::vector<cbr::RetrievalResult> retrieve_all(
        std::span<const cbr::Request> requests, const cbr::RetrievalOptions& options = {});

    /// Retain (§5 self-learning): novelty-checks and inserts the variant,
    /// then publishes a new epoch whose plans were *patched*, not
    /// recompiled (one row splice into the type's columns).  Readers keep
    /// scoring the old epoch until their in-flight request completes.
    cbr::RetainVerdict retain(cbr::TypeId type, cbr::Implementation impl,
                              double novelty_threshold = 0.98);

    /// Adds an (empty) function type and publishes the successor epoch.
    bool add_type(cbr::TypeId id, std::string name);

    /// Removes one variant (the revise step's primitive) and publishes the
    /// successor epoch; the changed type's plan is recompiled (removal has
    /// no splice fast path), everything else is patched.
    bool remove_implementation(cbr::TypeId type, cbr::ImplId impl);

    /// Pins the current generation — e.g. to rebind an AllocationManager to
    /// the served catalogue without recompiling (the generation already
    /// carries compiled plans).  Safe to hold across later publishes.
    [[nodiscard]] GenerationPtr current() const noexcept { return store_.load(); }

    /// Epoch of the current generation (== the master case base's mutation
    /// counter).
    [[nodiscard]] std::uint64_t epoch() const noexcept { return store_.load()->epoch; }

    /// Retain/revise bookkeeping of the master case base.
    [[nodiscard]] cbr::MaintenanceStats maintenance_stats() const;

    [[nodiscard]] EngineStats stats() const;

    /// Closes the queues, drains accepted jobs, joins workers.  Idempotent;
    /// submissions after shutdown resolve to a broken-engine exception.
    void shutdown();

private:
    /// Per-tenant atomic outcome counters, materialized on first use and
    /// owned by tenants_ (stable addresses: jobs carry the raw pointer so
    /// workers and the shedder never touch the map or its mutex).
    /// shed_debt is the fairness ledger: the shedder picks its victim from
    /// the tenant shed from LEAST so far, spreading eviction across tenants
    /// instead of starving whichever one is easiest to hit.
    struct TenantCounters {
        std::atomic<std::uint64_t> admitted{0};
        std::atomic<std::uint64_t> rejected{0};
        std::atomic<std::uint64_t> expired{0};
        std::atomic<std::uint64_t> shed{0};
        std::atomic<std::uint64_t> served{0};
        std::atomic<std::uint64_t> shed_debt{0};
    };

    /// Per-backend atomic outcome counters, one per registered backend,
    /// materialized in the constructor (stable addresses: shard-backend
    /// slots carry raw pointers so the hot path never touches the map).
    struct BackendCounters {
        std::atomic<std::uint64_t> served{0};
        std::atomic<std::uint64_t> fallbacks{0};
        std::atomic<std::uint64_t> retries{0};
        std::atomic<std::uint64_t> failovers{0};
        std::atomic<std::uint64_t> breaker_opens{0};
        std::atomic<std::uint64_t> breaker_closes{0};
        std::atomic<std::uint64_t> probes{0};
        std::atomic<std::uint64_t> integrity_rebuilds{0};
    };

    /// One (shard, backend) health state machine: closed → open →
    /// half-open → closed (see FaultToleranceConfig).  Mutex-guarded —
    /// thieves serve jobs whose HOME shard they don't own, so two workers
    /// can touch one shard's breaker concurrently; the healthy path pays
    /// one uncontended lock per non-fallback dispatch.
    struct Breaker {
        enum class State : std::uint8_t { closed, open, half_open };
        std::mutex mutex;
        State state = State::closed;
        std::size_t failures = 0;       ///< consecutive attempt failures (closed)
        std::size_t cooldown_left = 0;  ///< fallback-routed requests until half-open
        bool probe_inflight = false;    ///< one real-request probe at a time
    };

    /// What the breaker tells the dispatcher to do with one request.
    enum class BreakerDecision : std::uint8_t {
        serve,     ///< closed: score on the assigned backend
        probe,     ///< half-open: score on the assigned backend as THE probe
        fallback,  ///< open (or a probe is already in flight): straight to cpu-simd
    };

    /// One shard's resolved backend assignment (constructor-final; workers
    /// read it without synchronization).  `breaker` is non-null exactly
    /// when the assignment can fail over (assigned != cpu-simd) and the
    /// breaker is enabled (fault.breaker_threshold > 0).
    struct ShardBackend {
        const backend::RetrievalBackend* assigned = nullptr;
        BackendCounters* counters = nullptr;
        std::unique_ptr<Breaker> breaker;
    };

    /// One worker's per-backend scratch set, grown lazily as backends
    /// score on this worker (a thief may serve a shard whose backend it
    /// has not met yet).  Linear scan: a worker ever meets at most the
    /// registered-backend count of entries.
    struct WorkerScratch {
        std::vector<std::pair<const backend::RetrievalBackend*,
                              std::unique_ptr<backend::BackendScratch>>>
            entries;

        backend::BackendScratch& for_backend(const backend::RetrievalBackend& be) {
            for (auto& [owner, scratch] : entries) {
                if (owner == &be) {
                    return *scratch;
                }
            }
            entries.emplace_back(&be, be.make_scratch());
            return *entries.back().second;
        }
    };

    /// A queued n-best retrieval (the original job kind).
    struct RetrieveJob {
        cbr::Request request;
        cbr::RetrievalOptions options;
        std::promise<cbr::RetrievalResult> promise;
        JobClass cls{};                    ///< tenant / priority / deadline / stamp
        TenantCounters* tenant = nullptr;  ///< null = unclassed (never shed)
        bool counted_inflight = false;     ///< admitted via try_submit/submit_until
        std::chrono::steady_clock::time_point enqueued_at{};  ///< latency watermark input
    };

    /// A queued type-erased closure (the run-on-shard job kind).  The
    /// promise<void> resolves after fn() returns, or carries fn's
    /// exception.
    struct ExecuteJob {
        std::function<void()> fn;
        std::promise<void> promise;
    };

    /// One shard serves both kinds from one FIFO, so an execute enqueued
    /// after a retrieval on the same shard observes that retrieval's
    /// completion (and vice versa).
    using Job = std::variant<RetrieveJob, ExecuteJob>;

    struct Shard {
        explicit Shard(std::size_t capacity) : queue(capacity) {}
        BoundedMpmcQueue<Job> queue;
        std::thread worker;
        std::atomic<std::uint64_t> served{0};  ///< completions BY this worker
        std::atomic<std::uint64_t> stolen{0};  ///< jobs stolen FROM this queue
    };

    void worker_loop(std::size_t self);

    /// Serves one dequeued job on the calling worker (`self` is its shard,
    /// for completion attribution): expiry check, per-job epoch pin,
    /// backend dispatch / closure run, promise resolution, counters.
    /// Identical whether the job came from self's own queue or was stolen
    /// — the epoch is pinned HERE, at service time, and the backend is the
    /// HOME shard's (shard_of the request's type, not `self`), so a stolen
    /// retrieval resolves against the generation current at its dequeue
    /// and through the very backend home execution would have used.
    /// The dispatch site is fully guarded: ANY exception out of a backend
    /// (or the dispatch ladder itself) resolves the job's future instead
    /// of propagating into — and killing — the worker thread.
    void serve_job(Shard& self, Job job, WorkerScratch& scratch);

    /// The fault-tolerant dispatch ladder for one retrieval: breaker
    /// admission, guarded can_serve (a decline = counted fallback; a throw
    /// = runtime failure), bounded retry with backoff for retryable
    /// failures, then per-request failover to cpu-simd.  `counters` is set
    /// to the backend slice the result should be attributed to.  Throws
    /// only for failures no fallback can absorb (engine shutdown mid-poll;
    /// the exact fallback itself failing).
    cbr::RetrievalResult dispatch_retrieval(RetrieveJob& job,
                                            const backend::ShardContext& ctx,
                                            WorkerScratch& scratch,
                                            BackendCounters*& counters);

    /// One submit/poll round against `be` with the configured poll budget.
    /// A ticket still pending at the budget throws BackendError(timeout);
    /// a pending ticket also checks stopped_ between polls, so engine
    /// shutdown interrupts a stuck ticket (eager backends complete on the
    /// first poll and are never interrupted — accepted jobs still drain).
    cbr::RetrievalResult score_async(const backend::RetrievalBackend& be,
                                     const backend::ShardContext& ctx,
                                     const RetrieveJob& job,
                                     backend::BackendScratch& be_scratch) const;

    /// Breaker admission for one request against its home assignment.
    BreakerDecision breaker_admit(ShardBackend& home);

    /// Books one attempt outcome into the breaker state machine.
    /// `probing` marks the half-open real-request probe.
    void breaker_on_success(ShardBackend& home, bool probing);
    void breaker_on_failure(ShardBackend& home, bool probing);

    /// Releases the probe slot with no verdict (the probe request never
    /// reached scoring: a capability decline, or shutdown).
    void breaker_probe_abort(ShardBackend& home);

    /// One steal attempt by worker `thief`: scans sibling queues deepest
    /// backlog first (ties by shard index), skips victims below
    /// steal_.min_victim_depth, and extracts exactly the job the victim's
    /// pop() would serve next — declining (and moving to the next victim)
    /// when that job is an execute closure.  Books the steal telemetry on
    /// success.
    std::optional<Job> try_steal(std::size_t thief);

    /// The extract() selector of the steal path: 0 (the FIFO front the
    /// victim's pop() would serve next) when that job is a retrieval,
    /// else items.size() — declining an ExecuteJob front or empty queue.
    static std::size_t steal_slot(const std::deque<Job>& items);

    /// Feeds shard-grouped jobs with one push_all per shard; jobs refused
    /// by a closed queue resolve their promises to the shut-down error.
    void enqueue_grouped(std::vector<std::vector<Job>>& grouped);

    /// Counters for `tenant`, materializing them on first use.
    TenantCounters& tenant_counters(TenantId tenant);

    /// One admission attempt.  Counts no rejection and does not consume
    /// `request` (the job copies it) so submit_until can retry; the public
    /// entry points count the final outcome exactly once.
    AdmissionResult try_admit(const cbr::Request& request,
                              const cbr::RetrievalOptions& options, const JobClass& cls);

    /// Evicts the lowest-priority queued retrieval strictly below
    /// `incoming_priority` from `shard` (ties: least-shed tenant, then
    /// oldest).  The victim's future resolves with LoadShed.  False when no
    /// sheddable job exists.
    bool shed_one(Shard& shard, std::uint8_t incoming_priority);

    /// Books one refusal (global + tenant) and wraps it as a result.
    AdmissionResult count_rejected(AdmissionStatus status, const JobClass& cls);

    /// Builds and publishes the successor generation for a mutation of
    /// `changed`.  Caller holds writer_mutex_.
    void publish_locked(cbr::TypeId changed);

    /// Resolves config.backend / config.shard_backends against the
    /// registry into shard_backend_ and the counter map (constructor
    /// only; throws std::invalid_argument on an unknown explicit name).
    void resolve_backends(const EngineConfig& config);

    cbr::DynamicCaseBase master_;   ///< writer-side truth; guarded by writer_mutex_
    PlanStore store_;               ///< reader-side publication point
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ShardBackend> shard_backend_;  ///< per-shard assignment (final)
    const backend::RetrievalBackend* fallback_backend_ = nullptr;  ///< cpu-simd
    BackendCounters* fallback_counters_ = nullptr;
    /// One counter slot per registered backend (stable addresses).
    std::map<std::string, std::unique_ptr<BackendCounters>, std::less<>> backend_counters_;
    AdmissionConfig admission_;
    StealConfig steal_;
    FaultToleranceConfig fault_;
    mutable std::mutex writer_mutex_;
    std::mutex shutdown_mutex_;
    mutable std::mutex tenant_mutex_;  ///< guards tenants_ (the map, not the counters)
    std::map<TenantId, std::unique_ptr<TenantCounters>> tenants_;
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> inflight_{0};  ///< admission-path jobs unresolved
    std::atomic<std::uint64_t> retains_{0};
    std::atomic<std::uint64_t> published_epochs_{0};
    std::atomic<std::uint64_t> cow_plans_shared_{0};
    std::atomic<std::uint64_t> cow_plans_published_{0};
    std::atomic<bool> stopped_{false};
};

}  // namespace qfa::serve
