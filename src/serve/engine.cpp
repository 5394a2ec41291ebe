#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace qfa::serve {

namespace {

/// How long an idle stealing worker parks on its own queue between victim
/// scans.  Bounds steal latency from one side and scan overhead from the
/// other; a home push wakes the park early.
constexpr std::chrono::microseconds kStealPark{200};

/// The exception a submission resolves to when the engine stopped first.
std::exception_ptr engine_stopped() {
    return std::make_exception_ptr(std::runtime_error("serve engine is shut down"));
}

/// Thrown by score_async when shutdown lands while a ticket is pending —
/// derives from runtime_error with the same message engine_stopped()
/// carries, so the job's future reports "shut down" whether the engine
/// stopped before the job ran or mid-poll.
struct ShutdownInterrupt : std::runtime_error {
    ShutdownInterrupt() : std::runtime_error("serve engine is shut down") {}
};

}  // namespace

Engine::Engine(cbr::CaseBase initial, EngineConfig config)
    : master_(std::move(initial)),
      store_(make_generation(master_.epoch(), master_.snapshot(), master_.bounds())),
      admission_(config.admission),
      steal_(config.steal),
      fault_(config.fault) {
    QFA_EXPECTS(config.shard_count >= 1, "engine needs at least one shard");
    QFA_EXPECTS(config.queue_capacity >= 1, "engine needs a positive queue capacity");
    QFA_EXPECTS(steal_.min_victim_depth >= 1, "a steal victim needs at least one job");
    shards_.reserve(config.shard_count);
    for (std::size_t i = 0; i < config.shard_count; ++i) {
        shards_.push_back(std::make_unique<Shard>(config.queue_capacity));
    }
    // Backend placement is resolved before any worker starts: workers
    // read shard_backend_ unsynchronized, so it must be final here.
    resolve_backends(config);
    // Workers start only after every shard exists: shard_of indexes the
    // final vector, and the steal path scans all of them.
    for (std::size_t i = 0; i < config.shard_count; ++i) {
        shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
    }
}

Engine::~Engine() { shutdown(); }

void Engine::resolve_backends(const EngineConfig& config) {
    backend::BackendRegistry& registry = backend::registry();
    // One counter slot per registered backend, zero or not — stable keys
    // for dashboards, stable addresses for the hot path.
    for (const backend::RetrievalBackend* be : registry.enumerate()) {
        backend_counters_.emplace(std::string(be->name()),
                                  std::make_unique<BackendCounters>());
    }
    fallback_backend_ = registry.find("cpu-simd");
    QFA_ASSERT(fallback_backend_ != nullptr, "the cpu-simd fallback must be registered");
    fallback_counters_ = backend_counters_.find("cpu-simd")->second.get();
    // Explicit config names are contracts (throw on a typo); only the
    // QFA_BACKEND env hint inside default_backend() degrades to cpu-simd.
    const backend::RetrievalBackend* global =
        config.backend.empty() ? registry.default_backend()
                               : registry.find(config.backend);
    if (global == nullptr) {
        throw std::invalid_argument("EngineConfig::backend names no registered backend: " +
                                    config.backend);
    }
    shard_backend_.resize(config.shard_count);
    for (std::size_t i = 0; i < config.shard_count; ++i) {
        const std::string* name =
            i < config.shard_backends.size() && !config.shard_backends[i].empty()
                ? &config.shard_backends[i]
                : nullptr;
        const backend::RetrievalBackend* assigned =
            name == nullptr ? global : registry.find(*name);
        if (assigned == nullptr) {
            throw std::invalid_argument(
                "EngineConfig::shard_backends names no registered backend: " + *name);
        }
        shard_backend_[i].assigned = assigned;
        shard_backend_[i].counters =
            backend_counters_.find(assigned->name())->second.get();
        // A breaker exists exactly where failover exists: fallback-assigned
        // shards score the exact path directly (nothing to quarantine), and
        // threshold 0 disables the state machine outright.
        if (assigned != fallback_backend_ && fault_.breaker_threshold > 0) {
            shard_backend_[i].breaker = std::make_unique<Breaker>();
        }
    }
}

void Engine::worker_loop(std::size_t self) {
    Shard& shard = *shards_[self];
    // One scratch set per worker, one entry per backend this worker ever
    // scores through (cpu-simd's steady state allocates nothing beyond
    // returned matches; the image backends cache per-type artifacts
    // here).  The generation is pinned per job and released before
    // blocking on an empty queue, so an idle shard never keeps a retired
    // epoch (tree + plans) alive.
    WorkerScratch scratch;
    if (!steal_.enabled) {
        // The classic single-consumer drain: block on the own queue,
        // exit once it is closed and empty.
        while (std::optional<Job> job = shard.queue.pop()) {
            serve_job(shard, std::move(*job), scratch);
        }
        return;
    }
    // Steal mode: never block indefinitely on the own queue — alternate
    // own work, victim scans, and bounded parks.  Exit condition matches
    // pop()'s: the own queue is closed AND drained (each worker drains its
    // own backlog; shutdown() closes every queue before joining).
    for (;;) {
        std::optional<Job> job = shard.queue.try_pop();
        if (!job.has_value()) {
            job = try_steal(self);
        }
        if (!job.has_value()) {
            // Dry everywhere: park on the own queue for one scan period.  A
            // home push wakes this immediately; a sibling's backlog is
            // caught by the next scan after the park expires.
            job = shard.queue.pop_until(std::chrono::steady_clock::now() + kStealPark);
        }
        if (job.has_value()) {
            serve_job(shard, std::move(*job), scratch);
            continue;
        }
        if (shard.queue.closed() && shard.queue.size() == 0) {
            return;
        }
    }
}

void Engine::serve_job(Shard& self, Job job, WorkerScratch& scratch) {
    // Count before fulfilling the promise (release, matching stats()'s
    // acquire reads): anyone who has observed the result must also
    // observe it in the stats, and a stats() snapshot that includes
    // this completion also includes its submission.  `self` is the
    // EXECUTING worker's shard — for a stolen job that is the thief, so
    // shard_served keeps meaning "completions by this worker".
    if (RetrieveJob* retrieval = std::get_if<RetrieveJob>(&job)) {
        // Drop-on-dequeue expiry: a deadline that *passed* while the job
        // sat queued is a DeadlineExceeded resolution, never a silent
        // drop and never a wasted retrieval.  The boundary is
        // expired_on_dequeue's (d < now serves; d == now still serves).
        if (retrieval->cls.deadline.has_value()) {
            const auto now = std::chrono::steady_clock::now();
            if (expired_on_dequeue(*retrieval->cls.deadline, now)) {
                expired_.fetch_add(1, std::memory_order_release);
                if (retrieval->tenant != nullptr) {
                    retrieval->tenant->expired.fetch_add(1, std::memory_order_relaxed);
                }
                if (retrieval->counted_inflight) {
                    inflight_.fetch_sub(1, std::memory_order_relaxed);
                }
                if (retrieval->cls.completed_at != nullptr) {
                    *retrieval->cls.completed_at = now;
                }
                retrieval->promise.set_exception(
                    std::make_exception_ptr(DeadlineExceeded{}));
                return;
            }
        }
        // The epoch pin.  For a stolen job this runs on the thief AT ITS
        // DEQUEUE — the retrieval resolves against the generation current
        // when the job left the victim's queue, exactly the generation the
        // victim's own pop-then-pin would have used at that instant, so
        // stolen execution is bit-identical to home execution by
        // construction (sharding — and stealing — only decide *where* a
        // plan is scored, never *how*).
        const GenerationPtr pinned = store_.load();
        const backend::ShardContext ctx{&pinned->case_base, &pinned->bounds,
                                        &pinned->compiled, pinned->epoch};
        self.served.fetch_add(1, std::memory_order_release);
        if (retrieval->tenant != nullptr) {
            retrieval->tenant->served.fetch_add(1, std::memory_order_relaxed);
        }
        // Fully guarded dispatch: whatever a backend (or the ladder
        // itself) throws resolves THIS job's future — a failure costs one
        // request its result, never a worker thread its life.  The
        // per-backend `served` slice is bumped release before the promise
        // resolves (matching stats()'s acquire), attributed to the
        // backend the dispatch last scored through.
        BackendCounters* counters = fallback_counters_;
        try {
            cbr::RetrievalResult result =
                dispatch_retrieval(*retrieval, ctx, scratch, counters);
            counters->served.fetch_add(1, std::memory_order_release);
            // Stamp before set_value: the future's happens-before makes
            // the stamp readable after get()/wait() returns.
            if (retrieval->cls.completed_at != nullptr) {
                *retrieval->cls.completed_at = std::chrono::steady_clock::now();
            }
            retrieval->promise.set_value(std::move(result));
        } catch (...) {
            counters->served.fetch_add(1, std::memory_order_release);
            if (retrieval->cls.completed_at != nullptr) {
                *retrieval->cls.completed_at = std::chrono::steady_clock::now();
            }
            retrieval->promise.set_exception(std::current_exception());
        }
        if (retrieval->counted_inflight) {
            inflight_.fetch_sub(1, std::memory_order_relaxed);
        }
    } else {
        ExecuteJob& exec = std::get<ExecuteJob>(job);
        self.served.fetch_add(1, std::memory_order_release);
        executed_.fetch_add(1, std::memory_order_release);
        try {
            exec.fn();
            exec.promise.set_value();
        } catch (...) {
            exec.promise.set_exception(std::current_exception());
        }
    }
}

cbr::RetrievalResult Engine::dispatch_retrieval(RetrieveJob& job,
                                                const backend::ShardContext& ctx,
                                                WorkerScratch& scratch,
                                                BackendCounters*& counters) {
    // Backend selection follows the HOME shard (shard_of the request's
    // type), not the executing worker: a steal moves where a job runs,
    // never which backend scores it, so placement stays a pure function
    // of the type.
    ShardBackend& home = shard_backend_[shard_of(job.request.type())];
    const backend::RetrievalBackend* be = home.assigned;
    counters = home.counters;
    // Fallback-assigned shards score the exact path directly: no breaker,
    // no retry, nothing to fail over to.
    if (be == fallback_backend_) {
        return score_async(*be, ctx, job, scratch.for_backend(*be));
    }
    bool probing = false;
    if (home.breaker != nullptr) {
        switch (breaker_admit(home)) {
            case BreakerDecision::fallback:
                // Quarantined: straight to cpu-simd, counted as a failover
                // against the assigned backend — an open breaker is loud.
                home.counters->failovers.fetch_add(1, std::memory_order_release);
                counters = fallback_counters_;
                return score_async(*fallback_backend_, ctx, job,
                                   scratch.for_backend(*fallback_backend_));
            case BreakerDecision::probe:
                probing = true;
                home.counters->probes.fetch_add(1, std::memory_order_release);
                break;
            case BreakerDecision::serve:
                break;
        }
    }
    backend::BackendScratch* be_scratch = &scratch.for_backend(*be);
    // Guarded capability check (pre-tentpole this call was naked in the
    // worker loop): a FALSE is a decline — the counted-fallback path, not
    // a health signal, so a probing breaker releases its slot with no
    // verdict — while a THROW is a runtime failure during the check and
    // rides the failure ladder below.
    bool decline = false;
    bool check_failed = false;
    try {
        decline = !be->can_serve(ctx, job.request, job.options, be_scratch);
    } catch (...) {
        check_failed = true;
    }
    if (decline) {
        if (probing) {
            breaker_probe_abort(home);
        }
        home.counters->fallbacks.fetch_add(1, std::memory_order_release);
        counters = fallback_counters_;
        return score_async(*fallback_backend_, ctx, job,
                           scratch.for_backend(*fallback_backend_));
    }
    if (!check_failed) {
        // Attempt ladder: first try plus up to max_retries re-submissions
        // for retryable failures.  A probe never retries — its verdict is
        // the first attempt's, and a failed probe must reopen promptly.
        const std::size_t attempts = 1 + (probing ? 0 : fault_.max_retries);
        for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
            bool retryable = false;
            try {
                cbr::RetrievalResult result = score_async(*be, ctx, job, *be_scratch);
                breaker_on_success(home, probing);
                return result;
            } catch (const ShutdownInterrupt&) {
                // Not the backend's fault: no breaker verdict, no failover
                // (the engine is going away) — resolve with the shutdown
                // error.
                if (probing) {
                    breaker_probe_abort(home);
                }
                throw;
            } catch (const backend::BackendError& err) {
                if (err.kind() == backend::BackendErrorKind::integrity) {
                    // The thrower already invalidated the corrupted image;
                    // the retry below serves from a rebuild.
                    home.counters->integrity_rebuilds.fetch_add(
                        1, std::memory_order_release);
                }
                breaker_on_failure(home, probing);
                retryable = err.retryable();
            } catch (...) {
                // Unknown exception type: treat as permanent.
                breaker_on_failure(home, probing);
            }
            if (probing || !retryable || attempt + 1 >= attempts) {
                break;
            }
            home.counters->retries.fetch_add(1, std::memory_order_release);
            if (fault_.backoff_base.count() > 0) {
                // Deterministic linear backoff: retry k sleeps k * base.
                std::this_thread::sleep_for(fault_.backoff_base *
                                            static_cast<long>(attempt + 1));
            }
        }
    } else {
        breaker_on_failure(home, probing);
    }
    // Retries exhausted (or permanent, or the capability check itself
    // failed): per-request failover to the exact fallback.  cpu-simd is
    // bit-identical to the reference, so the caller cannot tell this
    // request's history from its bits — only the counters can.
    home.counters->failovers.fetch_add(1, std::memory_order_release);
    counters = fallback_counters_;
    return score_async(*fallback_backend_, ctx, job,
                       scratch.for_backend(*fallback_backend_));
}

cbr::RetrievalResult Engine::score_async(const backend::RetrievalBackend& be,
                                         const backend::ShardContext& ctx,
                                         const RetrieveJob& job,
                                         backend::BackendScratch& be_scratch) const {
    // The engine consumes every backend through the async pair — eager
    // backends complete on the first poll at zero cost, and a backend
    // with real queueing gets its overlap without a second dispatch path.
    backend::AsyncTicket ticket = be.submit(ctx, job.request, job.options, be_scratch);
    for (std::size_t polls = 1;; ++polls) {
        if (std::optional<cbr::RetrievalResult> result = be.poll(ticket)) {
            return std::move(*result);
        }
        // Pending only: a completed first poll never reaches these, so
        // accepted jobs still drain through shutdown — only a ticket
        // that is genuinely stuck resolves with the shutdown error.
        if (stopped_.load(std::memory_order_acquire)) {
            throw ShutdownInterrupt{};
        }
        if (fault_.poll_budget > 0 && polls >= fault_.poll_budget) {
            throw backend::BackendError(
                backend::BackendErrorKind::timeout,
                std::string(be.name()) + ": ticket pending past the poll budget");
        }
        std::this_thread::yield();
    }
}

Engine::BreakerDecision Engine::breaker_admit(ShardBackend& home) {
    Breaker& breaker = *home.breaker;
    std::lock_guard lock(breaker.mutex);
    switch (breaker.state) {
        case Breaker::State::closed:
            return BreakerDecision::serve;
        case Breaker::State::open:
            if (breaker.cooldown_left > 0) {
                --breaker.cooldown_left;
                return BreakerDecision::fallback;
            }
            // Cooldown over: half-open and fall through to the probe gate.
            breaker.state = Breaker::State::half_open;
            [[fallthrough]];
        case Breaker::State::half_open:
            if (breaker.probe_inflight) {
                return BreakerDecision::fallback;  // one probe at a time
            }
            breaker.probe_inflight = true;
            return BreakerDecision::probe;
    }
    return BreakerDecision::serve;
}

void Engine::breaker_on_success(ShardBackend& home, bool probing) {
    if (home.breaker == nullptr) {
        return;
    }
    Breaker& breaker = *home.breaker;
    std::lock_guard lock(breaker.mutex);
    if (probing) {
        breaker.probe_inflight = false;
        if (breaker.state == Breaker::State::half_open) {
            breaker.state = Breaker::State::closed;
            breaker.failures = 0;
            home.counters->breaker_closes.fetch_add(1, std::memory_order_release);
        }
        return;
    }
    // Any closed-state success resets the consecutive-failure count: the
    // threshold measures a failure STREAK, not a lifetime total.
    breaker.failures = 0;
}

void Engine::breaker_on_failure(ShardBackend& home, bool probing) {
    if (home.breaker == nullptr) {
        return;
    }
    Breaker& breaker = *home.breaker;
    std::lock_guard lock(breaker.mutex);
    if (probing) {
        breaker.probe_inflight = false;
        if (breaker.state == Breaker::State::half_open) {
            // A failed probe reopens a full cooldown.
            breaker.state = Breaker::State::open;
            breaker.cooldown_left = fault_.breaker_cooldown;
            home.counters->breaker_opens.fetch_add(1, std::memory_order_release);
        }
        return;
    }
    if (breaker.state != Breaker::State::closed) {
        return;  // failures while open/half-open carry no extra signal
    }
    if (++breaker.failures >= fault_.breaker_threshold) {
        breaker.state = Breaker::State::open;
        breaker.cooldown_left = fault_.breaker_cooldown;
        breaker.failures = 0;
        home.counters->breaker_opens.fetch_add(1, std::memory_order_release);
    }
}

void Engine::breaker_probe_abort(ShardBackend& home) {
    if (home.breaker == nullptr) {
        return;
    }
    Breaker& breaker = *home.breaker;
    std::lock_guard lock(breaker.mutex);
    breaker.probe_inflight = false;
}

std::size_t Engine::steal_slot(const std::deque<Job>& items) {
    // The victim's own pop() serves the FIFO front, so stealing EXACTLY
    // that slot is the no-bypass guarantee — a steal can never serve a
    // job the home worker would not have served next.  When the front is
    // an execute closure the steal declines entirely (>= size): closures
    // are pinned to their shard's thread, and taking a later retrieval
    // instead WOULD be a bypass.
    if (items.empty() || !std::holds_alternative<RetrieveJob>(items.front())) {
        return items.size();
    }
    return 0;
}

std::optional<Engine::Job> Engine::try_steal(std::size_t thief) {
    // Victim order: deepest backlog first.  Depths are advisory snapshots
    // — extract() re-decides under the victim's lock, so a raced-empty
    // victim just declines and the scan moves on.
    struct Candidate {
        std::size_t shard;
        std::size_t depth;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (s == thief) {
            continue;
        }
        const std::size_t depth = shards_[s]->queue.size();
        if (depth >= steal_.min_victim_depth) {
            candidates.push_back(Candidate{s, depth});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.depth != b.depth) {
                      return a.depth > b.depth;
                  }
                  return a.shard < b.shard;  // total order: scan is deterministic
              });
    for (const Candidate& candidate : candidates) {
        Shard& victim = *shards_[candidate.shard];
        std::optional<Job> loot = victim.queue.extract(steal_slot);
        if (!loot.has_value()) {
            continue;  // raced empty, or an execute closure holds the pop slot
        }
        // Telemetry keyed by the HOME shard (shard_of is stable across
        // engine instances of equal shard count, so victim profiles are
        // comparable across runs).  Release pairs with stats()'s acquire:
        // a snapshot with this steal also has its submission, keeping
        // stolen <= served + backlog <= submitted coherent.
        victim.stolen.fetch_add(1, std::memory_order_release);
        return loot;
    }
    return std::nullopt;
}

std::future<cbr::RetrievalResult> Engine::submit(cbr::Request request,
                                                 cbr::RetrievalOptions options) {
    // Counted before the push so stats() never observes served > submitted;
    // the refused-push path below undoes it.
    submitted_.fetch_add(1, std::memory_order_relaxed);
    RetrieveJob job{std::move(request), options, {}};
    std::future<cbr::RetrievalResult> future = job.promise.get_future();
    Shard& shard = *shards_[shard_of(job.request.type())];
    if (stopped_.load(std::memory_order_acquire) ||
        !shard.queue.push(Job{std::move(job)})) {
        // The job (promise included) was moved into push() and destroyed
        // there on refusal, so `future`'s shared state is broken_promise;
        // hand the caller a fresh future carrying the real reason instead.
        submitted_.fetch_sub(1, std::memory_order_relaxed);
        std::promise<cbr::RetrievalResult> broken;
        future = broken.get_future();
        broken.set_exception(engine_stopped());
        return future;
    }
    return future;
}

std::vector<std::future<cbr::RetrievalResult>> Engine::submit_batch(
    std::span<const cbr::Request> requests, std::span<const cbr::RetrievalOptions> options) {
    // An empty batch is a no-op with an empty result — checked before the
    // options contract so `submit_batch({}, anything)` cannot trip it.
    if (requests.empty()) {
        return {};
    }
    QFA_EXPECTS(options.size() == requests.size() || options.size() == 1,
                "submit_batch needs one options set per request, or one for the batch");
    // Group the jobs by owning shard first, then feed each shard's queue
    // with one push_all — one lock acquisition per shard per batch where a
    // submit() loop pays one per job.  Jobs stay in input order within a
    // shard (push_all preserves order, each shard has one FIFO consumer),
    // so a shard serves exactly the sequence a per-job loop would hand it.
    std::vector<std::future<cbr::RetrievalResult>> futures;
    futures.reserve(requests.size());
    std::vector<std::vector<Job>> grouped(shards_.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        RetrieveJob job{requests[i], options.size() == 1 ? options[0] : options[i], {}};
        futures.push_back(job.promise.get_future());
        grouped[shard_of(requests[i].type())].push_back(Job{std::move(job)});
    }
    enqueue_grouped(grouped);
    return futures;
}

std::vector<std::future<cbr::RetrievalResult>> Engine::submit_batch(
    std::span<const cbr::Request> requests, std::span<const cbr::RetrievalOptions> options,
    std::span<const JobClass> classes) {
    if (classes.empty()) {
        return submit_batch(requests, options);
    }
    if (requests.empty()) {
        return {};
    }
    QFA_EXPECTS(options.size() == requests.size() || options.size() == 1,
                "submit_batch needs one options set per request, or one for the batch");
    QFA_EXPECTS(classes.size() == requests.size() || classes.size() == 1,
                "submit_batch needs one class per request, one for the batch, or none");
    // Same grouped shape as the unclassed overload; the class rides on the
    // job so workers can expire, stamp and count per tenant.  Deadlines
    // already infeasible here never enter a queue: their futures resolve
    // with DeadlineExceeded immediately and they count as rejected.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::future<cbr::RetrievalResult>> futures;
    futures.reserve(requests.size());
    std::vector<std::vector<Job>> grouped(shards_.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const JobClass& cls = classes.size() == 1 ? classes[0] : classes[i];
        TenantCounters& tenant = tenant_counters(cls.tenant);
        RetrieveJob job{requests[i], options.size() == 1 ? options[0] : options[i], {}};
        futures.push_back(job.promise.get_future());
        if (cls.deadline.has_value() && admission_infeasible(*cls.deadline, now)) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            tenant.rejected.fetch_add(1, std::memory_order_relaxed);
            job.promise.set_exception(std::make_exception_ptr(DeadlineExceeded{}));
            continue;
        }
        job.cls = cls;
        job.tenant = &tenant;
        job.enqueued_at = now;
        grouped[shard_of(requests[i].type())].push_back(Job{std::move(job)});
    }
    enqueue_grouped(grouped);
    return futures;
}

Engine::TenantCounters& Engine::tenant_counters(TenantId tenant) {
    std::lock_guard lock(tenant_mutex_);
    std::unique_ptr<TenantCounters>& slot = tenants_[tenant];
    if (slot == nullptr) {
        slot = std::make_unique<TenantCounters>();
    }
    return *slot;
}

AdmissionResult Engine::count_rejected(AdmissionStatus status, const JobClass& cls) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    tenant_counters(cls.tenant).rejected.fetch_add(1, std::memory_order_relaxed);
    return AdmissionResult{status, {}};
}

bool Engine::shed_one(Shard& shard, std::uint8_t incoming_priority) {
    // Victim choice under the queue lock: only classed retrievals are
    // sheddable (execute closures and unclassed closed-loop jobs are not),
    // only STRICTLY lower priority than the incoming request (shedding a
    // peer to admit a peer is churn, not triage), lowest priority first;
    // among equals the tenant shed from least so far loses — the per-tenant
    // debt ledger that keeps eviction spread across tenants.
    std::optional<Job> victim = shard.queue.extract([&](const std::deque<Job>& items) {
        std::size_t best = items.size();
        std::uint8_t best_priority = 0;
        std::uint64_t best_debt = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const RetrieveJob* candidate = std::get_if<RetrieveJob>(&items[i]);
            if (candidate == nullptr || candidate->tenant == nullptr ||
                candidate->cls.priority >= incoming_priority) {
                continue;
            }
            const std::uint64_t debt =
                candidate->tenant->shed_debt.load(std::memory_order_relaxed);
            if (best == items.size() || candidate->cls.priority < best_priority ||
                (candidate->cls.priority == best_priority && debt < best_debt)) {
                best = i;
                best_priority = candidate->cls.priority;
                best_debt = debt;
            }
        }
        return best;
    });
    if (!victim.has_value()) {
        return false;
    }
    RetrieveJob& job = std::get<RetrieveJob>(*victim);
    shed_.fetch_add(1, std::memory_order_release);
    job.tenant->shed.fetch_add(1, std::memory_order_relaxed);
    job.tenant->shed_debt.fetch_add(1, std::memory_order_relaxed);
    if (job.counted_inflight) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (job.cls.completed_at != nullptr) {
        *job.cls.completed_at = std::chrono::steady_clock::now();
    }
    job.promise.set_exception(std::make_exception_ptr(LoadShed{}));
    return true;
}

AdmissionResult Engine::try_admit(const cbr::Request& request,
                                  const cbr::RetrievalOptions& options, const JobClass& cls) {
    if (stopped_.load(std::memory_order_acquire)) {
        return AdmissionResult{AdmissionStatus::shutting_down, {}};
    }
    const auto now = std::chrono::steady_clock::now();
    if (cls.deadline.has_value() && admission_infeasible(*cls.deadline, now)) {
        return AdmissionResult{AdmissionStatus::deadline_infeasible, {}};
    }
    if (admission_.max_inflight > 0 &&
        inflight_.load(std::memory_order_relaxed) >= admission_.max_inflight) {
        return AdmissionResult{AdmissionStatus::queue_full, {}};
    }
    Shard& shard = *shards_[shard_of(request.type())];
    const bool shedding = admission_.policy == AdmissionPolicy::shed_lowest;
    // Depth bound tighter than the queue capacity.  size() is advisory; a
    // racing producer can slip past the check — the bound is a watermark,
    // not a hard invariant, and the queue capacity backstops it.
    if (admission_.max_queue_depth > 0 &&
        shard.queue.size() >= admission_.max_queue_depth) {
        if (!shedding || !shed_one(shard, cls.priority) ||
            shard.queue.size() >= admission_.max_queue_depth) {
            return AdmissionResult{AdmissionStatus::queue_full, {}};
        }
    }
    // Proactive watermarks (shed_lowest only): trade queued low-priority
    // work for headroom before the backlog saturates.
    if (shedding && admission_.shed_depth_watermark > 0 &&
        shard.queue.size() >= admission_.shed_depth_watermark) {
        (void)shed_one(shard, cls.priority);
    }
    if (shedding && admission_.shed_latency_watermark.count() > 0) {
        bool over = false;
        // Read-only scan through extract: select nothing, observe the
        // oldest queued retrieval's wait.
        (void)shard.queue.extract([&](const std::deque<Job>& items) {
            for (const Job& item : items) {
                if (const RetrieveJob* oldest = std::get_if<RetrieveJob>(&item)) {
                    over = now - oldest->enqueued_at > admission_.shed_latency_watermark;
                    break;
                }
            }
            return items.size();
        });
        if (over) {
            (void)shed_one(shard, cls.priority);
        }
    }
    TenantCounters& tenant = tenant_counters(cls.tenant);
    for (int attempt = 0; attempt < 2; ++attempt) {
        // The job takes a COPY of the request: a refused try_push_status
        // destroys the job it consumed, and both the shed-retry below and
        // submit_until's outer retries need the request again.  A request
        // is a type id plus a handful of constraints — the copy is noise
        // next to the clock reads on this path.
        RetrieveJob job{request, options, {}};
        std::future<cbr::RetrievalResult> future = job.promise.get_future();
        job.cls = cls;
        job.tenant = &tenant;
        job.counted_inflight = true;
        job.enqueued_at = now;
        // Counted before the push so stats() never observes completions
        // beyond submissions; refusals undo it, as in submit().
        submitted_.fetch_add(1, std::memory_order_relaxed);
        inflight_.fetch_add(1, std::memory_order_relaxed);
        const PushStatus status = shard.queue.try_push_status(Job{std::move(job)});
        if (status == PushStatus::accepted) {
            admitted_.fetch_add(1, std::memory_order_relaxed);
            tenant.admitted.fetch_add(1, std::memory_order_relaxed);
            return AdmissionResult{AdmissionStatus::admitted, std::move(future)};
        }
        submitted_.fetch_sub(1, std::memory_order_relaxed);
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        if (status == PushStatus::closed) {
            return AdmissionResult{AdmissionStatus::shutting_down, {}};
        }
        // Full at hard capacity: under shed_lowest evict a victim and
        // retry once; a second full (shed found nothing, or a racing
        // producer refilled the slot) is final.
        if (!shedding || attempt > 0 || !shed_one(shard, cls.priority)) {
            break;
        }
    }
    return AdmissionResult{AdmissionStatus::queue_full, {}};
}

AdmissionResult Engine::try_submit(cbr::Request request, cbr::RetrievalOptions options,
                                   JobClass cls) {
    AdmissionResult result = try_admit(request, options, cls);
    if (!result.admitted()) {
        return count_rejected(result.status, cls);
    }
    return result;
}

AdmissionResult Engine::submit_until(cbr::Request request, cbr::RetrievalOptions options,
                                     std::chrono::steady_clock::time_point admit_by,
                                     JobClass cls) {
    // Retry on queue_full until admit_by, parking on the shard's depth
    // between attempts rather than spinning.  Every other status is final
    // immediately (shutting_down and deadline_infeasible cannot improve by
    // waiting — well, a deadline cannot un-pass).  Counters move exactly
    // once, on the final outcome: try_admit counts nothing on refusal.
    Shard& shard = *shards_[shard_of(request.type())];
    const std::size_t wait_depth = admission_.max_queue_depth > 0
                                       ? std::min(admission_.max_queue_depth,
                                                  shard.queue.capacity())
                                       : shard.queue.capacity();
    for (;;) {
        AdmissionResult result = try_admit(request, options, cls);
        if (result.admitted()) {
            return result;
        }
        if (result.status != AdmissionStatus::queue_full ||
            std::chrono::steady_clock::now() >= admit_by) {
            return count_rejected(result.status, cls);
        }
        if (shard.queue.wait_below(wait_depth, admit_by)) {
            // Depth is already fine, so the refusal was the inflight bound
            // (or a lost race): brief backoff instead of a hot retry loop —
            // workers signal progress through the queue, not the bound.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

std::future<void> Engine::execute(std::size_t shard, std::function<void()> fn) {
    QFA_EXPECTS(shard < shards_.size(), "execute needs a shard index below shard_count()");
    QFA_EXPECTS(fn != nullptr, "execute needs a callable");
    // Counted before the push so stats() never observes served > submitted;
    // the refused-push path below undoes it, as in submit().
    submitted_.fetch_add(1, std::memory_order_relaxed);
    ExecuteJob job{std::move(fn), {}};
    std::future<void> future = job.promise.get_future();
    Shard& target = *shards_[shard];
    if (stopped_.load(std::memory_order_acquire) ||
        !target.queue.push(Job{std::move(job)})) {
        submitted_.fetch_sub(1, std::memory_order_relaxed);
        std::promise<void> broken;
        future = broken.get_future();
        broken.set_exception(engine_stopped());
        return future;
    }
    return future;
}

std::vector<std::future<void>> Engine::execute_batch(std::span<ShardTask> tasks) {
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    if (tasks.empty()) {
        return futures;
    }
    // Same shape as submit_batch: group by target shard, one push_all per
    // shard per batch; tasks bound for one shard run in input order.
    // Shard indices are validated while grouping, before the first push —
    // a bad index must surface synchronously with no task yet enqueued.
    std::vector<std::vector<Job>> grouped(shards_.size());
    for (ShardTask& task : tasks) {
        QFA_EXPECTS(task.shard < shards_.size(),
                    "execute_batch needs shard indices below shard_count()");
        QFA_EXPECTS(task.fn != nullptr, "execute_batch needs callables");
        ExecuteJob job{std::move(task.fn), {}};
        futures.push_back(job.promise.get_future());
        // In-place construction (not push_back(Job{...})): skips the
        // variant move, which GCC 12 mis-analyzes across alternatives.
        grouped[task.shard].emplace_back(std::in_place_type<ExecuteJob>, std::move(job));
    }
    enqueue_grouped(grouped);
    return futures;
}

void Engine::enqueue_grouped(std::vector<std::vector<Job>>& grouped) {
    for (std::size_t s = 0; s < grouped.size(); ++s) {
        std::vector<Job>& jobs = grouped[s];
        if (jobs.empty()) {
            continue;
        }
        // Counted before the push so stats() never observes served >
        // submitted; refused jobs are undone below, as in submit().
        submitted_.fetch_add(jobs.size(), std::memory_order_relaxed);
        const std::size_t accepted = stopped_.load(std::memory_order_acquire)
                                         ? 0
                                         : shards_[s]->queue.push_all(std::span<Job>(jobs));
        if (accepted < jobs.size()) {
            // Closed mid-batch: the tail jobs still own their promises —
            // resolve them to the shut-down error their futures report.
            submitted_.fetch_sub(jobs.size() - accepted, std::memory_order_relaxed);
            for (std::size_t j = accepted; j < jobs.size(); ++j) {
                std::visit([](auto& job) { job.promise.set_exception(engine_stopped()); },
                           jobs[j]);
            }
        }
    }
}

std::vector<cbr::RetrievalResult> Engine::retrieve_all(
    std::span<const cbr::Request> requests, const cbr::RetrievalOptions& options) {
    std::vector<std::future<cbr::RetrievalResult>> futures = submit_batch(requests, options);
    std::vector<cbr::RetrievalResult> results;
    results.reserve(futures.size());
    for (std::future<cbr::RetrievalResult>& future : futures) {
        results.push_back(future.get());
    }
    return results;
}

cbr::RetainVerdict Engine::retain(cbr::TypeId type, cbr::Implementation impl,
                                  double novelty_threshold) {
    std::lock_guard lock(writer_mutex_);
    const cbr::RetainVerdict verdict = master_.retain(type, std::move(impl), novelty_threshold);
    if (verdict == cbr::RetainVerdict::retained) {
        retains_.fetch_add(1, std::memory_order_relaxed);
        publish_locked(type);
    }
    return verdict;
}

bool Engine::add_type(cbr::TypeId id, std::string name) {
    std::lock_guard lock(writer_mutex_);
    if (!master_.add_type(id, std::move(name))) {
        return false;
    }
    publish_locked(id);
    return true;
}

bool Engine::remove_implementation(cbr::TypeId type, cbr::ImplId impl) {
    std::lock_guard lock(writer_mutex_);
    if (!master_.remove_implementation(type, impl)) {
        return false;
    }
    publish_locked(type);
    return true;
}

void Engine::publish_locked(cbr::TypeId changed) {
    const GenerationPtr previous = store_.load();
    GenerationPtr next = patch_generation(*previous, master_.epoch(), master_.snapshot(),
                                          master_.bounds(), changed);
    // COW telemetry: how many of the successor's plans are pointer-aliased
    // from the predecessor (vs spliced/cloned).  Both plan lists are
    // ordered by TypeId, so one merge pass finds every alias.
    std::uint64_t shared = 0;
    const auto& old_plans = previous->compiled.plans();
    const auto& new_plans = next->compiled.plans();
    for (std::size_t o = 0, n = 0; o < old_plans.size() && n < new_plans.size();) {
        const auto old_id = old_plans[o]->id.value();
        const auto new_id = new_plans[n]->id.value();
        if (old_plans[o] == new_plans[n]) {
            ++shared;
        }
        o += old_id <= new_id ? 1 : 0;
        n += new_id <= old_id ? 1 : 0;
    }
    // Published before shared (release), mirrored by stats() reading
    // shared (acquire) before published: any snapshot that includes an
    // epoch's aliased plans also includes its published total, so
    // cow_plans_shared <= cow_plans_published always holds.
    cow_plans_published_.fetch_add(new_plans.size(), std::memory_order_release);
    cow_plans_shared_.fetch_add(shared, std::memory_order_release);
    store_.publish(std::move(next));
    published_epochs_.fetch_add(1, std::memory_order_relaxed);
}

cbr::MaintenanceStats Engine::maintenance_stats() const {
    std::lock_guard lock(writer_mutex_);
    return master_.stats();
}

EngineStats Engine::stats() const {
    // Snapshot order is load-bearing (see EngineStats): completions are
    // read before submissions.  A worker bumps its shard's `served` with a
    // release store only after the submitter's `submitted_` increment
    // (ordered through the queue mutex), so acquiring a completion here
    // makes its submission visible to the later `submitted_` read — no
    // snapshot can show served > submitted.  `executed` is read first for
    // the same reason relative to `served` (executed <= served always).
    EngineStats stats;
    stats.retains = retains_.load(std::memory_order_relaxed);
    stats.published_epochs = published_epochs_.load(std::memory_order_relaxed);
    // shared acquired before published: see publish_locked for the pairing
    // that keeps cow_plans_shared <= cow_plans_published in any snapshot.
    stats.cow_plans_shared = cow_plans_shared_.load(std::memory_order_acquire);
    stats.cow_plans_published = cow_plans_published_.load(std::memory_order_relaxed);
    stats.executed = executed_.load(std::memory_order_acquire);
    // All three completion-side counters (served / expired / shed) are
    // acquired before `submitted` is read, so no snapshot can show
    // served + expired + shed > submitted.
    stats.expired = expired_.load(std::memory_order_acquire);
    stats.shed = shed_.load(std::memory_order_acquire);
    // Steal counters are completion-side too: acquired before `submitted`
    // so stolen <= submitted in any snapshot (a stolen job was submitted
    // before it could be extracted, ordered through the queue mutex).
    stats.shard_stolen.reserve(shards_.size());
    stats.shard_served.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
        const std::uint64_t stolen = shard->stolen.load(std::memory_order_acquire);
        stats.shard_stolen.push_back(stolen);
        stats.stolen += stolen;
        const std::uint64_t served = shard->served.load(std::memory_order_acquire);
        stats.shard_served.push_back(served);
        stats.served += served;
    }
    // Backend slices are completion-side: acquired before `submitted` so
    // Σ backends.served <= submitted in any snapshot.  The map itself is
    // constructor-final — no lock needed.
    for (const auto& [name, counters] : backend_counters_) {
        EngineStats::BackendStats slice;
        slice.served = counters->served.load(std::memory_order_acquire);
        slice.fallbacks = counters->fallbacks.load(std::memory_order_acquire);
        slice.retries = counters->retries.load(std::memory_order_acquire);
        slice.failovers = counters->failovers.load(std::memory_order_acquire);
        slice.breaker_opens = counters->breaker_opens.load(std::memory_order_acquire);
        slice.breaker_closes = counters->breaker_closes.load(std::memory_order_acquire);
        slice.probes = counters->probes.load(std::memory_order_acquire);
        slice.integrity_rebuilds =
            counters->integrity_rebuilds.load(std::memory_order_acquire);
        stats.backends.emplace(name, slice);
    }
    stats.submitted = submitted_.load(std::memory_order_relaxed);
    stats.admitted = admitted_.load(std::memory_order_relaxed);
    stats.rejected = rejected_.load(std::memory_order_relaxed);
    {
        std::lock_guard lock(tenant_mutex_);
        for (const auto& [tenant, counters] : tenants_) {
            EngineStats::TenantStats slice;
            slice.served = counters->served.load(std::memory_order_acquire);
            slice.expired = counters->expired.load(std::memory_order_acquire);
            slice.shed = counters->shed.load(std::memory_order_acquire);
            slice.admitted = counters->admitted.load(std::memory_order_relaxed);
            slice.rejected = counters->rejected.load(std::memory_order_relaxed);
            stats.tenants.emplace(tenant, slice);
        }
    }
    return stats;
}

void Engine::shutdown() {
    // Serialized: a concurrent second caller (including the destructor)
    // blocks until the first caller's close + joins complete, so nobody
    // returns from shutdown() while workers are still running.
    std::lock_guard lock(shutdown_mutex_);
    if (stopped_.exchange(true, std::memory_order_acq_rel)) {
        return;
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
        shard->queue.close();
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->worker.joinable()) {
            shard->worker.join();
        }
    }
}

}  // namespace qfa::serve
