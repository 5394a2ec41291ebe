// Bounded MPMC job queue — the serving engine's request mailbox.
//
// §5's outlook has "several applications" issuing QoS requests against one
// case base; the serve layer realizes that as producer threads pushing jobs
// into per-shard queues drained by worker threads.  The queue is
// deliberately a plain mutex + two-condition-variable monitor rather than a
// lock-free ring: one retrieval costs microseconds (a full column sweep per
// constraint), so enqueue overhead is noise, and the monitor form is
// trivially correct under ThreadSanitizer.  Capacity bounds give
// backpressure; the admission layer (serve/engine.hpp) chooses per call
// whether a producer at capacity blocks (push), blocks up to a deadline
// (push_until) or is refused immediately with a typed reason
// (try_push_status) — the §3 "reject requests the platform cannot serve"
// analogue under overload.
//
// Ordering is FIFO: every pop serves the oldest item.  Only extract()
// removes an item out of arrival order (the engine's load shedder).
//
// Thread safety: every member is safe to call from any number of producer
// and consumer threads concurrently.  close() wakes all waiters; items
// already queued are still drained (graceful shutdown), pushes after close
// are refused.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "util/contracts.hpp"

namespace qfa::serve {

/// Why a bounded push did or did not enqueue its item.
enum class PushStatus : std::uint8_t {
    accepted,   ///< the item is in the queue
    full,       ///< refused: at capacity (try_push_status only)
    timed_out,  ///< refused: still full at the deadline (push_until only)
    closed,     ///< refused: the queue no longer accepts work
};

template <typename T>
class BoundedMpmcQueue {
public:
    explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
        QFA_EXPECTS(capacity >= 1, "queue capacity must be at least 1");
    }

    BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
    BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

    /// Blocks while the queue is full; false when it was closed instead
    /// (the item is dropped — the caller owns failure signalling).
    bool push(T item) {
        std::unique_lock lock(mutex_);
        not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
        if (closed_) {
            return false;
        }
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /// Bulk enqueue: moves every item into the queue in order under ONE
    /// lock acquisition (a per-job push pays a lock round-trip each; the
    /// batch front-ends pay one per shard per batch).  Returns the number
    /// of items accepted: items.size() normally, fewer when the queue was
    /// closed mid-batch — the tail items are left untouched in `items` and
    /// failure signalling for them stays with the caller, as in push().
    ///
    /// Wake discipline: when the whole batch fits below capacity, the
    /// inserts happen under the lock but every not_empty_ wake is issued
    /// *after* unlock — a consumer woken mid-batch would otherwise run
    /// straight into the still-held mutex and block again (one spurious
    /// context-switch round-trip per item).  Only the over-capacity
    /// feeding path keeps the per-insert wake while holding the lock: the
    /// producer is about to wait on not_full_ there, and the consumer it
    /// wakes is what creates the space that lets the batch progress.
    std::size_t push_all(std::span<T> items) {
        std::size_t accepted = 0;
        std::unique_lock lock(mutex_);
        if (!closed_ && items.size() <= capacity_ - items_.size()) {
            for (T& item : items) {
                items_.push_back(std::move(item));
                ++accepted;
            }
            lock.unlock();
            for (std::size_t i = 0; i < accepted; ++i) {
                not_empty_.notify_one();
            }
            return accepted;
        }
        for (T& item : items) {
            not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
            if (closed_) {
                break;
            }
            items_.push_back(std::move(item));
            ++accepted;
            not_empty_.notify_one();
        }
        return accepted;
    }

    /// Non-blocking push; false when full or closed.
    bool try_push(T item) {
        return try_push_status(std::move(item)) == PushStatus::accepted;
    }

    /// Non-blocking push with a typed refusal reason — the admission
    /// layer's primitive: `full` and `closed` need different answers to
    /// the caller (retry-later vs give-up).  The item is dropped on
    /// refusal, exactly as in push().
    PushStatus try_push_status(T item) {
        {
            std::lock_guard lock(mutex_);
            if (closed_) {
                return PushStatus::closed;
            }
            if (items_.size() >= capacity_) {
                return PushStatus::full;
            }
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return PushStatus::accepted;
    }

    /// Deadline-bounded push: blocks while the queue is full, but only
    /// until `deadline` — the middle ground between push() (may wait
    /// forever) and try_push_status() (never waits).  timed_out when the
    /// queue was still full at the deadline; closed when it was closed
    /// first; the item is dropped on either refusal.
    PushStatus push_until(T item, std::chrono::steady_clock::time_point deadline) {
        std::unique_lock lock(mutex_);
        if (!not_full_.wait_until(lock, deadline,
                                  [&] { return items_.size() < capacity_ || closed_; })) {
            return PushStatus::timed_out;
        }
        if (closed_) {
            return PushStatus::closed;
        }
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return PushStatus::accepted;
    }

    /// Waits until the depth drops below `depth`, the queue closes, or the
    /// deadline passes; true when depth < `depth` held at return.  Purely
    /// advisory — a racing producer may refill the freed slot before the
    /// caller acts on the answer (admission layers re-check under
    /// try_push_status and loop).
    bool wait_below(std::size_t depth, std::chrono::steady_clock::time_point deadline) {
        std::unique_lock lock(mutex_);
        (void)not_full_.wait_until(lock, deadline,
                                   [&] { return items_.size() < depth || closed_; });
        return items_.size() < depth;
    }

    /// Blocks while the queue is empty; nullopt once closed *and* drained.
    std::optional<T> pop() {
        std::unique_lock lock(mutex_);
        not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
        if (items_.empty()) {
            return std::nullopt;  // closed and fully drained
        }
        return take_front(lock);
    }

    /// Non-blocking pop: the item pop() would serve next, or nullopt when
    /// the queue is empty — whether or not it is closed.  Wake discipline
    /// matches pop(): a successful try_pop frees a slot and wakes one
    /// not_full_ waiter, so a work-stealing consumer draining through
    /// try_pop can never strand a producer blocked at capacity or an
    /// admission layer parked in wait_below.
    std::optional<T> try_pop() {
        std::unique_lock lock(mutex_);
        if (items_.empty()) {
            return std::nullopt;
        }
        return take_front(lock);
    }

    /// Deadline-bounded pop: blocks while the queue is empty, but only
    /// until `deadline`.  nullopt on timeout AND on closed-and-drained —
    /// callers that must distinguish re-check closed()/size() (a closed
    /// queue refuses pushes, so closed + empty is a stable end state).
    /// Shard workers with a steal path park here instead of in pop(), so
    /// an empty home queue never blocks them past one victim-scan period.
    std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
        std::unique_lock lock(mutex_);
        (void)not_empty_.wait_until(lock, deadline,
                                    [&] { return !items_.empty() || closed_; });
        if (items_.empty()) {
            return std::nullopt;  // timed out, or closed and fully drained
        }
        return take_front(lock);
    }

    /// Removes and returns the queued item `select` picks, or nullopt when
    /// it picks none.  `select` receives the queue's items (front = oldest)
    /// under the lock and returns an index, or >= size() for "none" —
    /// it must not touch the queue and should be O(n) at worst.  The load
    /// shedder uses this to pull the lowest-priority victim out of a deep
    /// backlog; the freed slot wakes one blocked producer.
    template <typename Select>
    std::optional<T> extract(Select&& select) {
        std::unique_lock lock(mutex_);
        const std::size_t slot = select(static_cast<const std::deque<T>&>(items_));
        if (slot >= items_.size()) {
            return std::nullopt;
        }
        T item = std::move(items_[slot]);
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(slot));
        lock.unlock();
        not_full_.notify_one();
        return item;
    }

    /// Refuses further pushes and wakes every waiter.  Idempotent; queued
    /// items remain poppable so shutdown never loses accepted work.
    void close() {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] bool closed() const {
        std::lock_guard lock(mutex_);
        return closed_;
    }

    /// Advisory depth observer: exact at the instant the lock was held,
    /// stale the instant it returns — watermark shedders and admission
    /// checks treat it as a hint and re-check where exactness matters.
    /// Coherence guarantee: every observation is in [0, capacity()], and
    /// with only pushes (or only pops) running, consecutive observations
    /// from one thread are monotone.
    [[nodiscard]] std::size_t size() const {
        std::lock_guard lock(mutex_);
        return items_.size();
    }

    /// Immutable bound; together with size() this is the advisory depth
    /// pair the engine's watermark shedder reads.
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    /// Removes the front item, releases `lock` and wakes one producer
    /// blocked at capacity.  Caller holds `lock` over a non-empty queue.
    T take_front(std::unique_lock<std::mutex>& lock) {
        T item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return item;
    }

    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_;
    std::size_t capacity_;
    bool closed_ = false;
};

}  // namespace qfa::serve
