// BoundedMpmcQueue: FIFO order, capacity backpressure, close semantics
// (graceful drain, refused pushes), and multi-producer/multi-consumer
// integrity under real threads.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "util/contracts.hpp"

namespace {

using qfa::serve::BoundedMpmcQueue;

TEST(BoundedMpmcQueueTest, FifoWithinCapacity) {
    BoundedMpmcQueue<int> queue(4);
    EXPECT_EQ(queue.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(queue.try_push(i));
    }
    EXPECT_FALSE(queue.try_push(99));  // full
    EXPECT_EQ(queue.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto item = queue.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedMpmcQueueTest, CloseDrainsAcceptedItemsThenSignalsEnd) {
    BoundedMpmcQueue<int> queue(8);
    EXPECT_TRUE(queue.push(1));
    EXPECT_TRUE(queue.push(2));
    queue.close();
    EXPECT_TRUE(queue.closed());
    EXPECT_FALSE(queue.push(3));      // refused after close
    EXPECT_FALSE(queue.try_push(3));
    EXPECT_EQ(queue.pop(), 1);        // accepted work is never lost
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), std::nullopt);  // drained + closed
}

TEST(BoundedMpmcQueueTest, CloseWakesBlockedConsumers) {
    BoundedMpmcQueue<int> queue(2);
    std::optional<int> seen{42};
    std::thread consumer([&] { seen = queue.pop(); });
    queue.close();
    consumer.join();
    EXPECT_EQ(seen, std::nullopt);
}

TEST(BoundedMpmcQueueTest, BackpressureBlocksThenResumes) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    bool second_accepted = false;
    std::thread producer([&] { second_accepted = queue.push(1); });
    // The producer is blocked on a full queue until this pop frees a slot.
    EXPECT_EQ(queue.pop(), 0);
    producer.join();
    EXPECT_TRUE(second_accepted);
    EXPECT_EQ(queue.pop(), 1);
}

TEST(BoundedMpmcQueueTest, ManyProducersManyConsumersLoseNothing) {
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 500;
    BoundedMpmcQueue<int> queue(16);

    std::vector<std::vector<int>> consumed(kConsumers);
    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&queue, &bucket = consumed[c]] {
            while (auto item = queue.pop()) {
                bucket.push_back(*item);
            }
        });
    }
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(queue.push(p * kPerProducer + i));
            }
        });
    }
    for (int t = kConsumers; t < kConsumers + kProducers; ++t) {
        threads[t].join();  // all producers done
    }
    queue.close();
    for (int t = 0; t < kConsumers; ++t) {
        threads[t].join();
    }

    std::vector<int> all;
    for (const std::vector<int>& bucket : consumed) {
        all.insert(all.end(), bucket.begin(), bucket.end());
    }
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers * kPerProducer));
    std::sort(all.begin(), all.end());
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
    }
}

TEST(BoundedMpmcQueueTest, PushAllPreservesOrderWithinCapacity) {
    BoundedMpmcQueue<int> queue(8);
    std::vector<int> items{1, 2, 3, 4, 5};
    EXPECT_EQ(queue.push_all(std::span<int>(items)), 5u);
    for (int i = 1; i <= 5; ++i) {
        EXPECT_EQ(queue.pop(), i);
    }
}

TEST(BoundedMpmcQueueTest, PushAllLargerThanCapacityFeedsAsConsumersDrain) {
    // A batch 8x the capacity must flow through completely: push_all waits
    // on the full queue and notifies the consumer per insert, so neither
    // side can sleep forever.
    constexpr int kItems = 16;
    BoundedMpmcQueue<int> queue(2);
    std::vector<int> drained;
    std::thread consumer([&] {
        while (auto item = queue.pop()) {
            drained.push_back(*item);
        }
    });
    std::vector<int> items(kItems);
    for (int i = 0; i < kItems; ++i) {
        items[static_cast<std::size_t>(i)] = i;
    }
    EXPECT_EQ(queue.push_all(std::span<int>(items)), static_cast<std::size_t>(kItems));
    queue.close();
    consumer.join();
    ASSERT_EQ(drained.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
        EXPECT_EQ(drained[static_cast<std::size_t>(i)], i);  // FIFO preserved
    }
}

TEST(BoundedMpmcQueueTest, PushAllWakesBlockedConsumersOnTheFastPath) {
    // The within-capacity fast path issues its wakes *after* unlocking (a
    // consumer woken under the held lock would block right back on it).
    // Consumers parked in pop() before the push must all be woken and
    // drain the batch — one wake per accepted item, nobody sleeps forever.
    constexpr int kConsumers = 3;
    constexpr int kItems = 8;
    BoundedMpmcQueue<int> queue(16);
    std::atomic<int> drained{0};
    std::vector<std::thread> consumers;
    consumers.reserve(kConsumers);
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (queue.pop()) {
                drained.fetch_add(1);
            }
        });
    }
    // Give the consumers time to park on not_empty_ before the bulk push.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<int> items(kItems);
    for (int i = 0; i < kItems; ++i) {
        items[static_cast<std::size_t>(i)] = i;
    }
    EXPECT_EQ(queue.push_all(std::span<int>(items)), static_cast<std::size_t>(kItems));
    while (drained.load() < kItems) {
        std::this_thread::yield();
    }
    queue.close();
    for (std::thread& consumer : consumers) {
        consumer.join();
    }
    EXPECT_EQ(drained.load(), kItems);
}

TEST(BoundedMpmcQueueTest, PushAllExactlyAtCapacityTakesTheFastPath) {
    // A batch that fills the queue to exactly its capacity needs no
    // consumer progress and must be accepted in one pass.
    BoundedMpmcQueue<int> queue(4);
    std::vector<int> items{1, 2, 3, 4};
    EXPECT_EQ(queue.push_all(std::span<int>(items)), 4u);
    EXPECT_EQ(queue.size(), 4u);
    for (int i = 1; i <= 4; ++i) {
        EXPECT_EQ(queue.pop(), i);
    }
    // Partially full + batch exactly reaching capacity also fits.
    ASSERT_TRUE(queue.push(10));
    std::vector<int> rest{11, 12, 13};
    EXPECT_EQ(queue.push_all(std::span<int>(rest)), 3u);
    EXPECT_EQ(queue.size(), 4u);
}

TEST(BoundedMpmcQueueTest, PushAllReportsItemsAcceptedBeforeClose) {
    BoundedMpmcQueue<int> queue(2);
    std::vector<int> items{1, 2, 3, 4};
    // Close the queue from another thread while push_all is blocked on the
    // full queue: the two accepted items must be reported and drainable.
    std::thread closer([&] {
        while (queue.size() < 2) {
            std::this_thread::yield();
        }
        queue.close();
    });
    EXPECT_EQ(queue.push_all(std::span<int>(items)), 2u);
    closer.join();
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedMpmcQueueTest, PushAllOnClosedQueueAcceptsNothing) {
    BoundedMpmcQueue<int> queue(4);
    queue.close();
    std::vector<int> items{1, 2};
    EXPECT_EQ(queue.push_all(std::span<int>(items)), 0u);
}

TEST(BoundedMpmcQueueTest, RejectsZeroCapacity) {
    EXPECT_THROW(BoundedMpmcQueue<int>(0), qfa::util::ContractViolation);
}

// --- Admission-layer primitives: typed refusals, deadline-bounded push ---

using qfa::serve::PushStatus;

TEST(BoundedMpmcQueueTest, TryPushStatusReportsTypedRefusals) {
    BoundedMpmcQueue<int> queue(1);
    EXPECT_EQ(queue.try_push_status(1), PushStatus::accepted);
    EXPECT_EQ(queue.try_push_status(2), PushStatus::full);
    queue.close();
    EXPECT_EQ(queue.try_push_status(3), PushStatus::closed);
    // full vs closed is decided under the same lock: the queued item is
    // still drainable, the refused ones are gone.
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedMpmcQueueTest, PushUntilTimesOutOnAFullQueue) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    EXPECT_EQ(queue.push_until(1, deadline), PushStatus::timed_out);
    EXPECT_EQ(queue.size(), 1u);  // the refused item was dropped
}

TEST(BoundedMpmcQueueTest, PushUntilSucceedsWhenASlotFrees) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        (void)queue.pop();
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    EXPECT_EQ(queue.push_until(1, deadline), PushStatus::accepted);
    consumer.join();
    EXPECT_EQ(queue.pop(), 1);
}

TEST(BoundedMpmcQueueTest, PushUntilObservesCloseWhileWaiting) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.close();
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    EXPECT_EQ(queue.push_until(1, deadline), PushStatus::closed);
    closer.join();
}

TEST(BoundedMpmcQueueTest, WaitBelowReturnsOnceDepthDrops) {
    BoundedMpmcQueue<int> queue(4);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(queue.push(i));
    }
    const auto past = std::chrono::steady_clock::now();
    EXPECT_FALSE(queue.wait_below(3, past));  // still at 4, deadline passed
    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        (void)queue.pop();
        (void)queue.pop();
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    EXPECT_TRUE(queue.wait_below(3, deadline));
    consumer.join();
}

// --- Advisory depth observers: coherence under concurrent push/pop ---

TEST(BoundedMpmcQueueTest, DepthObserversStayCoherentUnderConcurrentTraffic) {
    // size() is advisory, but never incoherent: every observation lies in
    // [0, capacity], and while only pushes run (producers still feeding,
    // consumer not yet started) observations from one thread are monotone
    // non-decreasing; while only pops run they are monotone non-increasing.
    constexpr std::size_t kCapacity = 64;
    constexpr int kItems = 2000;
    BoundedMpmcQueue<int> queue(kCapacity);

    // Phase 1: producers only — depth must never decrease.
    std::thread producer([&] {
        for (int i = 0; i < kItems / 4; ++i) {
            (void)queue.try_push(i);  // full is fine — nothing pops yet
        }
    });
    std::size_t prev = 0;
    while (queue.size() < kCapacity / 2) {
        const std::size_t depth = queue.size();
        EXPECT_LE(depth, kCapacity);
        EXPECT_GE(depth, prev);  // monotone while only pushes run
        prev = depth;
    }
    producer.join();

    // Phase 2: full crossfire — bounds still hold on every observation.
    std::atomic<bool> done{false};
    std::thread pusher([&] {
        for (int i = 0; i < kItems; ++i) {
            (void)queue.try_push(i);
        }
        done.store(true);
    });
    std::thread popper([&] {
        while (!done.load() || queue.size() > 0) {
            (void)queue.extract([](const std::deque<int>& items) {
                return items.empty() ? std::size_t{1} : std::size_t{0};
            });
        }
    });
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LE(queue.size(), kCapacity);
    }
    pusher.join();
    popper.join();

    // Phase 3: pops only — depth must never increase.
    for (int i = 0; i < 8; ++i) {
        (void)queue.try_push(i);
    }
    prev = queue.size();
    while (queue.size() > 0) {
        const std::size_t depth = queue.size();
        EXPECT_LE(depth, prev);  // monotone while only pops run
        prev = depth;
        (void)queue.extract([](const std::deque<int>&) { return std::size_t{0}; });
    }
}

// --- extract(): the shedder's victim-removal primitive ---

TEST(BoundedMpmcQueueTest, ExtractRemovesSelectedItemAndFreesASlot) {
    BoundedMpmcQueue<int> queue(3);
    ASSERT_TRUE(queue.try_push(7));
    ASSERT_TRUE(queue.try_push(8));
    ASSERT_TRUE(queue.try_push(9));
    // Pick the middle item (a shedder picking its lowest-priority victim).
    const auto victim = queue.extract([](const std::deque<int>& items) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (items[i] == 8) {
                return i;
            }
        }
        return items.size();
    });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 8);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_TRUE(queue.try_push(10));  // the freed slot is reusable
    EXPECT_EQ(queue.pop(), 7);
    EXPECT_EQ(queue.pop(), 9);
    EXPECT_EQ(queue.pop(), 10);
}

TEST(BoundedMpmcQueueTest, ExtractReturnsNulloptWhenNothingSelected) {
    BoundedMpmcQueue<int> queue(2);
    ASSERT_TRUE(queue.try_push(1));
    const auto none = queue.extract(
        [](const std::deque<int>& items) { return items.size(); });
    EXPECT_EQ(none, std::nullopt);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedMpmcQueueTest, ExtractOnEmptyQueueReturnsCleanly) {
    // The shedder can race a consumer and find the queue already drained:
    // the selector must see an empty snapshot (not stale items), decline,
    // and extract must return nullopt without waking anyone spuriously.
    BoundedMpmcQueue<int> queue(2);
    bool saw_empty = false;
    const auto none = queue.extract([&](const std::deque<int>& items) {
        saw_empty = items.empty();
        return items.size();  // size() == 0: "select nothing" and index 0
                              // coincide on an empty deque — both are safe
    });
    EXPECT_EQ(none, std::nullopt);
    EXPECT_TRUE(saw_empty);
    EXPECT_EQ(queue.size(), 0u);
    // Still fully operational afterwards.
    EXPECT_TRUE(queue.try_push(5));
    EXPECT_EQ(queue.pop(), 5);
}

TEST(BoundedMpmcQueueTest, PushUntilTimesOutWhileConsumerIsMidExtract) {
    // A shedder hammering extract() with a selector that declines every
    // victim takes and releases the lock continuously but never frees a
    // slot.  push_until must not mistake those lock handoffs for progress:
    // it re-checks the predicate, keeps waiting, and still reports
    // timed_out at the deadline with the queue depth untouched.
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    std::atomic<bool> stop{false};
    std::thread shedder([&] {
        while (!stop.load()) {
            const auto none = queue.extract(
                [](const std::deque<int>& items) { return items.size(); });
            ASSERT_EQ(none, std::nullopt);
        }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    EXPECT_EQ(queue.push_until(1, deadline), PushStatus::timed_out);
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
    stop.store(true);
    shedder.join();
    EXPECT_EQ(queue.size(), 1u);  // nothing shed, nothing pushed
    EXPECT_EQ(queue.pop(), 0);
}

TEST(BoundedMpmcQueueTest, WaitBelowWakesOnShutdown) {
    // An admission layer parked in wait_below must not sleep out its whole
    // deadline when the queue shuts down: close() wakes it immediately and
    // the verdict is honest — false, the depth never dropped.
    BoundedMpmcQueue<int> queue(2);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.close();
    });
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::seconds(60);
    EXPECT_FALSE(queue.wait_below(1, deadline));
    // Return far before the deadline proves the close woke the wait; the
    // generous bound keeps the check robust on slow CI machines.
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
    closer.join();
    // Accepted items still drain after the refused wait (graceful close).
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

// --- try_pop / pop_until: the work-stealing consumer's primitives ---

TEST(BoundedMpmcQueueTest, TryPopServesFifoFrontAndReportsEmpty) {
    BoundedMpmcQueue<int> queue(4);
    EXPECT_EQ(queue.try_pop(), std::nullopt);  // empty, open
    ASSERT_TRUE(queue.try_push(1));
    ASSERT_TRUE(queue.try_push(2));
    EXPECT_EQ(queue.try_pop(), 1);  // exactly pop()'s choice: FIFO front
    EXPECT_EQ(queue.try_pop(), 2);
    EXPECT_EQ(queue.try_pop(), std::nullopt);
    queue.close();
    EXPECT_EQ(queue.try_pop(), std::nullopt);  // empty + closed, no block
}

TEST(BoundedMpmcQueueTest, TryPopWakesABlockedProducer) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    bool accepted = false;
    std::thread producer([&] { accepted = queue.push(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // The slot freed by a stealing consumer must wake the parked producer
    // exactly as pop() would — a stolen job is still a freed slot.
    EXPECT_EQ(queue.try_pop(), 0);
    producer.join();
    EXPECT_TRUE(accepted);
    EXPECT_EQ(queue.pop(), 1);
}

TEST(BoundedMpmcQueueTest, TryPopWakesAWaitBelowWaiter) {
    // The steal-path wake-discipline pin: an admission layer parked in
    // wait_below must be woken when a *stealer* (not the home consumer)
    // drains the queue through try_pop.  If try_pop skipped the not_full_
    // wake, the waiter would sleep out its whole deadline even though the
    // depth it is waiting for was reached long ago.
    BoundedMpmcQueue<int> queue(4);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    const auto start = std::chrono::steady_clock::now();
    bool dropped = false;
    std::thread waiter([&] {
        dropped = queue.wait_below(2, start + std::chrono::seconds(60));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(queue.try_pop(), 1);  // depth 2 -> 1 < 2: waiter's predicate
    waiter.join();
    EXPECT_TRUE(dropped);
    // Returning far before the deadline proves the wake (not a timeout).
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
}

TEST(BoundedMpmcQueueTest, PopUntilTimesOutOnAnEmptyQueue) {
    BoundedMpmcQueue<int> queue(2);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    EXPECT_EQ(queue.pop_until(deadline), std::nullopt);
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
    EXPECT_FALSE(queue.closed());  // timeout, not shutdown
}

TEST(BoundedMpmcQueueTest, PopUntilDeliversAnItemArrivingMidWait) {
    BoundedMpmcQueue<int> queue(2);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_TRUE(queue.push(7));
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    EXPECT_EQ(queue.pop_until(deadline), 7);
    producer.join();
}

TEST(BoundedMpmcQueueTest, PopUntilDrainsThenSignalsClosedViaRecheck) {
    // nullopt is deliberately ambiguous (timeout vs drained-and-closed);
    // the documented disambiguation — re-check closed() && size() == 0 —
    // must be a stable end state: closed refuses pushes, so once observed
    // it stays true.
    BoundedMpmcQueue<int> queue(2);
    ASSERT_TRUE(queue.push(1));
    queue.close();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    EXPECT_EQ(queue.pop_until(deadline), 1);  // accepted work still drains
    EXPECT_EQ(queue.pop_until(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(5)),
              std::nullopt);
    EXPECT_TRUE(queue.closed());
    EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedMpmcQueueTest, PopUntilWakesImmediatelyOnClose) {
    BoundedMpmcQueue<int> queue(2);
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.close();
    });
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(queue.pop_until(start + std::chrono::seconds(60)), std::nullopt);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
    closer.join();
}

TEST(BoundedMpmcQueueTest, ExtractUnblocksAWaitingProducer) {
    BoundedMpmcQueue<int> queue(1);
    ASSERT_TRUE(queue.push(0));
    bool accepted = false;
    std::thread producer([&] { accepted = queue.push(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto victim =
        queue.extract([](const std::deque<int>&) { return std::size_t{0}; });
    ASSERT_TRUE(victim.has_value());
    producer.join();
    EXPECT_TRUE(accepted);
    EXPECT_EQ(queue.pop(), 1);
}

}  // namespace
