// Single-thread replay of a precomputed arrival tape.
//
// One generator thread drives every workload: it walks the merged
// multi-tenant tape (wl::build_schedule's output, or the alloc workload's
// batch tape) in order and hands each entry to the system at its scheduled
// instant.  A late generator hides queueing — the system looks idle while
// the generator is the one stalling (coordinated omission) — so latency is
// clocked from the scheduled instant and the generator's lag (actual
// hand-off instant minus scheduled instant) is reported beside it.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

namespace perfbench {

using steady = std::chrono::steady_clock;

/// Waits until `when`: sleeps while far away, then spins the last stretch,
/// because even with the timer slack main() sets, a sleep can overshoot by
/// several microseconds, which at 100k+ arrivals/s would bunch the tape.
inline void wait_until(steady::time_point when) {
    constexpr auto kSpin = std::chrono::microseconds(30);
    for (;;) {
        const steady::time_point now = steady::now();
        if (now >= when) {
            return;
        }
        if (when - now > 2 * kSpin) {
            std::this_thread::sleep_for(when - now - kSpin);
        }
    }
}

/// Replays `count` tape entries in index order.  `offset(i)` is entry i's
/// scheduled offset from `start` (non-decreasing in i), `wait(t)` blocks
/// until instant t (wait_until in the benchmark, a virtual clock in the
/// tests), and `submit(i, scheduled)` hands entry i to the system.  The
/// tape's own order is the replay order: entries with equal offsets go
/// out in index order, so a tape merged with a stable tenant tie-break
/// replays with that same tie-break.
template <class Offset, class Wait, class Submit>
void replay_tape(std::size_t count, steady::time_point start, Offset&& offset, Wait&& wait,
                 Submit&& submit) {
    for (std::size_t i = 0; i < count; ++i) {
        const steady::time_point scheduled =
            start + std::chrono::duration_cast<steady::duration>(offset(i));
        wait(scheduled);
        submit(i, scheduled);
    }
}

}  // namespace perfbench
