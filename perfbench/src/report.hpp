// What one benchmark run hands back to main(): the self-check verdict, the
// attempted/failed operation counts, and the metrics by name.  Also the
// measurement helpers the serve and alloc workloads share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "tape.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport {
    /// Self-check failures (divergent results, broken outcome identity).
    /// Any entry fails the run before a number is printed.
    std::vector<std::string> failures;
    /// Reasons the measurement is invalid (generator lag, too few samples
    /// for a percentile, too few cores for the placement).  Any entry
    /// fails the run as well.
    std::vector<std::string> invalid;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /// Human-readable lines printed before the result (sample counts,
    /// workload-specific figures).
    std::vector<std::string> notes;

    void fail(std::string why) { failures.push_back(std::move(why)); }
    void invalidate(std::string why) { invalid.push_back(std::move(why)); }
};

/// How one run is invoked.
struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path;  ///< JSON-lines span file written by traced runs
    std::size_t shards = 3;  ///< shard workers; the generator takes one more core
};

inline double to_us(steady::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
}

inline double to_ns(steady::duration d) {
    return std::chrono::duration<double, std::nano>(d).count();
}

inline double to_s(steady::duration d) {
    return std::chrono::duration<double>(d).count();
}

inline steady::duration from_s(double s) {
    return std::chrono::duration_cast<steady::duration>(std::chrono::duration<double>(s));
}

/// Independent child seed for one named input stream of a run.
inline std::uint64_t child_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Adds a windowed median (stats.hpp) as a gated metric; a refused window
/// invalidates the run.
inline void add_windowed_median(RunReport& report, std::vector<Metric>& into,
                                const std::string& name, std::span<const Samples> windows,
                                const std::string& unit) {
    const std::optional<Percentile> p = windowed_median(windows);
    if (!p) {
        report.invalidate(name + ": a window holds too few samples for its median");
        return;
    }
    report.notes.push_back(describe(name, *p, unit) + " [median of " +
                           std::to_string(windows.size()) + " window medians]");
    into.push_back(Metric{name, p->value, unit});
}

/// Adds a reported-but-ungated percentile to the printed notes; too few
/// samples beyond it is printed as a refusal instead of failing the run.
inline void note_percentile(RunReport& report, const std::string& name, const Samples& samples,
                            double q, const std::string& unit) {
    const std::optional<Percentile> p = samples.percentile(q);
    report.notes.push_back(p ? describe(name, *p, unit)
                             : name + ": refused, " + std::to_string(samples.size()) +
                                   " samples leave fewer than " + std::to_string(kMinBeyond) +
                                   " beyond");
}

/// Meters a closed loop in consecutive slices: per slice, process CPU time
/// per completion and completions per wall-clock second.  The printed
/// figures are the slice medians, so a slice that a hypervisor stall or a
/// migration hit does not move them.
class SliceMeter {
public:
    /// Starts the first slice now, at `done` completions so far.
    void start(std::uint64_t done) {
        cpu_mark_ = process_cpu_s();
        wall_mark_ = steady::now();
        done_mark_ = done;
    }

    /// Ends the current slice at `done` completions so far; a slice with no
    /// completion in it is left open.
    void mark(std::uint64_t done) {
        if (done <= done_mark_) {
            return;
        }
        const double cpu = process_cpu_s();
        const steady::time_point wall = steady::now();
        const double n = static_cast<double>(done - done_mark_);
        cpu_us_.push_back((cpu - cpu_mark_) * 1e6 / n);
        rate_.push_back(n / std::max(to_s(wall - wall_mark_), 1e-9));
        cpu_mark_ = cpu;
        wall_mark_ = wall;
        done_mark_ = done;
    }

    /// Prints cpu_us_per_req and `rate_name` (the slice medians), with the
    /// whole phase's `completions` over `elapsed_s` and `detail` beside.
    void note(RunReport& report, const std::string& rate_name, std::uint64_t completions,
              double elapsed_s, const std::string& detail) const {
        report.notes.push_back("cpu_us_per_req = " + std::to_string(median(cpu_us_)) +
                               " us (process CPU per completion, median of " +
                               std::to_string(cpu_us_.size()) + " closed-loop slices)");
        report.notes.push_back(
            rate_name + " = " + std::to_string(median(rate_)) + " 1/s (median of " +
            std::to_string(rate_.size()) + " closed-loop slices; " + std::to_string(completions) +
            " completions at " +
            std::to_string(static_cast<double>(completions) / std::max(elapsed_s, 1e-9)) +
            " 1/s over the whole phase" + detail + ")");
    }

private:
    std::vector<double> cpu_us_;
    std::vector<double> rate_;
    double cpu_mark_ = 0.0;
    steady::time_point wall_mark_{};
    std::uint64_t done_mark_ = 0;
};

/// Served latencies of one open-loop phase, clocked from each arrival's
/// scheduled instant: every sample for the percentiles, the same samples
/// split by arrival order into kWindows windows for the windowed median,
/// and how many met the latency limit.
struct LatencyRecorder {
    Samples all;
    std::vector<Samples> windows = std::vector<Samples>(kWindows);
    std::uint64_t within_limit = 0;

    /// Books arrival `i` of `n`, served `latency_us` after it was due.
    void add(std::size_t i, std::size_t n, double latency_us, double limit_us) {
        all.add(latency_us);
        windows[i * kWindows / n].add(latency_us);
        within_limit += latency_us <= limit_us ? 1 : 0;
    }
};

/// The open-loop end-to-end metrics: the gated windowed p50s and
/// goodput.heavy (served within the limit / heavy arrivals; an arrival
/// not served counts as a miss), and the printed p99s.
inline std::vector<Metric> open_loop_metrics(RunReport& report, const LatencyRecorder& light,
                                             const LatencyRecorder& heavy,
                                             std::uint64_t heavy_arrivals) {
    std::vector<Metric> out;
    add_windowed_median(report, out, "p50_us.light", light.windows, "us");
    add_windowed_median(report, out, "p50_us.heavy", heavy.windows, "us");
    note_percentile(report, "p99_us.light", light.all, 0.99, "us");
    note_percentile(report, "p99_us.heavy", heavy.all, 0.99, "us");
    out.push_back(Metric{"goodput.heavy",
                         static_cast<double>(heavy.within_limit) /
                             static_cast<double>(std::max<std::uint64_t>(1, heavy_arrivals)),
                         "ratio"});
    return out;
}

/// Runs `once` (one full set-up, returning its duration in seconds) at
/// least 5 times, then again while the repetitions total under two
/// seconds, at most 200 times, prints the spread of the durations, and
/// returns their median.  A set-up of a few milliseconds is thus timed a
/// hundred times or more.  The caller keeps the state of the last
/// repetition.
template <class Once>
double median_setup_s(RunReport& report, Once&& once) {
    std::vector<double> durations;
    double total = 0.0;
    while (durations.size() < 5 || (total < 2.0 && durations.size() < 200)) {
        durations.push_back(once());
        total += durations.back();
    }
    std::vector<double> sorted = durations;
    std::sort(sorted.begin(), sorted.end());
    report.notes.push_back("setup_s over " + std::to_string(sorted.size()) +
                           " repetitions: min " + std::to_string(sorted.front()) + ", quartiles " +
                           std::to_string(sorted[sorted.size() / 4]) + " / " +
                           std::to_string(sorted[sorted.size() / 2]) + " / " +
                           std::to_string(sorted[3 * sorted.size() / 4]) + ", max " +
                           std::to_string(sorted.back()) + " s");
    return median(std::move(durations));
}

/// The workloads.  Each runs the untraced phases, and in trace mode the
/// traced phases and layer replays after them.
RunReport run_serve_small(const RunConfig& config);
RunReport run_serve_large_skew(const RunConfig& config);
RunReport run_serve_hw_mixed(const RunConfig& config);
RunReport run_alloc_churn(const RunConfig& config);

}  // namespace perfbench
