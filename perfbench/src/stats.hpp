// Sample summaries for the benchmark's reported numbers.
//
// Every timing the benchmark prints is a nearest-rank percentile together
// with the number of samples it was taken from.  A percentile is only
// reported when at least kMinBeyond samples lie beyond it: a p99 read off
// 200 samples is the third-largest value and says nothing about the tail,
// so it is refused instead of printed.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// One reported percentile.
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;  ///< size of the sample set
    std::size_t beyond = 0;   ///< samples ranked strictly above `value`'s rank
};

/// Nearest-rank percentile of an ASCENDING sample list: the value at
/// 1-based rank ceil(q * n).  nullopt when the list is empty, q is outside
/// (0, 1], or fewer than kMinBeyond samples rank beyond it.
[[nodiscard]] std::optional<Percentile> nearest_rank(std::span<const double> sorted, double q);

/// A growable sample set; percentiles sort a copy lazily.
class Samples {
public:
    void reserve(std::size_t n) { values_.reserve(n); }
    void add(double v) { values_.push_back(v); sorted_ = false; }
    void append(const Samples& other);

    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
    [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

    /// nearest_rank over the samples (see above).
    [[nodiscard]] std::optional<Percentile> percentile(double q) const;

    /// Like percentile(), but 0 when the set is empty or too small — for
    /// per-layer figures of layers a workload does not exercise.
    [[nodiscard]] double percentile_or_zero(double q) const;

private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = true;
};

/// Windows a phase's latency samples are split into, by arrival order.
inline constexpr std::size_t kWindows = 10;

/// The windowed median: the median over windows of each window's
/// nearest-rank median.  A burst of host noise that covers part of a phase
/// moves one or two window medians, not the reported figure.  `samples` is
/// the total count; `beyond` the fewest samples beyond any window's median.
/// nullopt when there are no windows or any window's median is refused.
[[nodiscard]] std::optional<Percentile> windowed_median(std::span<const Samples> windows);

/// "p99 = 123.4 us (n=5000, 50 beyond)" — the human-readable form every
/// percentile is printed in.
[[nodiscard]] std::string describe(const std::string& label, const Percentile& p,
                                   const std::string& unit);

/// Median of a list (the mean of the middle two when even); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// CPU time of the whole process (user + system, every thread), in
/// seconds.  Time the hypervisor takes from a virtual CPU is not in it.
[[nodiscard]] double process_cpu_s();

}  // namespace perfbench
