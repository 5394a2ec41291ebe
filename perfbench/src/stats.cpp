#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

std::optional<Percentile> nearest_rank(std::span<const double> sorted, double q) {
    const std::size_t n = sorted.size();
    if (n == 0 || !(q > 0.0) || q > 1.0) {
        return std::nullopt;
    }
    // The small epsilon keeps q * n that is an integer in exact arithmetic
    // (0.99 * 1000) from rounding up one rank in binary floating point.
    const double exact_rank = q * static_cast<double>(n);
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact_rank - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    const std::size_t beyond = n - rank;
    if (beyond < kMinBeyond) {
        return std::nullopt;
    }
    return Percentile{sorted[rank - 1], n, beyond};
}

void Samples::append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
}

std::optional<Percentile> Samples::percentile(double q) const {
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    return nearest_rank(values_, q);
}

double Samples::percentile_or_zero(double q) const {
    const std::optional<Percentile> p = percentile(q);
    return p ? p->value : 0.0;
}

std::optional<Percentile> windowed_median(std::span<const Samples> windows) {
    if (windows.empty()) {
        return std::nullopt;
    }
    std::vector<double> medians;
    Percentile out;
    out.beyond = static_cast<std::size_t>(-1);
    for (const Samples& window : windows) {
        const std::optional<Percentile> p = window.percentile(0.5);
        if (!p) {
            return std::nullopt;
        }
        medians.push_back(p->value);
        out.samples += p->samples;
        out.beyond = std::min(out.beyond, p->beyond);
    }
    out.value = median(std::move(medians));
    return out;
}

std::string describe(const std::string& label, const Percentile& p, const std::string& unit) {
    std::ostringstream out;
    out.precision(6);
    out << label << " = " << p.value << " " << unit << " (n=" << p.samples << ", " << p.beyond
        << " beyond)";
    return out.str();
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double process_cpu_s() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0.0;
    }
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
