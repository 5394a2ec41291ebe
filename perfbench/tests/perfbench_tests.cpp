// Unit tests for the benchmark's own machinery: the percentile helper and
// the single-thread tape replay.  Plain checks, no framework, so the
// benchmark package builds with the library alone.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "tape.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/openloop.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<double>(i + 1);
    }
    return v;
}

void nearest_rank_picks_ceil_rank() {
    const std::vector<double> v = ramp(1000);
    const auto p50 = perfbench::nearest_rank(v, 0.50);
    const auto p99 = perfbench::nearest_rank(v, 0.99);
    check(p50 && p50->value == 500.0 && p50->samples == 1000 && p50->beyond == 500,
          "p50 of 1..1000 is 500 with 500 beyond");
    // 0.99 * 1000 is 990 exactly; binary rounding must not push it to 991.
    check(p99 && p99->value == 990.0 && p99->beyond == 10, "p99 of 1..1000 is 990, 10 beyond");
    const auto p999 = perfbench::nearest_rank(ramp(20000), 0.999);
    check(p999 && p999->value == 19980.0 && p999->beyond == 20, "p999 of 1..20000 is 19980");
}

void percentile_refused_with_too_few_beyond() {
    check(!perfbench::nearest_rank(ramp(999), 0.99).has_value(),
          "p99 of 999 samples leaves 9 beyond: refused");
    check(!perfbench::nearest_rank(ramp(19), 0.50).has_value(),
          "p50 of 19 samples leaves 9 beyond: refused");
    check(perfbench::nearest_rank(ramp(20), 0.50).has_value(),
          "p50 of 20 samples leaves 10 beyond: reported");
    check(!perfbench::nearest_rank({}, 0.50).has_value(), "empty set: refused");
    check(!perfbench::nearest_rank(ramp(100), 0.0).has_value(), "q = 0: refused");
}

void samples_sort_lazily_and_print_counts() {
    perfbench::Samples s;
    for (int i = 1000; i >= 1; --i) {
        s.add(static_cast<double>(i));
    }
    const auto p99 = s.percentile(0.99);
    check(p99 && p99->value == 990.0, "Samples sorts before ranking");
    s.add(0.5);
    const auto p50 = s.percentile(0.50);
    check(p50 && p50->value == 500.0 && p50->samples == 1001, "Samples re-sorts after add");
    const std::string text = perfbench::describe("p99_us.light", *p99, "us");
    check(text.find("n=1000") != std::string::npos && text.find("10 beyond") != std::string::npos,
          "describe prints the sample count: " + text);
    check(perfbench::Samples{}.percentile_or_zero(0.5) == 0.0, "percentile_or_zero on empty");
}

void windowed_median_ignores_a_noisy_window() {
    std::vector<perfbench::Samples> windows(perfbench::kWindows);
    for (std::size_t w = 0; w < windows.size(); ++w) {
        for (int i = 1; i <= 100; ++i) {
            // Window 3 sits in a burst of host noise: ten times slower.
            windows[w].add(static_cast<double>(i) * (w == 3 ? 10.0 : 1.0) + static_cast<double>(w));
        }
    }
    const auto m = perfbench::windowed_median(windows);
    // Window medians are 50 + w except window 3 (500 + 3); sorted, the
    // middle two are 55 and 56.
    check(m && m->value == 55.5 && m->samples == 1000 && m->beyond == 50,
          "windowed median skips the noisy window");
    windows[7] = perfbench::Samples{};
    for (int i = 0; i < 19; ++i) {
        windows[7].add(1.0);
    }
    check(!perfbench::windowed_median(windows).has_value(),
          "a window with too few samples refuses the windowed median");
}

/// A virtual clock: waiting jumps time forward, never back.
struct VirtualClock {
    perfbench::steady::time_point now{};
    void wait(perfbench::steady::time_point t) { now = std::max(now, t); }
};

void merged_tape_replays_in_arrival_order() {
    using namespace qfa;
    util::Rng rng(7);
    wl::CatalogConfig shape;
    shape.function_types = 6;
    shape.impls_per_type = 8;
    const wl::GeneratedCatalog catalog = wl::generate_catalog_with_bounds(shape, rng);
    std::vector<wl::OpenLoopTenant> tenants(3);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].tenant = static_cast<serve::TenantId>(t);
        tenants[t].arrival_rate_hz = 2000.0 * static_cast<double>(t + 1);
    }
    wl::OpenLoopConfig config;
    config.seed = 11;
    config.duration = std::chrono::milliseconds(100);
    const wl::ArrivalSchedule tape =
        wl::build_schedule(catalog.case_base, catalog.bounds, tenants, config);
    check(tape.arrivals.size() > 500, "the merged tape holds every tenant's arrivals");

    VirtualClock clock;
    const perfbench::steady::time_point start{};
    std::vector<std::size_t> order;
    std::vector<bool> seen_tenant(3, false);
    bool on_time = true;
    perfbench::replay_tape(
        tape.arrivals.size(), start, [&](std::size_t i) { return tape.arrivals[i].at; },
        [&](perfbench::steady::time_point t) { clock.wait(t); },
        [&](std::size_t i, perfbench::steady::time_point scheduled) {
            order.push_back(i);
            seen_tenant[tape.arrivals[i].tenant_index] = true;
            on_time = on_time && clock.now == scheduled && scheduled == start + tape.arrivals[i].at;
        });
    bool ordered = order.size() == tape.arrivals.size();
    for (std::size_t k = 1; ordered && k < order.size(); ++k) {
        ordered = tape.arrivals[order[k - 1]].at <= tape.arrivals[order[k]].at;
    }
    check(ordered, "replay submits the merged tape in arrival-time order");
    check(on_time, "each arrival is handed over at its scheduled instant");
    check(seen_tenant[0] && seen_tenant[1] && seen_tenant[2], "one replay serves every tenant");
}

void equal_instants_keep_tenant_order() {
    // Tenants 0, 1, 2 arriving at one instant, as a stable merge leaves
    // them: the replay must not reorder them.
    using namespace std::chrono;
    const std::vector<nanoseconds> at = {0ns, 5us, 5us, 5us, 9us, 9us};
    const std::vector<std::size_t> tenant = {1, 0, 1, 2, 0, 2};
    VirtualClock clock;
    std::vector<std::size_t> tenants_seen;
    perfbench::replay_tape(
        at.size(), perfbench::steady::time_point{}, [&](std::size_t i) { return at[i]; },
        [&](perfbench::steady::time_point t) { clock.wait(t); },
        [&](std::size_t i, perfbench::steady::time_point) { tenants_seen.push_back(tenant[i]); });
    check(tenants_seen == tenant, "ties replay in tape (tenant) order");
}

}  // namespace

int main() {
    nearest_rank_picks_ceil_rank();
    percentile_refused_with_too_few_beyond();
    samples_sort_lazily_and_print_counts();
    windowed_median_ignores_a_noisy_window();
    merged_tape_replays_in_arrival_order();
    equal_instants_keep_tenant_order();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}
