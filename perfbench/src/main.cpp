// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload at one seed, self-checks its outputs, and prints the
// host fingerprint, every metric with its unit and sample count, and as the
// last line one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced pass (--trace 1).  Exit codes: 0 ok, 1 self-check failed,
// 2 usage error or unoptimised build, 3 invalid measurement.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "host.hpp"
#include "report.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// The metric vocabulary BENCHMARK.json declares, in print order.  Every
// workload reports every end-to-end metric; a per-layer metric of a layer
// the workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"p50_us.light", "us"},
    {"p50_us.heavy", "us"},
    {"goodput.heavy", "ratio"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.gen_lag_us.p99", "us"},
    {"serve.admit_ns.p50", "ns"},
    {"serve.admit_ns.p99", "ns"},
    {"serve.sojourn_us.p50", "us"},
    {"serve.sojourn_us.p99", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.shard_imbalance", "ratio"},
    {"serve.stolen_ratio", "ratio"},
    {"serve.refused_ratio", "ratio"},
    {"serve.expired_ratio", "ratio"},
    {"serve.shed_ratio", "ratio"},
    {"core.scan_us.p50", "us"},
    {"core.scan_us.p99", "us"},
    {"core.q8_engaged_ratio", "ratio"},
    {"core.rescored_rows_per_req", "count"},
    {"core.widen_rounds_per_req", "count"},
    {"core.scan_ns_per_row", "ns"},
    {"core.bytes_per_req", "B"},
    {"backend.score_us.p50.cpu-simd", "us"},
    {"backend.score_us.p50.device", "us"},
    {"backend.score_us.p50.mblaze", "us"},
    {"backend.fallback_ratio", "ratio"},
    {"backend.failovers", "count"},
    {"backend.breaker_opens", "count"},
    {"device.cycles_per_run", "count"},
    {"device.reconfigurations", "count"},
    {"alloc.bypass_hit_ratio", "ratio"},
    {"alloc.retrievals_per_req", "count"},
    {"alloc.spec_adopt_ratio", "ratio"},
    {"alloc.counter_offer_ratio", "ratio"},
    {"alloc.preemptions_per_req", "count"},
    {"alloc.fanout_us.p50", "us"},
    {"alloc.feasibility_us.p50", "us"},
    {"alloc.batch_us.p50", "us"},
    {"generation.publish_us.p50", "us"},
    {"generation.cow_shared_ratio", "ratio"},
    {"trace.overhead.p50_us.light", "us"},
    {"trace.overhead.p50_us.heavy", "us"},
};

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload serve_small|serve_large_skew|serve_hw_mixed|"
                 "alloc_churn --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
    return 2;
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Orders the reported metrics by the declared vocabulary.  Returns false
/// (after saying why) when the workload reported a name outside it or a
/// non-finite value, or left out an end-to-end metric.
bool canonical(const std::vector<Metric>& reported, std::span<const MetricSpec> declared,
               bool zero_fill, std::vector<Metric>& out) {
    std::map<std::string, double> by_name;
    for (const Metric& m : reported) {
        by_name[m.name] = m.value;
    }
    for (const MetricSpec& spec : declared) {
        const auto it = by_name.find(spec.name);
        if (it == by_name.end() && !zero_fill) {
            std::cerr << "perfbench: metric " << spec.name << " was not measured\n";
            return false;
        }
        const double value = it == by_name.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            std::cerr << "perfbench: metric " << spec.name << " is not finite\n";
            return false;
        }
        out.push_back(Metric{spec.name, value, spec.unit});
        if (it != by_name.end()) {
            by_name.erase(it);
        }
    }
    if (!by_name.empty()) {
        std::cerr << "perfbench: undeclared metric " << by_name.begin()->first << "\n";
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        args[argv[i]] = argv[i + 1];
    }
    if (argc % 2 == 0) {
        return usage("arguments come in --name value pairs");
    }
    for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
        if (!args.contains(required)) {
            return usage(std::string("missing ") + required);
        }
    }
    RunConfig config;
    try {
        config.seed = std::stoull(args["--seed"]);
        config.seconds = std::stod(args["--seconds"]);
    } catch (const std::exception&) {
        return usage("--seed and --seconds must be numbers");
    }
    if (!(config.seconds >= 1.0 && config.seconds <= 60.0)) {
        return usage("--seconds must lie in [1, 60]");
    }
    if (args["--trace"] != "0" && args["--trace"] != "1") {
        return usage("--trace must be 0 or 1");
    }
    config.trace = args["--trace"] == "1";
    if (args.contains("--trace-out")) {
        config.trace_path = args["--trace-out"];
    }

    const std::map<std::string, std::function<RunReport(const RunConfig&)>> workloads = {
        {"serve_small", run_serve_small},
        {"serve_large_skew", run_serve_large_skew},
        {"serve_hw_mixed", run_serve_hw_mixed},
        {"alloc_churn", run_alloc_churn},
    };
    const auto workload = workloads.find(args["--workload"]);
    if (workload == workloads.end()) {
        return usage("unknown workload " + args["--workload"]);
    }

#ifdef __linux__
    // Sleeps of the generator (and the single decision thread) wake within
    // microseconds instead of the default 50 us slack.
    (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    const Fingerprint fp = host_fingerprint();
    std::cout << describe(fp, config.seed) << "\n";
    if (!fp.optimised) {
        std::cerr << "perfbench: refusing to report numbers from a non-optimised build ("
                  << fp.build_type << ")\n";
        return 2;
    }
    // Shard workers plus the one generator thread stay within the cores.
    config.shards = std::clamp<std::size_t>(fp.nproc > 1 ? fp.nproc - 1 : 1, 1, 3);
    std::cout << "workload: " << workload->first << " shards=" << config.shards
              << " seconds=" << config.seconds << " trace=" << config.trace << "\n";

    const RunReport report = workload->second(config);
    rusage usage_self{};
    if (getrusage(RUSAGE_SELF, &usage_self) == 0) {
        std::cout << "  peak_rss_mb = " << usage_self.ru_maxrss / 1024 << "\n";
    }
    for (const std::string& line : report.notes) {
        std::cout << "  " << line << "\n";
    }
    if (!report.failures.empty()) {
        for (const std::string& why : report.failures) {
            std::cerr << "perfbench: SELF-CHECK FAILED: " << why << "\n";
        }
        return 1;
    }
    if (!report.invalid.empty()) {
        for (const std::string& why : report.invalid) {
            std::cerr << "perfbench: INVALID RUN: " << why << "\n";
        }
        return 3;
    }
    std::vector<Metric> e2e;
    std::vector<Metric> layers;
    if (!canonical(report.end_to_end, kEndToEnd, false, e2e) ||
        (config.trace && !canonical(report.per_layer, kPerLayer, true, layers))) {
        return 3;
    }
    const std::vector<Metric>& shown = config.trace ? layers : e2e;
    for (const Metric& m : shown) {
        std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
    }
    std::cout << "failed_ratio = "
              << json_number(static_cast<double>(report.failed) /
                             static_cast<double>(std::max<std::uint64_t>(1, report.attempted)))
              << " (" << report.failed << " of " << report.attempted << ")\n";

    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < shown.size(); ++i) {
        json += (i == 0 ? "\"" : ", \"") + shown[i].name + "\": {\"value\": " +
                json_number(shown[i].value) + ", \"unit\": \"" + shown[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
