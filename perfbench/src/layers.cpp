#include "layers.hpp"

#include <algorithm>

namespace perfbench {

using namespace qfa;

CoreReplay::CoreReplay(const serve::Generation& gen)
    : retriever_(gen.case_base, gen.bounds, gen.compiled),
      exact_bytes_per_row_(gen.compiled.stats().exact_bytes_per_row()),
      q8_bytes_per_row_(gen.compiled.stats().q8_bytes_per_row()) {}

cbr::RetrievalResult CoreReplay::scan(const cbr::Request& request,
                                      const cbr::RetrievalOptions& options, Trace& trace,
                                      std::uint64_t id, std::int64_t parent) {
    const steady::time_point t0 = steady::now();
    cbr::RetrievalResult result = retriever_.retrieve_compiled(request, options, &scratch_);
    const steady::time_point t1 = steady::now();
    trace.add("core.scan", id, parent, t0, t1);
    scan_us_.add(to_us(t1 - t0));
    scan_ns_ += to_ns(t1 - t0);
    const double rows = static_cast<double>(result.impls_considered);
    const double constraints = static_cast<double>(request.size());
    rows_ += rows;
    const cbr::TwoPhaseStats& tp = scratch_.two_phase;
    if (tp.engaged) {
        ++engaged_;
        bytes_ += constraints * (rows * q8_bytes_per_row_ +
                                 static_cast<double>(tp.rescored) * exact_bytes_per_row_);
    } else {
        bytes_ += constraints * rows * exact_bytes_per_row_;
    }
    rescored_ += tp.rescored;
    widen_ += tp.widen_rounds;
    return result;
}

void CoreReplay::report(std::vector<Metric>& out) const {
    const double n = static_cast<double>(std::max<std::size_t>(1, scan_us_.size()));
    out.push_back({"core.scan_us.p50", scan_us_.percentile_or_zero(0.50), "us"});
    out.push_back({"core.scan_us.p99", scan_us_.percentile_or_zero(0.99), "us"});
    out.push_back({"core.q8_engaged_ratio", static_cast<double>(engaged_) / n, "ratio"});
    out.push_back({"core.rescored_rows_per_req", static_cast<double>(rescored_) / n, "count"});
    out.push_back({"core.widen_rounds_per_req", static_cast<double>(widen_) / n, "count"});
    out.push_back({"core.scan_ns_per_row", rows_ > 0 ? scan_ns_ / rows_ : 0.0, "ns"});
    out.push_back({"core.bytes_per_req", bytes_ / n, "B"});
}

double shard_imbalance(const serve::EngineStats& before, const serve::EngineStats& after) {
    double max_served = 0.0;
    double sum_served = 0.0;
    for (std::size_t s = 0; s < after.shard_served.size(); ++s) {
        const double d = static_cast<double>(after.shard_served[s] - before.shard_served[s]);
        max_served = std::max(max_served, d);
        sum_served += d;
    }
    const double shards = static_cast<double>(std::max<std::size_t>(1, after.shard_served.size()));
    return sum_served > 0 ? max_served / (sum_served / shards) : 0.0;
}

void add_overheads(std::vector<Metric>& out, const std::vector<Metric>& untraced,
                   const std::vector<Metric>& traced) {
    const auto value_of = [](const std::vector<Metric>& metrics, const std::string& name) {
        for (const Metric& m : metrics) {
            if (m.name == name) {
                return m.value;
            }
        }
        return 0.0;
    };
    for (const char* name : {"p50_us.light", "p50_us.heavy"}) {
        out.push_back({std::string("trace.overhead.") + name,
                       value_of(traced, name) - value_of(untraced, name), "us"});
    }
}

}  // namespace perfbench
