// Per-layer measurements shared by the serve and alloc workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/retrieval.hpp"
#include "report.hpp"
#include "serve/engine.hpp"
#include "serve/generation.hpp"
#include "trace.hpp"

namespace perfbench {

/// Single-thread replay through Retriever::retrieve_compiled with one
/// RetrievalScratch, reading the two-phase telemetry after each call: the
/// core layer's metrics.  Bytes per request are computed from the plan
/// tiers' bytes per row, not measured.
class CoreReplay {
public:
    explicit CoreReplay(const qfa::serve::Generation& gen);

    /// Times one retrieval and records a "core.scan" span under `parent`.
    qfa::cbr::RetrievalResult scan(const qfa::cbr::Request& request,
                                   const qfa::cbr::RetrievalOptions& options, Trace& trace,
                                   std::uint64_t id, std::int64_t parent);

    /// Appends the core.* metrics.
    void report(std::vector<Metric>& out) const;

private:
    qfa::cbr::Retriever retriever_;
    qfa::cbr::RetrievalScratch scratch_;
    double exact_bytes_per_row_;
    double q8_bytes_per_row_;
    Samples scan_us_;
    double scan_ns_ = 0.0;
    double rows_ = 0.0;
    double bytes_ = 0.0;
    std::uint64_t engaged_ = 0;
    std::uint64_t rescored_ = 0;
    std::uint64_t widen_ = 0;
};

/// max / mean of the per-shard completions between two snapshots.
double shard_imbalance(const qfa::serve::EngineStats& before,
                       const qfa::serve::EngineStats& after);

/// Appends trace.overhead.<name> = traced - untraced for the metrics the
/// traced pass can perturb.
void add_overheads(std::vector<Metric>& out, const std::vector<Metric>& untraced,
                   const std::vector<Metric>& traced);

}  // namespace perfbench
