// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (none inside the library): a name, start, end, the
// index of the span that caused it, and the id of the arrival or batch it
// belongs to.  They stay in memory while the workload runs and are written
// out as JSON lines once it ends, so the recording itself never does I/O.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tape.hpp"

namespace perfbench {

struct Span {
    const char* name = "";   ///< static string: "request", "admit", ...
    std::uint64_t id = 0;    ///< arrival / batch id shared by related spans
    std::int64_t parent = -1;  ///< index of the causing span, -1 = root
    steady::time_point start{};
    steady::time_point end{};
};

class Trace {
public:
    explicit Trace(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Records one span and returns its index (for children), or -1 when
    /// tracing is off.
    std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent,
                     steady::time_point start, steady::time_point end) {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back(Span{name, id, parent, start, end});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    /// Sets the end of a span recorded open (a root whose children are
    /// recorded before it finishes).  No-op for -1.
    void close(std::int64_t span, steady::time_point end) {
        if (span >= 0) {
            spans_[static_cast<std::size_t>(span)].end = end;
        }
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Writes one JSON object per span (times in ns from the first span's
    /// start).  Returns false when the file cannot be written.
    bool write_jsonl(const std::string& path) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
