#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

bool Trace::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    steady::time_point origin = spans_.empty() ? steady::time_point{} : spans_.front().start;
    for (const Span& span : spans_) {
        origin = std::min(origin, span.start);
    }
    const auto ns = [&](steady::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "{\"span\":" << i << ",\"name\":\"" << span.name << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"start_ns\":" << ns(span.start)
            << ",\"end_ns\":" << ns(span.end) << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

}  // namespace perfbench
