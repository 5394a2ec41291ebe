#include "host.hpp"

#include <sstream>
#include <thread>

#include "core/kernels.hpp"

// NUMA placement is slated for removal from the library; the fingerprint
// reads the node count while the shim exists and reports one node after.
#if __has_include("util/numa.hpp")
#include "util/numa.hpp"
#define PERFBENCH_HAS_NUMA 1
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Fingerprint host_fingerprint() {
    Fingerprint fp;
    fp.nproc = std::thread::hardware_concurrency();
    fp.isa = qfa::cbr::kern::active_kernels().isa;
#ifdef PERFBENCH_HAS_NUMA
    fp.numa_nodes = qfa::util::numa::node_count();
#endif
#if defined(__clang__)
    fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    fp.compiler = std::string("gcc ") + __VERSION__;
#else
    fp.compiler = "unknown";
#endif
    fp.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    fp.optimised = true;
#endif
    return fp;
}

std::string describe(const Fingerprint& fp, std::uint64_t seed) {
    std::ostringstream out;
    out << "host: nproc=" << fp.nproc << " isa=" << fp.isa << " numa_nodes=" << fp.numa_nodes
        << " compiler=" << fp.compiler << " build=" << fp.build_type
        << (fp.optimised ? "" : " (NOT OPTIMISED)") << " seed=" << seed;
    return out.str();
}

}  // namespace perfbench
