// Host fingerprint printed with every result, and the optimised-build gate.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Fingerprint {
    unsigned nproc = 0;
    std::string isa;          ///< kern::active_kernels().isa
    std::size_t numa_nodes = 1;
    std::string compiler;
    std::string build_type;   ///< CMAKE_BUILD_TYPE the benchmark was built with
    bool optimised = false;   ///< compiled with optimisation and without assertions' debug mode
};

[[nodiscard]] Fingerprint host_fingerprint();

/// One line: "host: nproc=4 isa=avx2 numa_nodes=1 compiler=gcc 12.2.0 build=Release seed=7".
[[nodiscard]] std::string describe(const Fingerprint& fp, std::uint64_t seed);

}  // namespace perfbench
