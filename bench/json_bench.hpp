#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace arnet::benchjson {

/// One benchmark case. `body` runs a single iteration of the workload and
/// returns the number of simulator events it executed (0 for pure-compute
/// workloads such as the vision kernels).
struct Case {
  std::string name;
  std::function<std::int64_t()> body;
};

/// Keeps `value`, and the work that produced it, from being optimised away:
/// the empty asm takes the value's address and clobbers memory, so the
/// compiler must assume the bytes are read. It emits no instructions.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Entry point of the microbench binaries: time every case, one after the
/// other, and write an "arnet-bench-v1" document (runner::write_bench_json;
/// runner/sweep.hpp shows the layout) to BENCH_<suite>.json under --out-dir
/// (default bench-out/), the binaries' one flag. Each row carries host
/// wall-clock time and per-iteration latencies; the latencies feed an
/// obs::Histogram, so the percentile semantics match the rest of the
/// observability layer. Returns 0 on success, 1 if the file cannot be written.
int run_json(int argc, char** argv, const std::string& suite, const std::vector<Case>& cases);

}  // namespace arnet::benchjson
