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

/// Run every case and write an "arnet-bench-v1" JSON document to `path`
/// (runner::write_bench_json; runner/sweep.hpp shows the layout), with host
/// wall-clock time and per-iteration latencies.
///
/// Per-iteration wall latencies feed an obs::Histogram, so the percentile
/// semantics match the rest of the observability layer. With `jobs` > 1 the
/// cases fan out across an ExperimentRunner pool (each case owns its whole
/// simulation world); the document always lists them in input order, so the
/// schema is identical either way. Parallel cases contend for cores, so use
/// jobs = 1 (the default) when recording a baseline and > 1 for quick local
/// smoke runs. Returns 0 on success, 1 if `path` cannot be written.
int run_json(const std::string& suite, const std::vector<Case>& cases,
             const std::string& path, int jobs = 1);

/// Entry-point helper for the microbench binaries: with "--json <path>" on
/// the command line runs `run_json` (honoring an optional "--jobs N") and
/// returns; otherwise hands the full command line to google-benchmark
/// (console output, regex filters, etc.).
int main_dispatch(int argc, char** argv, const std::string& suite,
                  const std::vector<Case>& cases);

}  // namespace arnet::benchjson
