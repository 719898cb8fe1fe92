#include "json_bench.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arnet/obs/metrics.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"

namespace arnet::benchjson {

namespace {

runner::BenchRow measure(const Case& c) {
  using clock = std::chrono::steady_clock;
  constexpr double kBudgetSeconds = 0.2;
  constexpr std::int64_t kMinIterations = 3;

  c.body();  // warm-up: first-touch allocations, cold caches

  runner::BenchRow row;
  row.name = c.name;
  obs::Histogram latency_ns;
  auto start = clock::now();
  while (true) {
    auto t0 = clock::now();
    row.sim_events += c.body();
    auto t1 = clock::now();
    ++row.iterations;
    latency_ns.record(std::chrono::duration<double, std::nano>(t1 - t0).count());
    double elapsed = std::chrono::duration<double>(t1 - start).count();
    if (row.iterations >= kMinIterations && elapsed >= kBudgetSeconds) {
      row.wall_time_s = elapsed;
      break;
    }
  }
  row.ops_per_sec = static_cast<double>(row.iterations) / row.wall_time_s;
  row.latency_ns = {latency_ns.mean(), latency_ns.p50(), latency_ns.p90(),
                    latency_ns.p99(), latency_ns.min(), latency_ns.max()};
  return row;
}

}  // namespace

int run_json(int argc, char** argv, const std::string& suite, const std::vector<Case>& cases) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::SweepArtifacts out{.suite = suite, .out_dir = flags.str("--out-dir")};
  for (const Case& c : cases) {
    std::fprintf(stderr, "running %s...\n", c.name.c_str());
    out.rows.push_back(measure(c));
  }
  return runner::write_sweep(out);
}

}  // namespace arnet::benchjson
