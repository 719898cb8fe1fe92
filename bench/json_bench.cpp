#include "json_bench.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "arnet/obs/metrics.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"

namespace arnet::benchjson {

namespace {

struct Measurement {
  std::int64_t iterations = 0;
  double wall_s = 0.0;
  std::int64_t sim_events = 0;
  obs::Histogram latency_ns;
};

Measurement measure(const Case& c) {
  using clock = std::chrono::steady_clock;
  constexpr double kBudgetSeconds = 0.2;
  constexpr std::int64_t kMinIterations = 3;

  c.body();  // warm-up: first-touch allocations, cold caches

  Measurement m;
  auto start = clock::now();
  while (true) {
    auto t0 = clock::now();
    m.sim_events += c.body();
    auto t1 = clock::now();
    ++m.iterations;
    m.latency_ns.record(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    double elapsed = std::chrono::duration<double>(t1 - start).count();
    if (m.iterations >= kMinIterations && elapsed >= kBudgetSeconds) {
      m.wall_s = elapsed;
      break;
    }
  }
  return m;
}

}  // namespace

int run_json(const std::string& suite, const std::vector<Case>& cases,
             const std::string& path, int jobs) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  // Each case is a self-contained simulation world, so cases fan out across
  // the pool; results come back in input order, keeping the document layout
  // independent of the job count.
  runner::ExperimentRunner::Config pool_cfg;
  pool_cfg.jobs = jobs;
  runner::ExperimentRunner pool(pool_cfg);
  std::vector<Measurement> measurements = pool.map<Measurement>(
      cases.size(), [&cases](runner::RunContext& ctx) {
        const Case& c = cases[ctx.run_index];
        std::fprintf(stderr, "running %s...\n", c.name.c_str());
        return measure(c);
      });
  std::vector<runner::BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Measurement& m = measurements[i];
    const obs::Histogram& h = m.latency_ns;
    runner::BenchRow row;
    row.name = cases[i].name;
    row.iterations = m.iterations;
    row.wall_time_s = m.wall_s;
    row.ops_per_sec = static_cast<double>(m.iterations) / m.wall_s;
    row.sim_events = m.sim_events;
    row.latency_ns = {h.mean(), h.p50(), h.p90(), h.p99(), h.min(), h.max()};
    rows.push_back(std::move(row));
  }
  runner::write_bench_json(os, suite, rows);
  return os.good() ? 0 : 1;
}

int main_dispatch(int argc, char** argv, const std::string& suite,
                  const std::vector<Case>& cases) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return run_json(suite, cases, argv[i + 1],
                      runner::parse_jobs_flag(argc, argv, 1));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace arnet::benchjson
