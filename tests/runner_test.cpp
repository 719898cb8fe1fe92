#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/check/determinism.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/tcp.hpp"

namespace arnet::runner {
namespace {

TEST(Runner, DeriveSeedIsDeterministicAndDecorrelated) {
  // Same (root, index) -> same seed; the per-run stream must not depend on
  // which worker thread picks the run up.
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_EQ(derive_seed(99, 7), derive_seed(99, 7));
  // Adjacent indices and adjacent roots must give well-separated seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t root : {1ull, 2ull, 0xDEADBEEFull}) {
    for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(derive_seed(root, i));
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);
  // SplitMix64 finalization: no seed should be 0 or equal to its input.
  EXPECT_NE(derive_seed(0, 0), 0u);
}

TEST(Runner, ParseJobsFlag) {
  {
    const char* raw[] = {"bench", "--jobs", "4"};
    EXPECT_EQ(parse_jobs_flag(3, const_cast<char**>(raw), 1), 4);
  }
  {
    const char* raw[] = {"bench", "--jobs=8"};
    EXPECT_EQ(parse_jobs_flag(2, const_cast<char**>(raw), 1), 8);
  }
  {
    const char* raw[] = {"bench"};
    EXPECT_EQ(parse_jobs_flag(1, const_cast<char**>(raw), 3), 3);
  }
  {
    // 0 means "use all cores".
    const char* raw[] = {"bench", "--jobs", "0"};
    EXPECT_EQ(parse_jobs_flag(3, const_cast<char**>(raw), 1),
              ExperimentRunner::hardware_jobs());
  }
}

TEST(Runner, MapReturnsResultsInRunIndexOrder) {
  ExperimentRunner::Config cfg;
  cfg.jobs = 8;
  ExperimentRunner pool(cfg);
  const std::size_t kRuns = 100;
  auto out = pool.map<std::uint64_t>(kRuns, [](RunContext& ctx) {
    return ctx.run_index * 10 + 1;
  });
  ASSERT_EQ(out.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) EXPECT_EQ(out[i], i * 10 + 1);
}

TEST(Runner, SeedsMatchDeriveSeedRegardlessOfJobs) {
  for (int jobs : {1, 8}) {
    ExperimentRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.root_seed = 1234;
    ExperimentRunner pool(cfg);
    auto seeds = pool.map<std::uint64_t>(16, [](RunContext& ctx) { return ctx.seed; });
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(seeds[i], derive_seed(1234, i)) << "jobs=" << jobs << " run=" << i;
    }
  }
}

TEST(Runner, ExceptionInRunPropagatesToCaller) {
  ExperimentRunner::Config cfg;
  cfg.jobs = 4;
  ExperimentRunner pool(cfg);
  EXPECT_THROW(pool.for_each(16,
                             [](RunContext& ctx) {
                               if (ctx.run_index == 9) {
                                 throw std::runtime_error("run 9 failed");
                               }
                             }),
               std::runtime_error);
}

// One self-contained simulated TCP transfer; returns the strict
// (event + packet) trace fingerprint and fills per-run metrics.
std::uint64_t traced_run(RunContext& ctx) {
  sim::Simulator sim;
  check::TraceRecorder rec;
  rec.attach(sim);
  net::Network net(sim, static_cast<std::uint32_t>(ctx.seed % 1000));
  rec.attach(net);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 10e6, sim::milliseconds(5 + ctx.run_index % 3), 64);
  net.compute_routes();
  transport::TcpSink sink(net, b, 80);
  transport::TcpSource src(net, a, 1000, b, 80, 1);
  src.send(200'000);
  sim.run_until(sim::seconds(5));
  ctx.metrics.counter("runner.delivered_bytes", "sink").add(sink.received_bytes());
  ctx.metrics.histogram("runner.events", "sim")
      .record(static_cast<double>(sim.events_executed()));
  return rec.fingerprint();
}

std::string registry_jsonl(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  obs::write_jsonl(reg, os);
  return os.str();
}

TEST(Runner, ParallelRunsAreBitIdenticalToSerial) {
  // The tentpole determinism claim: per-run event/packet fingerprints and
  // the merged registry must not depend on --jobs.
  auto fingerprints = [](int jobs) {
    ExperimentRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.root_seed = 77;
    ExperimentRunner pool(cfg);
    return pool.map<std::uint64_t>(12, [](RunContext& ctx) { return traced_run(ctx); });
  };
  auto serial = fingerprints(1);
  auto parallel = fingerprints(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i << " diverged under jobs=8";
  }
  // Different seeds must actually produce different traces (the fingerprints
  // would also agree trivially if every run were identical).
  std::set<std::uint64_t> distinct(serial.begin(), serial.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Runner, MergedRegistryIsIdenticalAcrossJobCounts) {
  auto merged = [](int jobs) {
    ExperimentRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.root_seed = 77;
    ExperimentRunner pool(cfg);
    return pool.run_merged(8, [](RunContext& ctx) { (void)traced_run(ctx); });
  };
  auto serial = merged(1);
  auto parallel = merged(8);
  EXPECT_EQ(registry_jsonl(serial), registry_jsonl(parallel));
  // Merge semantics: counters add across runs.
  const auto* total = serial.find_counter("runner.delivered_bytes", "sink");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->value(), 0);
  const auto* h = serial.find_histogram("runner.events", "sim");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 8);
}

TEST(Runner, ForEachRunsEveryIndexExactlyOnce) {
  ExperimentRunner::Config cfg;
  cfg.jobs = 8;
  ExperimentRunner pool(cfg);
  std::vector<std::atomic<int>> hits(64);
  pool.for_each(64, [&hits](RunContext& ctx) { hits[ctx.run_index].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Any cell's latency summary fills a row.
const sim::LatencySummary kFakeLatency{.mean_ms = 2.0, .min_ms = 0.5, .max_ms = 9.0,
                                       .p50_ms = 1.0, .p90_ms = 3.0, .p99_ms = 4.5};

// The summary layout is an artifact contract: sweep outputs are compared
// byte for byte across --jobs and across commits.
TEST(Sweep, BenchJsonLayoutIsPinned) {
  // No simulated time: wall_time_s falls back to 1 s.
  BenchRow row = sim_row("u050/\"q\"", kFakeLatency, 0.0, 12, 0.25, 7);
  row.extra = {{"frames_late", 3.0}, {"hit_ratio", 1.0 / 3.0}};
  std::ostringstream os;
  write_bench_json(os, "demo", {row});
  EXPECT_EQ(os.str(),
            "{\"schema\": \"arnet-bench-v1\", \"suite\": \"demo\", \"benchmarks\": [\n"
            "  {\"name\": \"u050/\\\"q\\\"\", \"iterations\": 12, \"wall_time_s\": 1, "
            "\"ops_per_sec\": 0.25, \"sim_events\": 7, \"sim_events_per_sec\": 7, "
            "\"frames_late\": 3, \"hit_ratio\": 0.333333333333, "
            "\"latency_ns\": {\"mean\": 2000000, \"p50\": 1000000, \"p90\": 3000000, "
            "\"p99\": 4500000, \"min\": 500000, \"max\": 9000000}}\n]}\n");
}

TEST(Sweep, RejectsMalformedSeed) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  auto seed_of = [](std::string value) {
    std::string prog = "bench", flag = "--seed";
    char* argv[] = {prog.data(), flag.data(), value.data()};
    return parse_sweep_flags(3, argv).pool.root_seed;
  };
  for (const char* bad : {"abc", "12x", "-1", ""}) {
    EXPECT_THROW(seed_of(bad), check::CheckError) << "'" << bad << "'";
  }
  // A trailing flag with no value is an error, not the default seed.
  std::string prog = "bench", flag = "--seed";
  char* valueless[] = {prog.data(), flag.data()};
  EXPECT_THROW(parse_sweep_flags(2, valueless), check::CheckError);
  EXPECT_EQ(seed_of("0"), 0u);
  EXPECT_EQ(seed_of("18446744073709551615"), 18446744073709551615u);
}

TEST(Sweep, RejectsMalformedJobs) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  auto jobs_of = [](std::string value) {
    std::string prog = "bench", flag = "--jobs";
    char* argv[] = {prog.data(), flag.data(), value.data()};
    return parse_jobs_flag(3, argv, 1);
  };
  for (const char* bad : {"abc", "4x", "-3", ""}) {
    EXPECT_THROW(jobs_of(bad), check::CheckError) << "'" << bad << "'";
  }
  std::string prog = "bench", flag = "--jobs";
  char* valueless[] = {prog.data(), flag.data()};
  EXPECT_THROW(parse_jobs_flag(2, valueless, 1), check::CheckError);
  EXPECT_EQ(jobs_of("0"), ExperimentRunner::hardware_jobs());
  EXPECT_EQ(jobs_of("2"), 2);
}

TEST(Sweep, RejectsNonYesNoFlags) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  auto flags_of = [](std::string name, std::string value) {
    std::string prog = "bench";
    char* argv[] = {prog.data(), name.data(), value.data()};
    return parse_sweep_flags(3, argv);
  };
  for (const char* name : {"--smoke", "--slo", "--report"}) {
    for (const char* bad : {"false", "true", "YES", "1", ""}) {
      EXPECT_THROW(flags_of(name, bad), check::CheckError) << name << " '" << bad << "'";
    }
  }
  // A trailing flag with no value fails instead of falling back: a bare
  // `--smoke` must not run the full sweep, nor a bare `--out-dir` write
  // into the default directory.
  for (const char* name : {"--smoke", "--slo", "--report", "--out-dir"}) {
    std::string prog = "bench", flag = name;
    char* valueless[] = {prog.data(), flag.data()};
    EXPECT_THROW(parse_sweep_flags(2, valueless), check::CheckError) << name;
  }
  EXPECT_TRUE(flags_of("--smoke", "yes").smoke);
  EXPECT_FALSE(flags_of("--smoke", "no").smoke);
  EXPECT_TRUE(flags_of("--slo", "yes").slo);
  EXPECT_TRUE(flags_of("--report", "yes").report);
}

TEST(Sweep, WritesEachArtifactNamedAfterTheSuite) {
  const std::string dir = ::testing::TempDir() + "arnet_sweep_test";
  auto slurp = [&dir](const std::string& file) {
    std::ifstream is(dir + "/" + file);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  // Cell 0 carries the full stack, cell 1 only an SLO tracker, cell 2 none.
  SweepTelemetry telemetry(3);
  slo::SloConfig lc;
  lc.entity = "cell-0";
  telemetry.attach(0, derive_seed(1, 0), lc);
  lc.entity = "cell-1";
  telemetry.attach_slo(1, lc);
  obs::MetricsRegistry metrics;
  metrics.counter("demo.frames", "cell-0").add(3);
  SweepArtifacts a;
  a.suite = "demo";
  a.out_dir = dir;
  a.rows = {sim_row("cell-0", kFakeLatency, 0.0, 1, 1.0, 0)};
  a.metrics = &metrics;
  a.telemetry = &telemetry;
  ASSERT_EQ(write_sweep(a), 0);

  EXPECT_NE(slurp("demo_metrics.jsonl").find("\"name\":\"demo.frames\""), std::string::npos);
  const std::string summary = slurp("BENCH_demo.json");
  EXPECT_EQ(summary.rfind("{\"schema\": \"arnet-bench-v1\", \"suite\": \"demo\"", 0), 0u);
  const std::string slo_log = slurp("demo_slo.jsonl");
  EXPECT_NE(slo_log.find("cell-0"), std::string::npos);
  EXPECT_NE(slo_log.find("cell-1"), std::string::npos);
  const std::string samples = slurp("demo_samples.jsonl");
  EXPECT_NE(samples.find("\"scope\":\"cell-0\""), std::string::npos);
  EXPECT_EQ(samples.find("cell-1"), std::string::npos);
  EXPECT_NE(samples.find("\"kind\":\"end\",\"runs\":1"), std::string::npos);
}

}  // namespace
}  // namespace arnet::runner
