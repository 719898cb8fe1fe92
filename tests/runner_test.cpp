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

// Literal values, so moving or rewriting derive_seed cannot shift every
// seeded artifact at once. (0, 2^64 - 1) wraps run_index + 1 to 0, leaving
// the raw root: SplitMix64 maps 0 to 0.
TEST(Runner, DeriveSeedGoldens) {
  EXPECT_EQ(derive_seed(1, 0), 0x910a2dec89025cc1ull);
  EXPECT_EQ(derive_seed(1, 1), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(derive_seed(90210, 7), 0x6c9af560c0ba34e1ull);
  EXPECT_EQ(derive_seed(0, ~std::uint64_t{0}), 0u);
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

// `args` after a program name, parsed against `flags` (by default the sweep
// binaries' five).
CommandLine parse(std::vector<std::string> args,
                  std::vector<Flag> flags = {kSmoke, kSlo, kOutDir, kSeed, kJobs}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return CommandLine(static_cast<int>(argv.size()), argv.data(), std::move(flags));
}

// The message of the check that parsing `args` fails, or "" if it passes.
std::string parse_error(std::vector<std::string> args, std::vector<Flag> flags) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  try {
    parse(std::move(args), std::move(flags));
  } catch (const check::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Sweep, RejectsMalformedSeed) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  for (const char* bad : {"abc", "12x", "-1", ""}) {
    EXPECT_THROW(parse({"--seed", bad}).seed(), check::CheckError) << "'" << bad << "'";
  }
  // A trailing flag with no value is an error, not the default seed.
  EXPECT_THROW(parse({"--seed"}), check::CheckError);
  EXPECT_EQ(parse({}).seed(), 1u);
  EXPECT_EQ(parse({"--seed", "0"}).seed(), 0u);
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed(), 18446744073709551615u);
}

TEST(Runner, ParseJobsFlag) {
  EXPECT_EQ(parse({"--jobs", "4"}).jobs(), 4);
  EXPECT_EQ(parse({"--jobs=8"}).jobs(), 8);
  // Absent, the declared fallback applies.
  EXPECT_EQ(parse({}).jobs(), 1);
  EXPECT_EQ(parse({}, {Flag{"--jobs", "3", "worker threads"}}).jobs(), 3);
  // 0 means "use all cores".
  EXPECT_EQ(ExperimentRunner({.jobs = parse({"--jobs", "0"}).jobs()}).jobs(),
            ExperimentRunner::hardware_jobs());
}

TEST(Sweep, RejectsMalformedJobs) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  for (const char* bad : {"abc", "4x", "-3", ""}) {
    EXPECT_THROW(parse({"--jobs", bad}).jobs(), check::CheckError) << "'" << bad << "'";
  }
  EXPECT_THROW(parse({"--jobs"}), check::CheckError);
  EXPECT_EQ(parse({"--jobs", "2"}).jobs(), 2);
}

TEST(Sweep, RejectsNonYesNoFlags) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  for (const char* name : {"--smoke", "--slo"}) {
    for (const char* bad : {"false", "true", "YES", "1", ""}) {
      EXPECT_THROW(parse({name, bad}).yes(name), check::CheckError) << name << " '" << bad << "'";
    }
    EXPECT_FALSE(parse({}).yes(name)) << name;
    EXPECT_TRUE(parse({name, "yes"}).yes(name)) << name;
    EXPECT_FALSE(parse({std::string(name) + "=no"}).yes(name)) << name;
  }
}

// A misspelled, repeated or valueless flag must not quietly run another
// configuration than the one the command line names.
TEST(CommandLine, RejectsUnknownRepeatedAndValuelessFlags) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  for (const char* unknown : {"--out-dri", "--help", "--bogus=1", "-h", "positional"}) {
    EXPECT_THROW(parse({unknown, "x"}), check::CheckError) << unknown;
  }
  // Declared for another binary is still unknown here, and an empty table
  // takes nothing.
  EXPECT_THROW(parse({"--jobs", "2"}, {kOutDir}), check::CheckError);
  EXPECT_THROW(parse({"--out-dir", "x"}, {}), check::CheckError);
  EXPECT_NO_THROW(parse({}, {}));
  // Twice, in either spelling, even when the first value is the valid one.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--out-dir", "a", "--out-dir", "b"},
           {"--out-dir=a", "--out-dir", "b"},
           {"--out-dir", "a", "--out-dir=b"},
           {"--jobs=2", "--jobs=abc"}}) {
    EXPECT_THROW(parse(args), check::CheckError) << args[0] << " " << args[1];
  }
  // A last flag of each kind with no value fails instead of falling back: a
  // bare `--smoke` must not run the full sweep, nor a bare `--out-dir` write
  // into the default directory.
  for (const char* name : {"--out-dir", "--jobs", "--seed", "--smoke", "--slo"}) {
    EXPECT_THROW(parse({"--jobs", "2", name}), check::CheckError) << name;
  }
  EXPECT_THROW(parse({}, {kOutDir}).str("--trace"), check::CheckError) << "read undeclared";
  // `=` splits once; the rest is the value.
  EXPECT_EQ(parse({"--out-dir=a=b"}).str("--out-dir"), "a=b");
  EXPECT_EQ(parse({}).str("--out-dir"), "bench-out");
}

TEST(CommandLine, FailureNamesTheFlagAndListsTheDeclaredOnes) {
  const std::string unknown = parse_error({"--no-such-flag"}, {kOutDir, kJobs});
  EXPECT_NE(unknown.find("unknown flag '--no-such-flag'"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("--out-dir (default \"bench-out\")"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("--jobs (default \"1\")"), std::string::npos) << unknown;
  EXPECT_EQ(unknown.find("--seed"), std::string::npos) << unknown;
  const std::string twice = parse_error({"--jobs", "1", "--jobs=2"}, {kJobs});
  EXPECT_NE(twice.find("--jobs is given twice"), std::string::npos) << twice;
  const std::string valueless = parse_error({"--out-dir"}, {kOutDir});
  EXPECT_NE(valueless.find("--out-dir needs a value"), std::string::npos) << valueless;
  const std::string none = parse_error({"--help"}, {});
  EXPECT_NE(none.find("unknown flag '--help'; bench takes no flags"), std::string::npos) << none;
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
