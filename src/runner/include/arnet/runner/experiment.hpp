#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arnet/obs/registry.hpp"
#include "arnet/sim/rng.hpp"

namespace arnet::runner {

/// Run k of a sweep is seeded derive_seed(root, k); the rule lives beside
/// sim::Rng so model libraries split their streams without this module.
using sim::derive_seed;

/// Per-run environment handed to each Run closure. The closure builds its
/// own Simulator/Network world from `seed`, publishes results into
/// `metrics`, and must not touch anything shared — one simulator per thread,
/// no shared mutable simulation state (see DESIGN.md §8).
struct RunContext {
  std::uint64_t run_index = 0;
  std::uint64_t seed = 0;
  obs::MetricsRegistry metrics;
};

/// Thread-pool fan-out for embarrassingly parallel experiment grids (the
/// paper's Fig. 2-5 sweeps, §VI ablations, placement search). Each run owns
/// its full simulation world, so runs never share mutable state; the only
/// cross-thread traffic is handing out run indices and collecting per-run
/// results, which are merged deterministically in run-index order after the
/// join.
class ExperimentRunner {
 public:
  struct Config {
    /// Worker threads; 0 = one per hardware thread, 1 = run inline on the
    /// calling thread (no pool).
    int jobs = 0;
    /// Root of the per-run seed derivation chain.
    std::uint64_t root_seed = 1;
  };

  explicit ExperimentRunner(Config cfg);
  ExperimentRunner() : ExperimentRunner(Config{}) {}

  using RunFn = std::function<void(RunContext&)>;

  /// Execute `runs` independent closures across the pool and merge every
  /// per-run registry into one (counters add, histograms merge bucket-wise,
  /// series append), always in run-index order.
  obs::MetricsRegistry run_merged(std::size_t runs, const RunFn& fn);

  /// Generic fan-out: collect one `R` per run, in run-index order regardless
  /// of worker scheduling. `R` must be default-constructible.
  template <typename R>
  std::vector<R> map(std::size_t runs, const std::function<R(RunContext&)>& fn) {
    std::vector<R> out(runs);
    for_each(runs, [&](RunContext& ctx) { out[ctx.run_index] = fn(ctx); });
    return out;
  }

  /// Lowest-level primitive: run `fn` once per index with a fresh
  /// RunContext. The first exception thrown by any run is rethrown on the
  /// calling thread after all workers join.
  void for_each(std::size_t runs, const RunFn& fn);

  /// Resolved worker count (>= 1).
  int jobs() const { return jobs_; }
  std::uint64_t root_seed() const { return root_seed_; }

  static int hardware_jobs();

 private:
  int jobs_;
  std::uint64_t root_seed_;
};

/// Parse a generic `--name value` / `--name=value` string flag; returns
/// `fallback` when absent. `name` includes the leading dashes ("--trace").
/// `name` as the last argument, with no value after it, fails an ARNET_CHECK.
/// The repo's own binaries read their flags through CommandLine; arbench's
/// driver is the one caller outside this library.
std::string parse_string_flag(int argc, char** argv, const char* name,
                              std::string fallback = "");

/// One declared flag: `--name value` or `--name=value`, `fallback` when
/// absent, and a one-line `help` for the usage message.
struct Flag {
  const char *name, *fallback, *help;
};

/// The flags several binaries share, declared once. Artifacts default to
/// bench-out/ so that bare runs never litter the working directory.
inline constexpr Flag kOutDir{"--out-dir", "bench-out", "directory for every artifact"};
inline constexpr Flag kJobs{"--jobs", "1", "worker threads, a non-negative decimal; 0 = all cores"};
inline constexpr Flag kSeed{"--seed", "1", "root of the per-run seed chain, a decimal uint64"};
inline constexpr Flag kSmoke{"--smoke", "no", "yes|no: the small CI grid instead of the full one"};
inline constexpr Flag kSlo{"--slo", "no", "yes|no: attach tracers, tail samplers and SLO trackers"};
inline constexpr Flag kTrace{"--trace", "", "write a Perfetto JSON trace of the traced run here"};
inline constexpr Flag kPcap{"--pcap", "", "write a pcap-ng capture of the traced run here"};

/// A binary's command line, checked against the flags it declares. The
/// constructor fails one ARNET_CHECK, whose message lists the declared flags
/// with their defaults, on an unknown flag (`--help` included), a flag given
/// twice in either spelling, or a last flag with no value. Every bench and
/// example builds one first, before it prints anything.
class CommandLine {
 public:
  CommandLine(int argc, char** argv, std::vector<Flag> flags);

  /// The value of declared flag `name`, or its fallback.
  std::string str(std::string_view name) const;
  /// A `yes|no` flag; any other value fails an ARNET_CHECK.
  bool yes(std::string_view name) const;
  /// `--jobs`: a non-negative decimal, for ExperimentRunner::Config::jobs
  /// (where 0 means one job per hardware thread).
  int jobs() const;
  /// `--seed`: a decimal uint64.
  std::uint64_t seed() const;

 private:
  std::vector<Flag> flags_;
  std::vector<std::optional<std::string>> values_;  ///< as given, by flag
};

/// Join `dir` and `file`, creating `dir` (and parents) on first use.
std::string out_path(const std::string& dir, const std::string& file);

/// Mirrors everything written to std::cout into out_path(dir, file) for this
/// object's lifetime, then restores the original stream. The experiment
/// binaries whose product is the rendered report itself (paper
/// tables/figures) use this so the report lands under --out-dir next to the
/// JSONL/trace artifacts and CI can archive one directory. A failed open is
/// non-fatal: output still goes to the console.
class ReportTee {
 public:
  ReportTee(const std::string& dir, const std::string& file);
  ~ReportTee();

  ReportTee(const ReportTee&) = delete;
  ReportTee& operator=(const ReportTee&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arnet::runner
