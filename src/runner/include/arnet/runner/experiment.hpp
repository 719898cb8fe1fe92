#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arnet/obs/registry.hpp"

namespace arnet::runner {

/// SplitMix64 finalizer over (root_seed, run_index): every run of a sweep
/// gets a statistically independent seed, and run k's seed depends only on
/// the root and k — never on how many workers executed the sweep or in what
/// order. This is what makes `--jobs N` output bit-identical to serial runs.
std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t run_index);

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

/// Parse a `--jobs N` / `--jobs=N` flag (shared by the experiment binaries);
/// returns `fallback` when absent. N = 0 means one job per hardware thread.
/// Anything but a full non-negative decimal, or `--jobs` as the last
/// argument, fails an ARNET_CHECK.
int parse_jobs_flag(int argc, char** argv, int fallback = 1);

/// Parse a generic `--name value` / `--name=value` string flag; returns
/// `fallback` when absent. `name` includes the leading dashes ("--trace").
/// `name` as the last argument, with no value after it, fails an ARNET_CHECK.
std::string parse_string_flag(int argc, char** argv, const char* name,
                              std::string fallback = "");

/// The shared `--out-dir` convention: where experiment binaries place their
/// artifacts (metrics JSONL, traces, pcaps). Defaults to "bench-out" so bare
/// runs never litter the CWD; CI uploads the whole directory.
std::string parse_out_dir(int argc, char** argv);

/// Join `dir` and `file`, creating `dir` (and parents) on first use.
std::string out_path(const std::string& dir, const std::string& file);

/// Mirrors everything written to std::cout into a file for this object's
/// lifetime, then restores the original stream. The experiment binaries whose
/// product is the rendered report itself (paper tables/figures) use this so
/// the report lands under --out-dir next to the JSONL/trace artifacts and CI
/// can archive one directory. A failed open is non-fatal: output still goes
/// to the console, report() just returns false.
class ReportTee {
 public:
  explicit ReportTee(const std::string& path);
  ~ReportTee();

  ReportTee(const ReportTee&) = delete;
  ReportTee& operator=(const ReportTee&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arnet::runner
