#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::runner {

/// One entry of an `arnet-bench-v1` document:
///
///   {"schema": "arnet-bench-v1", "suite": "<suite>", "benchmarks": [
///     {"name": ..., "iterations": N, "wall_time_s": ..., "ops_per_sec": ...,
///      "sim_events": N, "sim_events_per_sec": ..., <extra fields>,
///      "latency_ns": {"mean", "p50", "p90", "p99", "min", "max"}}, ...]}
///
/// tools/check_schema.py validates it; tools/compare_bench.py gates it.
struct BenchRow {
  struct Latency {
    double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, min = 0.0, max = 0.0;
  };

  std::string name;
  std::int64_t iterations = 0;
  double wall_time_s = 0.0;
  double ops_per_sec = 0.0;
  std::int64_t sim_events = 0;
  /// Suite-specific numeric fields, written after the rates in this order.
  std::vector<std::pair<std::string, double>> extra;
  Latency latency_ns;
};

/// Write `rows` as one `arnet-bench-v1` document (12 significant digits, so
/// equal rows give equal bytes).
void write_bench_json(std::ostream& os, const std::string& suite,
                      const std::vector<BenchRow>& rows);

/// The row for one simulated sweep cell. A sweep summary reports properties
/// of the model, not of the host: `sim_seconds` stands in for wall_time_s
/// (1 s for a cell that simulated none) and the cell's latency summary for
/// the latencies, which keeps serial and `--jobs N` summaries byte-identical
/// and diffable across runs.
inline BenchRow sim_row(std::string name, const sim::LatencySummary& l, double sim_seconds,
                        std::int64_t iterations, double ops_per_sec, std::int64_t sim_events) {
  BenchRow row;
  row.name = std::move(name);
  row.iterations = iterations;
  row.wall_time_s = sim_seconds > 0 ? sim_seconds : 1.0;
  row.ops_per_sec = ops_per_sec;
  row.sim_events = sim_events;
  row.latency_ns = {l.mean_ms * 1e6, l.p50_ms * 1e6, l.p90_ms * 1e6,
                    l.p99_ms * 1e6,  l.min_ms * 1e6, l.max_ms * 1e6};
  return row;
}

/// Per-cell observers of a sweep. Tracer and TailSampler are non-copyable
/// (one world, one observer set), so each cell's set is built inside its
/// worker from the run's seed and exported in cell order after the pool
/// drains: the exports are byte-identical at any `--jobs`. No
/// FlightRecorder: its check-failure hook is process-global.
class SweepTelemetry {
 public:
  explicit SweepTelemetry(std::size_t cells) : cells_(cells) {}

  /// Build the full stack for `cell` and return it as the cell's bundle:
  /// a sink-only tracer (the sampler's span budget is the retention store,
  /// so the per-entity rings are skipped), a TailSampler seeded from
  /// `run_seed`, and an SLO tracker. `slo.entity` also names the cell's
  /// samples run. The caller adds its own `metrics`.
  trace::Telemetry attach(std::size_t cell, std::uint64_t run_seed,
                          const slo::SloConfig& slo);
  /// SLO tracker only, for cells that emit no spans.
  trace::Telemetry attach_slo(std::size_t cell, const slo::SloConfig& slo);

  /// `arnet-slo-v1` log of every attached tracker, cell order.
  void write_slo(std::ostream& os) const;
  /// `arnet-sample-v1` export: one run per cell with a sampler, cell order.
  void write_samples(std::ostream& os) const;

 private:
  struct Cell {
    std::unique_ptr<trace::Tracer> tracer;
    std::unique_ptr<trace::TailSampler> sampler;
    std::unique_ptr<slo::SloTracker> slo;
  };
  std::vector<Cell> cells_;
};

/// Everything one sweep writes under its `--out-dir`, named after `suite`:
///   <suite>_metrics.jsonl  merged arnet-obs-v2 registry     (when `metrics`)
///   BENCH_<suite>.json     arnet-bench-v1 summary of `rows`
///   <suite>_slo.jsonl      arnet-slo-v1 burn/alert log      (when `telemetry`)
///   <suite>_samples.jsonl  arnet-sample-v1 retained traces  (when `telemetry`)
/// tools/arnet_report.py renders these files as one HTML report.
struct SweepArtifacts {
  std::string suite;
  std::string out_dir;
  std::vector<BenchRow> rows = {};
  const obs::MetricsRegistry* metrics = nullptr;
  const SweepTelemetry* telemetry = nullptr;
};

/// Write the artifacts, announcing each path on stdout. Returns 0, or 1
/// after naming on stderr the first file it could not write.
int write_sweep(const SweepArtifacts& a);

}  // namespace arnet::runner
