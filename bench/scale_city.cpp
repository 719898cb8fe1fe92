// City-scale hybrid packet/fluid experiment: a 20x20 grid of neighborhood
// cells (downtown core, commercial ring, residential fabric, nightlife
// pockets, transit hubs), each a mean-field arnet::fluid cell advancing its
// session population as flow aggregates over a full simulated diurnal day —
// >= 100k concurrent sessions at the evening peak, in minutes of wall time.
// This is the paper's city-scale provisioning question (§IV scale concerns,
// §VI-F): which neighborhoods breach the 75 ms motion-to-photon budget, when,
// and what admission control does about it.
//
// The fluid model is cross-validated against the packet-level fleet model in
// the same binary: four paired 25-200 user cells run both models and report
// p99/goodput deltas (the tolerance bands are pinned in tests/fluid_test.cpp).
//
// Each cell is an independent world on an ExperimentRunner pool, seeded
// from the root seed by run index, so output is byte-identical at any
// --jobs. main() declares the flags; runner::write_sweep writes the
// artifacts (runner/sweep.hpp lists them), always with the SLO log and an
// empty samples file, since fluid cells carry SLO trackers but no spans.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/fluid/city.hpp"
#include "arnet/fluid/validate.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"

using namespace arnet;

namespace {

fluid::CityConfig make_city(bool smoke) {
  fluid::CityConfig city;  // defaults: 20x20 grid, 86400 s day, 1 s tick
  if (smoke) {
    // CI-sized: a 4x4 grid over a compressed half-hour "day" with 2-minute
    // sessions — same archetype mix and code paths, seconds of wall time.
    city.grid_x = 4;
    city.grid_y = 4;
    city.day = sim::seconds(1800);
    city.tick = sim::milliseconds(250);
    city.mean_lifetime_s = 120.0;
  }
  return city;
}

struct ArchetypeAgg {
  int cells = 0;
  std::size_t servers = 0;
  double peak = 0.0;           // sum of per-cell peak session mass
  double served_fps = 0.0;
  double frames = 0.0;
  double misses = 0.0;
  std::uint64_t rejected = 0;
  int breached = 0;            // cells whose tick p99 broke budget at least once
  double worst_p99 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // No --slo: every fluid cell carries an SLO tracker.
  const runner::CommandLine flags(argc, argv, {runner::kSmoke, runner::kOutDir, runner::kSeed,
                                               runner::kJobs});
  const bool smoke = flags.yes("--smoke");
  runner::ExperimentRunner pool({.jobs = flags.jobs(), .root_seed = flags.seed()});
  fluid::CityConfig city = make_city(smoke);
  city.seed = pool.root_seed();
  const std::size_t n_cells = city.cells();
  // Packet-vs-fluid validation pairs ride the same pool as extra runs.
  const std::vector<double> levels = {25, 50, 100, 200};
  const sim::Time validate_duration = smoke ? sim::seconds(10) : sim::seconds(30);
  const std::size_t n_runs = n_cells + levels.size();

  std::cout << "=== city-scale fluid simulation: " << city.grid_x << "x"
            << city.grid_y << " grid over a " << sim::to_seconds(city.day) / 3600.0
            << " h day ===\n"
            << n_cells << " cells + " << levels.size() << " validation pairs, "
            << pool.jobs() << " jobs, root seed " << pool.root_seed()
            << (smoke ? " (smoke)" : "") << "\n\n";

  // One world per run; results, registries and SLO trackers are indexed by
  // run, so every merge below is in cell order no matter how workers
  // interleave — byte-identical output at any --jobs.
  std::vector<fluid::CityCellOutcome> outcomes(n_cells);
  runner::SweepTelemetry telemetry(n_cells);
  std::vector<fluid::ValidationRow> validation(levels.size());
  obs::MetricsRegistry merged = pool.run_merged(n_runs, [&](runner::RunContext& ctx) {
    const std::size_t i = ctx.run_index;
    if (i < n_cells) {
      const std::string entity = fluid::make_city_cell(city, i, ctx.seed).entity;
      const trace::Telemetry t = telemetry.attach_slo(i, fluid::city_slo_config(city, entity));
      outcomes[i] = fluid::run_city_cell(city, i, ctx.seed, &ctx.metrics, t.slo);
    } else {
      validation[i - n_cells] =
          fluid::run_validation_level(levels[i - n_cells], validate_duration, ctx.seed);
    }
  });

  // Per-archetype rollup: the city story in five rows.
  std::map<std::string, ArchetypeAgg> by_arch;
  for (const fluid::CityCellOutcome& c : outcomes) {
    ArchetypeAgg& a = by_arch[c.archetype];
    ++a.cells;
    a.peak += c.r.peak_sessions;
    a.served_fps += c.r.served_fps;
    a.frames += static_cast<double>(c.r.frames);
    a.misses += static_cast<double>(c.r.misses);
    a.rejected += c.r.rejected;
    if (c.r.first_breach >= 0) ++a.breached;
    a.worst_p99 = std::max(a.worst_p99, c.r.p99_ms);
  }
  for (const fluid::CityArchetype& arch : fluid::city_archetypes()) {
    auto it = by_arch.find(arch.name);
    if (it != by_arch.end()) it->second.servers = arch.servers;
  }
  core::TablePrinter t({"archetype", "cells", "servers", "peak sessions",
                        "worst p99", "miss %", "breached", "rejected",
                        "served fps"});
  for (const auto& [name, a] : by_arch) {
    const double miss_pct = a.frames > 0 ? 100.0 * a.misses / a.frames : 0.0;
    t.add_row({name, std::to_string(a.cells), std::to_string(a.servers),
               core::fmt(a.peak, 0), core::fmt_ms(a.worst_p99, 1),
               core::fmt(miss_pct, 2),
               std::to_string(a.breached) + "/" + std::to_string(a.cells),
               std::to_string(a.rejected), core::fmt(a.served_fps, 0)});
  }
  t.print(std::cout);

  // Aggregate concurrency curve: per-slot sums of the per-cell time-mean
  // occupancy. The max slot is the city's peak concurrent session count.
  std::vector<double> concurrency(fluid::kOccupancySlots, 0.0);
  for (const fluid::CityCellOutcome& c : outcomes) {
    for (std::size_t s = 0; s < c.r.occupancy.size() && s < concurrency.size(); ++s) {
      concurrency[s] += c.r.occupancy[s];
    }
  }
  double peak_concurrent = 0.0;
  std::size_t peak_slot = 0;
  for (std::size_t s = 0; s < concurrency.size(); ++s) {
    if (concurrency[s] > peak_concurrent) {
      peak_concurrent = concurrency[s];
      peak_slot = s;
    }
  }
  const double slot_s = sim::to_seconds(city.day) / fluid::kOccupancySlots;
  double total_frames = 0.0, total_misses = 0.0;
  int breach_cells = 0;
  for (const fluid::CityCellOutcome& c : outcomes) {
    total_frames += static_cast<double>(c.r.frames);
    total_misses += static_cast<double>(c.r.misses);
    if (c.r.first_breach >= 0) ++breach_cells;
  }
  std::cout << "\npeak concurrent sessions: " << core::fmt(peak_concurrent, 0)
            << " (slot " << peak_slot << ", t=" << core::fmt(peak_slot * slot_s / 3600.0, 1)
            << " h)\nframes served: " << core::fmt(total_frames, 0)
            << "  city miss rate: "
            << core::fmt(total_frames > 0 ? 100.0 * total_misses / total_frames : 0.0, 2)
            << " %  cells ever past budget: " << breach_cells << "/" << n_cells
            << "\n";

  // Fluid-vs-packet validation: the tolerance bands pinned in
  // tests/fluid_test.cpp are the contract; this table is the evidence.
  core::TablePrinter vt({"users", "packet p99", "fluid p99", "dp99 %",
                         "packet fps", "fluid fps", "dfps %"});
  for (const fluid::ValidationRow& v : validation) {
    vt.add_row({core::fmt(v.users, 0), core::fmt_ms(v.packet.p99_ms, 1),
                core::fmt_ms(v.fluid.p99_ms, 1), core::fmt(v.p99_delta_pct, 1),
                core::fmt(v.packet.served_fps, 0), core::fmt(v.fluid.served_fps, 0),
                core::fmt(v.goodput_delta_pct, 1)});
  }
  std::cout << "\nfluid vs packet validation (open loop):\n";
  vt.print(std::cout);

  merged.gauge("city.concurrent_peak", "city").set(peak_concurrent);
  merged.gauge("city.concurrent_peak_slot", "city")
      .set(static_cast<double>(peak_slot));
  merged.gauge("city.cells_total", "city").set(static_cast<double>(n_cells));
  merged.gauge("city.cells_breached", "city").set(breach_cells);

  runner::SweepArtifacts out{.suite = "scale_city", .out_dir = flags.str("--out-dir"),
                             .metrics = &merged, .telemetry = &telemetry};
  for (const fluid::CityCellOutcome& c : outcomes) {
    out.rows.push_back(runner::sim_row(c.r.name, c.r, c.r.sim_seconds, c.r.frames,
                                       c.r.served_fps, c.r.ticks));
  }
  for (const fluid::ValidationRow& v : validation) {
    std::ostringstream base;
    base << "validate/u" << std::setw(3) << std::setfill('0') << static_cast<int>(v.users);
    const fleet::CellResult& p = v.packet;
    out.rows.push_back(
        runner::sim_row(base.str() + "/packet", p, p.sim_seconds, p.results, p.served_fps,
                        p.sim_events));
    out.rows.push_back(runner::sim_row(base.str() + "/fluid", v.fluid, v.fluid.sim_seconds,
                                       v.fluid.frames, v.fluid.served_fps, v.fluid.ticks));
  }
  return runner::write_sweep(out);
}
