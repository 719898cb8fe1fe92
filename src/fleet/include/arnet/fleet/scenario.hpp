#pragma once

#include <cstdint>
#include <string>

#include "arnet/fleet/fleet.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/telemetry.hpp"

namespace arnet::fleet {

/// One cell of the capacity sweep: an offered load level against one
/// serving configuration. Shared by bench/scale_fleet and tests/fleet_test
/// so the --jobs fingerprint test exercises exactly what the bench runs.
struct CellConfig {
  std::string name;
  /// Target steady-state concurrent sessions; Little's law sets the arrival
  /// rate as offered_users / mean_lifetime_s.
  double offered_users = 50.0;
  BalancerPolicy policy = BalancerPolicy::kLeastOutstanding;
  bool batched = true;
  bool autoscale = false;
  /// Admission control. Off for the open-loop capacity curves (the knee must
  /// measure the serving path, not the control loop); on for the cells that
  /// demonstrate overload protection.
  bool admit = false;
  std::size_t servers = 2;
  /// 30 s horizon with 10 s mean lifetimes reaches ~95% of the steady-state
  /// concurrency (M/M/inf ramp: 1 - e^{-t/lifetime}) and gives admission
  /// control several session generations to settle on its equilibrium.
  sim::Time duration = sim::seconds(30);
  double mean_lifetime_s = 10.0;
  ArrivalProcess process = ArrivalProcess::kPoisson;
};

struct CellResult : CellOutcome {
  std::int64_t frames = 0;   ///< captured by admitted sessions
  std::int64_t results = 0;  ///< completed round trips
  std::size_t servers_final = 0;
  std::int64_t sim_events = 0;
};

/// The edge cell a capacity cell describes: population, servers, batching
/// and admission. Both models of the cell start from it — the packet fleet
/// through cell_fleet_config, the fluid cell through
/// fluid::fluid_cell_config.
EdgeCell edge_cell(const CellConfig& cell, std::uint64_t seed);

/// The FleetConfig a cell resolves to (exposed so tests can perturb it).
FleetConfig cell_fleet_config(const CellConfig& cell, std::uint64_t seed);

/// The cell's observer bundle under its historical name.
using CellTelemetry = trace::Telemetry;

/// Build a fresh world, run the cell, and summarize. The fleet consumes
/// `telemetry` (see FleetConfig::telemetry); with a registry, it also gets
/// the cell's SLO tracker totals and a per-cell summary as "cell.*" gauges —
/// everything a capacity-curve plot needs straight from the obs JSONL. All
/// outputs are pure functions of (cell, seed); observers never change them.
CellResult run_capacity_cell(const CellConfig& cell, std::uint64_t seed,
                             const trace::Telemetry& telemetry = {});

}  // namespace arnet::fleet
