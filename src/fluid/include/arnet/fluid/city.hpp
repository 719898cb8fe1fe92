#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arnet/fluid/fluid.hpp"
#include "arnet/slo/slo.hpp"

namespace arnet::fluid {

/// A neighborhood class of the city grid: how many sessions it carries at
/// diurnal multiplier 1.0, its 24-slot day shape, its arrival process, and
/// how its serving capacity is provisioned. Archetypes are deliberately
/// provisioned so their peaks straddle the capacity knee — that is the
/// city-scale story (which neighborhoods breach the motion-to-photon budget,
/// when, and what admission does about it).
struct CityArchetype {
  std::string name;
  double base_users = 250.0;  ///< steady-state concurrent sessions at 1.0x
  std::vector<double> curve;  ///< 24-slot diurnal shape over the day
  fleet::ArrivalProcess process = fleet::ArrivalProcess::kPoisson;
  double burst_multiplier = 2.0;  ///< MMPP burst intensity (kMmpp only)
  double burst_dwell_s = 1200.0;
  double calm_dwell_s = 5400.0;
  bool admit = false;        ///< admission control on (else open loop)
  std::size_t servers = 2;
};

/// The city's five neighborhood classes (core / commercial / residential /
/// nightlife / transit) with curves shaped so rush hours, evenings, and
/// transit bursts breach their respective knees.
const std::vector<CityArchetype>& city_archetypes();

/// The sharded city: grid_x * grid_y cells, each an independent FluidCell
/// whose population stream is derive_seed(seed, cell_index) — one cell per
/// ExperimentRunner run, merged in cell order, byte-identical at any --jobs.
struct CityConfig {
  int grid_x = 20;
  int grid_y = 20;
  std::uint64_t seed = 1;
  sim::Time day = sim::seconds(86400);
  sim::Time tick = sim::seconds(1);
  double mean_lifetime_s = 600.0;  ///< city sessions run ~10 min

  std::size_t cells() const {
    return static_cast<std::size_t>(grid_x) * static_cast<std::size_t>(grid_y);
  }
};

/// Deterministic city_archetypes() index for grid position (cx, cy):
/// downtown core inside the central radius, a commercial ring around it, and
/// a hashed residential/nightlife/transit mix outside.
std::size_t archetype_index(const CityConfig& city, int cx, int cy);

/// Resolve cell `index` of the grid to its FluidConfig (entity
/// "cell:<cx>,<cy>/<archetype>"); `seed` must be the per-cell
/// derive_seed(city.seed, index) stream root. Same-archetype neighbors get
/// staggered diurnal phases (+/- 1 h), exercising per-subpopulation profiles.
FluidConfig make_city_cell(const CityConfig& city, std::size_t index,
                           std::uint64_t seed);

/// SLO objective for one city cell: the mar::kFrameDeadline objective with
/// burn windows scaled to the diurnal horizon (fast = day/48, slow = day/4).
slo::SloConfig city_slo_config(const CityConfig& city, const std::string& entity);

struct CityCellOutcome {
  std::size_t index = 0;
  int cx = 0, cy = 0;
  std::string archetype;
  FluidResult r;
};

/// Run one city cell with optional telemetry; publishes per-cell "city.*"
/// gauges (and the SLO gauges) under the cell entity when `metrics` is given.
/// Pure function of (city, index, seed).
CityCellOutcome run_city_cell(const CityConfig& city, std::size_t index,
                              std::uint64_t seed,
                              obs::MetricsRegistry* metrics = nullptr,
                              slo::SloTracker* slo = nullptr);

}  // namespace arnet::fluid
