#pragma once

#include <cstdint>

#include "arnet/fleet/scenario.hpp"
#include "arnet/fluid/fluid.hpp"

namespace arnet::fluid {

/// The FluidConfig of a packet-level capacity cell: the same
/// fleet::edge_cell that fleet::cell_fleet_config starts from, so a paired
/// run compares the two *models*, not two configurations. Autoscaling has no
/// fluid counterpart and is rejected by ARNET_CHECK.
FluidConfig fluid_cell_config(const fleet::CellConfig& cell, std::uint64_t seed);

/// One fluid-vs-packet comparison point of the 25-200 user validation range.
struct ValidationRow {
  double users = 0.0;
  fleet::CellResult packet;
  FluidResult fluid;
  /// Relative deltas in percent of the packet-model value.
  double p99_delta_pct = 0.0;
  double goodput_delta_pct = 0.0;
};

/// Run the same open-loop cell through both models and compare p99 and
/// goodput (served fps). Pure function of (users, duration, seed).
ValidationRow run_validation_level(double users, sim::Time duration,
                                   std::uint64_t seed);

}  // namespace arnet::fluid
