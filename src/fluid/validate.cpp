#include "arnet/fluid/validate.hpp"

#include <cmath>

#include "arnet/check/assert.hpp"

namespace arnet::fluid {

FluidConfig fluid_cell_config(const fleet::CellConfig& cell, std::uint64_t seed) {
  ARNET_CHECK(!cell.autoscale, "fluid cells have no autoscaler counterpart");
  FluidConfig cfg;
  static_cast<fleet::EdgeCell&>(cfg) = fleet::edge_cell(cell, seed);
  cfg.duration = cell.duration;
  cfg.tick = sim::milliseconds(10);
  cfg.entity = cell.name + "/fluid";
  return cfg;
}

ValidationRow run_validation_level(double users, sim::Time duration,
                                   std::uint64_t seed) {
  fleet::CellConfig cell;
  cell.name = "validate/u" + std::to_string(static_cast<int>(users));
  cell.offered_users = users;
  cell.admit = false;  // open loop: compare the serving paths, not control loops
  cell.duration = duration;

  ValidationRow row;
  row.users = users;
  row.packet = fleet::run_capacity_cell(cell, seed);
  FluidCell fluid(fluid_cell_config(cell, seed));
  row.fluid = fluid.run();
  const auto rel = [](double model, double reference) {
    return reference > 0.0 ? 100.0 * std::abs(model - reference) / reference : 0.0;
  };
  row.p99_delta_pct = rel(row.fluid.p99_ms, row.packet.p99_ms);
  row.goodput_delta_pct = rel(row.fluid.served_fps, row.packet.served_fps);
  return row;
}

}  // namespace arnet::fluid
