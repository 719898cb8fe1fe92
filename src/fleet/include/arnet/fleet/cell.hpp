#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "arnet/edge/placement.hpp"
#include "arnet/fleet/admission.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/fleet/server.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::fleet {

/// What one edge cell is: its population and its server deployment, serving
/// kApp. Both models of a cell read this one description — fleet::Fleet
/// moves its frames as events, fluid::FluidCell integrates them as flow — and
/// FleetConfig and fluid::FluidConfig derive from it, so a paired run
/// compares two models, not two configurations.
struct EdgeCell {
  std::uint64_t seed = 1;
  PopulationConfig population;
  /// Anchored on a 2x2 grid inside the population area (see site_rtt).
  std::size_t servers = 2;
  BatchConfig batch;
  /// Open loop by default (CellConfig::admit = false); set
  /// `admission.enabled` to gate arriving sessions through the controller.
  AdmissionConfig admission{.enabled = false};
};

/// Downgraded sessions run at kApp.fps times this factor.
inline constexpr double kDowngradeFpsFactor = 0.5;

/// What one run of an edge cell produced, in either model. fleet::CellResult
/// and fluid::FluidResult derive from it; each adds its own `frames`, which
/// counts captured frames in the packet model and served (rounded) frame
/// mass in the fluid one.
struct CellOutcome : sim::LatencySummary {
  std::string name;
  std::uint64_t arrivals = 0, admitted = 0, downgraded = 0, rejected = 0;
  std::int64_t misses = 0;
  double miss_rate = 0.0;  ///< misses per completed frame
  double served_fps = 0.0;  ///< completed frames per simulated second
  double sim_seconds = 0.0;
};

/// Network RTT between a user at `user` and server `server_index`, which is
/// anchored on a 2x2 grid inside the population area (cycled), under the
/// edge::placement latency model.
sim::Time site_rtt(const EdgeCell& cell, const edge::GeoPoint& user, std::size_t server_index);

/// The fixed per-frame costs of a kApp session outside the network RTT and
/// the server: the device stage (reference cost scaled by the Table I device)
/// and the access-link serialization of the request and of the result.
struct FrameCost {
  sim::Time device_stage = 0;
  sim::Time request_tx = 0;
  sim::Time result_tx = 0;
};

FrameCost frame_cost(mar::DeviceClass device);

}  // namespace arnet::fleet
