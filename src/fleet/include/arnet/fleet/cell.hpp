#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arnet/edge/placement.hpp"
#include "arnet/fleet/admission.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/fleet/server.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::fleet {

/// What one edge cell is: its population, its server deployment and the
/// access path between them. Both models of a cell read this one
/// description — fleet::Fleet moves its frames as events, fluid::FluidCell
/// integrates them as flow — and FleetConfig and fluid::FluidConfig derive
/// from it, so a paired run compares two models, not two configurations.
struct EdgeCell {
  std::uint64_t seed = 1;
  PopulationConfig population;
  /// Servers are anchored to `sites` (cycled when more servers than sites;
  /// see site_pos), and user<->server network delay follows the
  /// edge::placement latency model.
  std::vector<edge::CandidateSite> sites;
  edge::LatencyModel latency;
  std::size_t servers = 2;
  mar::DeviceClass server_profile = mar::DeviceClass::kDesktop;
  BatchConfig batch;
  /// Open loop by default (CellConfig::admit = false); set
  /// `admission.enabled` to gate arriving sessions through the controller.
  AdmissionConfig admission{.enabled = false};
  /// Access-network throughput for per-frame payload serialization (uplink
  /// request and downlink result both ride it).
  double access_rate_bps = 25e6;
  /// Downgraded sessions run at fps * this factor.
  double downgrade_fps_factor = 0.5;
};

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

/// Anchor of server `server_index`: `cell.sites` cycled, or when empty a
/// 2x2 grid inside the population area, cycled.
edge::GeoPoint site_pos(const EdgeCell& cell, std::size_t server_index);

/// The fixed per-frame costs of a session outside the network RTT and the
/// server: the device stage (reference cost scaled by the Table I device)
/// and the access-link serialization of the request and of the result.
struct FrameCost {
  sim::Time device_stage = 0;
  sim::Time request_tx = 0;
  sim::Time result_tx = 0;
};

FrameCost frame_cost(const EdgeCell& cell, mar::DeviceClass device, const AppProfile& app);

}  // namespace arnet::fleet
