#include "arnet/fleet/cell.hpp"

namespace arnet::fleet {

namespace {

/// Access-network throughput for per-frame payload serialization (uplink
/// request and downlink result both ride it).
constexpr double kAccessRateBps = 25e6;

}  // namespace

sim::Time site_rtt(const EdgeCell& cell, const edge::GeoPoint& user, std::size_t server_index) {
  const double a = cell.population.area_km;
  const std::size_t slot = server_index % 4;
  const edge::GeoPoint site{a * (0.25 + 0.5 * static_cast<double>(slot % 2)),
                            a * (0.25 + 0.5 * static_cast<double>(slot / 2))};
  return edge::LatencyModel{}.rtt(user, site);
}

FrameCost frame_cost(mar::DeviceClass device) {
  return {mar::scaled_cost(mar::device_profile(device), kApp.device_cost),
          sim::transmission_delay(kApp.request_bytes, kAccessRateBps),
          sim::transmission_delay(kApp.result_bytes, kAccessRateBps)};
}

}  // namespace arnet::fleet
