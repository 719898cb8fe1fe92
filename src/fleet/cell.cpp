#include "arnet/fleet/cell.hpp"

namespace arnet::fleet {

edge::GeoPoint site_pos(const EdgeCell& cell, std::size_t server_index) {
  if (!cell.sites.empty()) return cell.sites[server_index % cell.sites.size()].pos;
  const double a = cell.population.area_km;
  const std::size_t slot = server_index % 4;
  return {a * (0.25 + 0.5 * static_cast<double>(slot % 2)),
          a * (0.25 + 0.5 * static_cast<double>(slot / 2))};
}

FrameCost frame_cost(const EdgeCell& cell, mar::DeviceClass device, const AppProfile& app) {
  return {mar::scaled_cost(mar::device_profile(device), app.device_cost),
          sim::transmission_delay(app.request_bytes, cell.access_rate_bps),
          sim::transmission_delay(app.result_bytes, cell.access_rate_bps)};
}

}  // namespace arnet::fleet
