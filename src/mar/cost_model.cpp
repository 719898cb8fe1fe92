#include "arnet/mar/cost_model.hpp"

#include <algorithm>

namespace arnet::mar {

sim::Time offload_latency(const FrameStages& stages, const LinkParams& link) {
  auto transfer = [&link](std::int64_t bytes) {
    return link.bandwidth_bps > 0 ? sim::transmission_delay(bytes, link.bandwidth_bps)
                                  : sim::kNever / 4;
  };
  return stages.device + transfer(stages.upload_bytes) + 2 * link.latency + stages.surrogate +
         transfer(stages.result_bytes);
}

sim::Time p_local(const DeviceProfile& device, const AppParams& app) {
  return scaled_cost(device, app.work_per_frame);
}

sim::Time p_offloading(const DeviceProfile& device, const DeviceProfile& surrogate,
                       const AppParams& app, const LinkParams& link, double split_y) {
  split_y = std::clamp(split_y, 0.0, 1.0);
  FrameStages stages;
  stages.device = static_cast<sim::Time>(
      split_y * static_cast<double>(scaled_cost(device, app.work_per_frame)));
  // Uplink payload shrinks with the locally executed share: running feature
  // extraction on-device (CloudRidAR) uploads features, not pixels.
  stages.upload_bytes = static_cast<std::int64_t>(
      static_cast<double>(app.upload_bytes_per_frame) * (1.0 - 0.85 * split_y));
  stages.surrogate = static_cast<sim::Time>(
      (1.0 - split_y) * static_cast<double>(scaled_cost(surrogate, app.work_per_frame)));
  stages.result_bytes = app.result_bytes;
  return offload_latency(stages, link);
}

}  // namespace arnet::mar
