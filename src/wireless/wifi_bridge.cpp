#include "arnet/wireless/wifi_bridge.hpp"

#include <algorithm>

namespace arnet::wireless {

namespace {
constexpr sim::Time kUpdateInterval = sim::milliseconds(20);
constexpr std::int32_t kReferenceFrameBytes = 1500;
}  // namespace

void WifiSharedMedium::attach(net::Link& uplink, double phy_bps) {
  stations_.push_back({.uplink = &uplink, .phy_bps = phy_bps});
}

void WifiSharedMedium::attach_saturated(double phy_bps) {
  stations_.push_back({.phy_bps = phy_bps});
}

double WifiSharedMedium::solo_goodput_bps(double phy_bps) const {
  const sim::Time airtime = frame_airtime(kReferenceFrameBytes, phy_bps);
  return kReferenceFrameBytes * 8.0 / sim::to_seconds(airtime);
}

void WifiSharedMedium::tick() {
  if (!running_) return;
  // DCF equal opportunities among *backlogged* stations: over one round,
  // each backlogged station sends one reference frame, occupying
  // airtime(phy_i); everyone's goodput is frame_bytes / sum(airtimes).
  // A saturated station contends from the second tick on.
  sim::Time round = 0;
  for (const Station& s : stations_) {
    const bool backlogged =
        s.uplink ? s.uplink->is_up() && !s.uplink->queue().empty() : ticked_;
    if (backlogged) round += frame_airtime(kReferenceFrameBytes, s.phy_bps);
  }
  for (Station& s : stations_) {
    if (!s.uplink) continue;  // a saturated station has no link to pace
    double rate;
    if (round == 0 || s.uplink->queue().empty()) {
      // Idle medium: a newly active station starts at its solo rate.
      rate = solo_goodput_bps(s.phy_bps);
    } else if (s.uplink->is_up()) {
      rate = kReferenceFrameBytes * 8.0 / sim::to_seconds(round);
    } else {
      rate = s.last_rate;
    }
    rate = std::max(rate, 16e3);
    s.last_rate = rate;
    s.uplink->set_rate(rate);
  }
  ticked_ = true;
  sim_.after(kUpdateInterval, [this] { tick(); });
}

}  // namespace arnet::wireless
