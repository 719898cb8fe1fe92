#pragma once

#include <string>
#include <vector>

#include "arnet/net/link.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/wireless/wifi.hpp"

namespace arnet::wireless {

/// Couples a group of station->AP Links inside a routed Network to one DCF
/// medium: every tick, backlogged stations share the cell per 802.11's
/// equal transmission opportunities, so each backlogged link's service rate
/// becomes goodput_share(own PHY, set of contenders). This imports the
/// performance anomaly (Fig. 2) into full offloading scenarios without
/// replacing the Link/Network machinery.
///
/// Flow-level approximation of WifiCell's frame-level model: per-frame
/// airtimes are computed with the same WifiMacParams, but service is fluid
/// within a tick.
class WifiSharedMedium {
 public:
  struct Config {
    WifiMacParams mac;
    sim::Time update_interval = sim::milliseconds(20);
    std::int32_t reference_frame_bytes = 1500;
  };

  explicit WifiSharedMedium(sim::Simulator& sim) : WifiSharedMedium(sim, Config{}) {}
  WifiSharedMedium(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {}

  /// Register a station's uplink (station->AP Link) with its PHY rate.
  void attach(net::Link& uplink, double phy_bps, std::string name = "sta");

  void start() {
    running_ = true;
    tick();
  }
  void stop() { running_ = false; }

  /// Goodput of one station transmitting alone (for calibration).
  double solo_goodput_bps(double phy_bps) const;

 private:
  struct Station {
    net::Link* uplink = nullptr;
    double phy_bps = 54e6;
    double last_rate = 0.0;
    std::string name;
  };

  void tick();

  sim::Simulator& sim_;
  Config cfg_;
  std::vector<Station> stations_;
  bool running_ = false;
};

}  // namespace arnet::wireless
