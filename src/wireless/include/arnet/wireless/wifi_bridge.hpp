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
/// Flow-level approximation of WifiCell's frame-level model: airtimes come
/// from the same frame_airtime of a 1500-byte reference frame, but service
/// is fluid within a 20 ms tick.
class WifiSharedMedium {
 public:
  explicit WifiSharedMedium(sim::Simulator& sim) : sim_(sim) {}

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
  std::vector<Station> stations_;
  bool running_ = false;
};

}  // namespace arnet::wireless
