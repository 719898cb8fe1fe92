#pragma once

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
  void attach(net::Link& uplink, double phy_bps);
  /// Register a linkless station that always has a frame to send: it
  /// contends on every tick after the first (the first tick, run by
  /// start(), sees it idle, as it would a source that starts then).
  void attach_saturated(double phy_bps);

  void start() {
    running_ = true;
    tick();
  }
  void stop() { running_ = false; }

  /// Goodput of one station transmitting alone (for calibration).
  double solo_goodput_bps(double phy_bps) const;

 private:
  struct Station {
    net::Link* uplink = nullptr;  ///< null for a saturated station
    double phy_bps = 54e6;
    double last_rate = 0.0;
  };

  void tick();

  sim::Simulator& sim_;
  std::vector<Station> stations_;
  bool running_ = false;
  bool ticked_ = false;  ///< saturated stations contend once this is set
};

}  // namespace arnet::wireless
