// Tests for WifiSharedMedium: DCF contention imported into routed
// Network scenarios, including the anomaly hitting a live MAR session.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/udp.hpp"
#include "arnet/wireless/wifi_bridge.hpp"
#include "golden.hpp"

namespace arnet::wireless {
namespace {

using sim::milliseconds;
using sim::seconds;

struct Cell {
  sim::Simulator sim;
  net::Network net{sim, 21};
  net::NodeId ap, server;
  WifiSharedMedium medium{sim};
  std::vector<net::NodeId> stations;
  std::vector<net::Link*> uplinks;

  Cell() {
    ap = net.add_node("ap");
    server = net.add_node("server");
    net.connect(ap, server, 1e9, milliseconds(2), 1000);
  }

  net::NodeId add_station(double phy_bps) {
    auto sta = net.add_node("sta" + std::to_string(stations.size()));
    auto [up, down] = net.connect(sta, ap, 30e6, milliseconds(1), 300);
    (void)down;
    medium.attach(*up, phy_bps);
    stations.push_back(sta);
    uplinks.push_back(up);
    return sta;
  }
};

/// Keeps a station's uplink backlogged: 1472-byte datagrams at 60 Mb/s,
/// above any rate the medium grants, to `server` port 90.
class SaturatingSender {
 public:
  SaturatingSender(Cell& c, net::NodeId sta, net::Port port, net::FlowId flow = 0)
      : cell_(c), endpoint_(c.net, sta, port), flow_(flow) {
    tick();
  }

 private:
  void tick() {
    endpoint_.send(cell_.server, 90, 1472, flow_);
    cell_.sim.after(sim::transmission_delay(1500, 60e6), [this] { tick(); });
  }

  Cell& cell_;
  transport::UdpEndpoint endpoint_;
  net::FlowId flow_;
};

TEST(WifiSharedMedium, SoloStationGetsSoloGoodput) {
  Cell c;
  auto sta = c.add_station(54e6);
  c.net.compute_routes();
  c.medium.start();
  transport::UdpEndpoint sink(c.net, c.server, 90);
  std::int64_t bytes = 0;
  sink.set_handler([&](net::Packet&& p) { bytes += p.size_bytes; });
  SaturatingSender src(c, sta, 91);
  c.sim.run_until(seconds(5));
  double mbps = bytes * 8.0 / 5 / 1e6;
  double solo = c.medium.solo_goodput_bps(54e6) / 1e6;
  EXPECT_NEAR(mbps, solo, 0.25 * solo);
}

TEST(WifiSharedMedium, AnomalyEqualizesThroughRoutedNetwork) {
  Cell c;
  auto fast = c.add_station(54e6);
  auto slow = c.add_station(6e6);
  c.net.compute_routes();
  c.medium.start();
  transport::UdpEndpoint sink(c.net, c.server, 90);
  std::int64_t fast_bytes = 0, slow_bytes = 0;
  sink.set_handler([&](net::Packet&& p) {
    (p.flow == 1 ? fast_bytes : slow_bytes) += p.size_bytes;
  });
  SaturatingSender f(c, fast, 91, 1);
  SaturatingSender s(c, slow, 92, 2);
  c.sim.run_until(seconds(5));
  double fast_mbps = fast_bytes * 8.0 / 5 / 1e6;
  double slow_mbps = slow_bytes * 8.0 / 5 / 1e6;
  // Equal opportunities: both land near the slow station's level.
  EXPECT_NEAR(fast_mbps / slow_mbps, 1.0, 0.3);
  EXPECT_LT(fast_mbps, 0.5 * c.medium.solo_goodput_bps(54e6) / 1e6);
}

TEST(WifiSharedMedium, IdleNeighborDoesNotThrottle) {
  Cell c;
  auto active = c.add_station(54e6);
  c.add_station(6e6);  // associated but silent
  c.net.compute_routes();
  c.medium.start();
  transport::UdpEndpoint sink(c.net, c.server, 90);
  std::int64_t bytes = 0;
  sink.set_handler([&](net::Packet&& p) { bytes += p.size_bytes; });
  SaturatingSender src(c, active, 91);
  c.sim.run_until(seconds(5));
  double mbps = bytes * 8.0 / 5 / 1e6;
  EXPECT_GT(mbps, 0.6 * c.medium.solo_goodput_bps(54e6) / 1e6);
}

// The rate the medium sets on a 54 Mb/s link, already backlogged when the
// medium starts at 5 ms, read 1 ms after each of its first four ticks next
// to one saturated 54 Mb/s station: the solo rate on tick 0, when the
// saturated station does not contend yet, then half the solo rate.
TEST(WifiSharedMedium, SaturatedStationContendsFromSecondTick) {
  Cell c;
  auto sta = c.add_station(54e6);
  c.medium.attach_saturated(54e6);
  c.net.compute_routes();
  transport::UdpEndpoint sink(c.net, c.server, 90);
  SaturatingSender src(c, sta, 91);
  c.sim.run_until(milliseconds(5));
  ASSERT_FALSE(c.uplinks[0]->queue().empty());
  c.medium.start();
  golden::Row rates;
  for (int tick = 0; tick < 4; ++tick) {
    c.sim.at(milliseconds(20 * tick + 6), [&] { rates.d(c.uplinks[0]->rate_bps()); });
  }
  c.sim.run_until(milliseconds(85));
  EXPECT_EQ(rates.str(),
            "0x1.c4f0e43f08d11p+24 0x1.c4f0e43f08d11p+23 0x1.c4f0e43f08d11p+23 "
            "0x1.c4f0e43f08d11p+23");
}

// A saturated station stands in exactly for a station whose own link a
// faster-than-any-share source, started with the medium, keeps backlogged:
// a link backlogged from before the medium starts sees the same rate on
// each of 100 ticks next to either one.
TEST(WifiSharedMedium, SaturatedStationMatchesABackloggedLink) {
  auto rates = [](bool linked_contender) {
    Cell c;
    auto sta = c.add_station(54e6);
    net::NodeId contender = 0;
    if (linked_contender) {
      contender = c.add_station(54e6);
    } else {
      c.medium.attach_saturated(54e6);
    }
    c.net.compute_routes();
    transport::UdpEndpoint sink(c.net, c.server, 90);
    SaturatingSender src(c, sta, 91);
    c.sim.run_until(milliseconds(5));
    c.medium.start();
    std::unique_ptr<SaturatingSender> load;
    if (linked_contender) load = std::make_unique<SaturatingSender>(c, contender, 92);
    std::vector<double> seen;
    for (int tick = 0; tick < 100; ++tick) {
      c.sim.at(milliseconds(20 * tick + 6), [&] { seen.push_back(c.uplinks[0]->rate_bps()); });
    }
    c.sim.run_until(seconds(2) + milliseconds(5));
    return seen;
  };
  const std::vector<double> saturated = rates(false);
  ASSERT_EQ(saturated.size(), 100u);
  EXPECT_EQ(saturated, rates(true));
}

TEST(WifiSharedMedium, MarSessionDegradesWhenSlowNeighborSaturates) {
  // The Fig. 2 consequence, live: an offloading session shares the cell
  // with a slow saturating neighbor.
  auto run = [](bool neighbor_active) {
    Cell c;
    auto user = c.add_station(54e6);
    if (neighbor_active) c.medium.attach_saturated(6e6);
    c.net.compute_routes();
    c.medium.start();
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kFullOffload;
    cfg.device = mar::DeviceClass::kSmartphone;
    mar::OffloadSession session(c.net, user, c.server, cfg);
    session.start();
    c.sim.run_until(seconds(15));
    session.stop();
    return session.stats().miss_rate();
  };
  double clean = run(false);
  double contended = run(true);
  EXPECT_LT(clean, 0.05);
  // The user's share falls to ~4.6 Mb/s, right at the feed's rate: misses
  // jump an order of magnitude even though ARTP shedding contains the worst.
  EXPECT_GT(contended, 0.10);
  EXPECT_GT(contended, clean + 0.08);
}

}  // namespace
}  // namespace arnet::wireless
