// Coverage for smaller utilities and edge cases across modules.
#include <gtest/gtest.h>

#include <sstream>

#include "arnet/core/table.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/link.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/coverage.hpp"
#include "arnet/wireless/d2d.hpp"
#include "arnet/wireless/wifi.hpp"

namespace arnet {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(SimMisc, PendingEventsAndRunFor) {
  sim::Simulator sim;
  sim.at(milliseconds(10), [] {});
  auto h = sim.at(milliseconds(20), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_for(milliseconds(15));
  EXPECT_EQ(sim.now(), milliseconds(15));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimMisc, SamplesValuesAreSorted) {
  sim::Samples s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  const auto& v = s.values();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(SimMisc, RateMeterZeroSpanIsSafe) {
  sim::RateMeter m;
  m.on_bytes(1000);
  m.sample(0);  // same timestamp as start
  EXPECT_DOUBLE_EQ(m.series().points().back().second, 0.0);
  EXPECT_DOUBLE_EQ(m.average_mbps(0), 0.0);
}

TEST(NetMisc, LinkInstrumentationCounts) {
  sim::Simulator sim;
  net::Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.delay = milliseconds(1);
  cfg.name = "probe";
  net::Link link(sim, sim::Rng(1), std::move(cfg));
  obs::MetricsRegistry reg;
  link.attach({.metrics = &reg}, "link:probe");
  int got = 0;
  link.set_sink([&](net::Packet&&) { ++got; });
  for (int i = 0; i < 5; ++i) {
    net::Packet p;
    p.size_bytes = 1500;
    link.send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(link.name(), "probe");
  EXPECT_EQ(link.delivered_packets(), 5);
  EXPECT_EQ(link.delivered_bytes(), 5 * 1500);
  EXPECT_EQ(link.lost_packets(), 0);
  // 4 of 5 packets queued behind the first: mean queueing delay > 0.
  const obs::Histogram* sojourn = reg.find_histogram("queue.sojourn_ms", "link:probe");
  ASSERT_NE(sojourn, nullptr);
  EXPECT_EQ(sojourn->count(), 5);
  EXPECT_GT(sojourn->mean(), 0.5);
}

TEST(NetMisc, LinkBetweenReturnsNullForMissing) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  EXPECT_EQ(net.link_between(a, b), nullptr);
  net.connect(a, b, 1e6, 0);
  EXPECT_NE(net.link_between(a, b), nullptr);
  EXPECT_NE(net.link_between(b, a), nullptr);
}

TEST(CoreMisc, TableHandlesEmptyAndRaggedRows) {
  core::TablePrinter t({"a", "b", "c"});
  t.add_row({"only-one"});  // padded
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);

  core::TablePrinter empty({"x"});
  std::ostringstream os2;
  empty.print(os2);
  EXPECT_NE(os2.str().find("| x |"), std::string::npos);
}

TEST(MarMisc, OffloadStatsMissRateEdgeCases) {
  mar::OffloadStats st;
  EXPECT_DOUBLE_EQ(st.miss_rate(), 0.0);  // no results yet
  st.results = 10;
  st.deadline_misses = 3;
  EXPECT_DOUBLE_EQ(st.miss_rate(), 0.3);
}

TEST(MarMisc, StrategyNames) {
  EXPECT_STREQ(mar::to_string(mar::OffloadStrategy::kLocalOnly), "LocalOnly");
  EXPECT_STREQ(mar::to_string(mar::OffloadStrategy::kAdaptive), "Adaptive");
  EXPECT_STREQ(transport::to_string(transport::TcpFlavor::kCubic), "CUBIC");
}

TEST(WirelessMisc, WifiPhyRateChangeTakesEffect) {
  sim::Simulator sim;
  wireless::WifiCell cell(sim, sim::Rng(1), wireless::WifiCell::Config{});
  auto sta = cell.add_station(54e6);
  sim::Time fast = wireless::frame_airtime(1500, 54e6);
  cell.set_phy_rate(sta, 6e6);
  // Airtime helper is rate-parameterized; the station's queue now drains at
  // the slow rate: verify by a send/measure.
  net::Packet p;
  p.size_bytes = 1500;
  int got = 0;
  cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&&, std::uint32_t) { ++got; });
  cell.send(sta, wireless::WifiCell::kApId, std::move(p));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_GT(sim.now(), fast);  // slower than the 54 Mb/s airtime
}

TEST(WirelessMisc, CoverageCellularProfileIsMostlyUp) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto [up, down] = net.connect(a, b, 10e6, milliseconds(5));
  wireless::CoverageProcess cov(sim, sim::Rng(3), *up, *down,
                                wireless::CoverageProcess::cellular());
  cov.start();
  sim.run_until(seconds(7200));
  EXPECT_GT(cov.usable_fraction(sim.now()), 0.95);
}

TEST(WirelessMisc, CoverageStopFreezesState) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto [up, down] = net.connect(a, b, 10e6, milliseconds(5));
  wireless::CoverageProcess::Config cfg;
  cfg.mean_usable = seconds(1);
  cfg.mean_gap = seconds(1);
  wireless::CoverageProcess cov(sim, sim::Rng(3), *up, *down, cfg);
  cov.start();
  sim.run_until(seconds(10));
  cov.stop();
  bool state = up->is_up();
  sim.run_until(seconds(30));
  EXPECT_EQ(up->is_up(), state);  // no more toggles after stop
}

TEST(WirelessMisc, D2dConfigClampsOutOfRange) {
  auto cfg = wireless::d2d_link_config(wireless::D2dTechnology::kWifiDirect, 500.0);
  EXPECT_GE(cfg.rate_bps, 1e3);  // floor, not zero/negative
  EXPECT_GT(cfg.delay, 0);
}

TEST(TcpMisc, CompleteIsFalseForInfiniteTransfers) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 10e6, milliseconds(5), 100);
  transport::TcpSink sink(net, b, 80);
  transport::TcpSource src(net, a, 1000, b, 80, 1);
  src.send_forever();
  sim.run_until(seconds(2));
  EXPECT_FALSE(src.complete());
  EXPECT_GT(src.acked_bytes(), 0);
}

TEST(DeviceMisc, AllProfilesHaveSaneFields) {
  for (const auto& d : mar::all_device_profiles()) {
    EXPECT_FALSE(d.name.empty());
    EXPECT_GT(d.compute_scale, 0.0);
    if (d.cls != mar::DeviceClass::kCloud) {
      EXPECT_GT(d.active_power_w, 0.0);
    }
  }
}

}  // namespace
}  // namespace arnet
