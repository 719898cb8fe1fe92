// Tests for the adaptive offloading runtime: strategy selection must follow
// the live link conditions (the paper's x/y split chosen dynamically).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "golden.hpp"

namespace arnet::mar {
namespace {

using sim::milliseconds;
using sim::seconds;

struct AdaptiveFixture {
  sim::Simulator sim;
  net::Network net{sim, 55};
  net::NodeId client, server;
  net::Link* up;

  AdaptiveFixture(double bps, sim::Time delay) {
    client = net.add_node("client");
    server = net.add_node("edge");
    auto [u, d] = net.connect(client, server, bps, delay, 500);
    up = u;
    (void)d;
  }
};

TEST(Adaptive, PicksCloudRidArOnGoodEdgeLink) {
  AdaptiveFixture f(30e6, milliseconds(6));
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kAdaptive;
  cfg.device = DeviceClass::kSmartphone;
  OffloadSession s(f.net, f.client, f.server, cfg);
  s.start();
  f.sim.run_until(seconds(10));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kCloudRidAR);
  EXPECT_LT(s.stats().miss_rate(), 0.1);
}

TEST(Adaptive, FallsBackToGlimpseOnFarServer) {
  // 60 ms one-way: no per-frame offload can meet 75 ms; the runtime must
  // hide latency behind local tracking.
  AdaptiveFixture f(30e6, milliseconds(60));
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kAdaptive;
  cfg.device = DeviceClass::kSmartphone;
  OffloadSession s(f.net, f.client, f.server, cfg);
  s.start();
  f.sim.run_until(seconds(10));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kGlimpse);
}

TEST(Adaptive, PicksLocalOnDesktopWithBadNetwork) {
  AdaptiveFixture f(1e6, milliseconds(80));
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kAdaptive;
  cfg.device = DeviceClass::kDesktop;  // can run vision locally
  OffloadSession s(f.net, f.client, f.server, cfg);
  s.start();
  f.sim.run_until(seconds(10));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kLocalOnly);
  EXPECT_LT(s.stats().miss_rate(), 0.05);
}

TEST(Adaptive, SwitchesWhenLinkDegrades) {
  AdaptiveFixture f(30e6, milliseconds(6));
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kAdaptive;
  cfg.device = DeviceClass::kSmartphone;
  OffloadSession s(f.net, f.client, f.server, cfg);
  s.start();
  f.sim.run_until(seconds(5));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kCloudRidAR);
  // The edge path degrades to WAN-like latency mid-session.
  f.up->set_delay(milliseconds(70));
  f.net.link_between(f.server, f.client)->set_delay(milliseconds(70));
  f.sim.run_until(seconds(15));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kGlimpse);
  EXPECT_GE(s.strategy_switches(), 1);
}

TEST(Adaptive, RecoversWhenLinkHeals) {
  AdaptiveFixture f(30e6, milliseconds(70));
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kAdaptive;
  cfg.device = DeviceClass::kSmartphone;
  OffloadSession s(f.net, f.client, f.server, cfg);
  s.start();
  f.sim.run_until(seconds(5));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kGlimpse);
  f.up->set_delay(milliseconds(5));
  f.net.link_between(f.server, f.client)->set_delay(milliseconds(5));
  f.sim.run_until(seconds(15));
  EXPECT_EQ(s.active_strategy(), OffloadStrategy::kCloudRidAR);
}

TEST(Adaptive, BeatsEveryFixedStrategyOnAVaryingLink) {
  // Link alternates between edge-grade and WAN-grade every 8 s; the
  // adaptive runtime should limit deadline misses versus fixed CloudRidAR.
  auto run = [](OffloadStrategy strategy) {
    AdaptiveFixture f(30e6, milliseconds(6));
    for (int i = 0; i < 5; ++i) {
      f.sim.at(seconds(8 * (i + 1)), [&f, i] {
        sim::Time d = i % 2 == 0 ? milliseconds(65) : milliseconds(6);
        f.up->set_delay(d);
        f.net.link_between(f.server, f.client)->set_delay(d);
      });
    }
    OffloadConfig cfg;
    cfg.strategy = strategy;
    cfg.device = DeviceClass::kSmartphone;
    OffloadSession s(f.net, f.client, f.server, cfg);
    s.start();
    f.sim.run_until(seconds(48));
    s.stop();
    return s.stats().miss_rate();
  };
  double adaptive = run(OffloadStrategy::kAdaptive);
  double fixed = run(OffloadStrategy::kCloudRidAR);
  EXPECT_LT(adaptive, 0.75 * fixed);
}

// The strategy the adaptive runtime holds a quarter second after each of its
// 500 ms re-evaluations (L LocalOnly, F FullOffload, C CloudRidAR, G
// Glimpse), then its switch count and the session's frames, results and
// deadline misses, for each link the Adaptive tests above run: the good edge
// link, the far server, the desktop on a bad network, the link that degrades
// at 5 s, the one that heals at 5 s, and the link that alternates every 8 s.
// Recorded before the analytic latency function moved out of OffloadSession.
TEST(Adaptive, PickGoldens) {
  struct Case {
    double bps;
    sim::Time delay;
    DeviceClass device;
    sim::Time end;
    std::vector<std::pair<sim::Time, sim::Time>> delay_changes;  // (at, new one-way delay)
    const char* golden;
  };
  std::vector<std::pair<sim::Time, sim::Time>> alternating;
  for (int i = 0; i < 5; ++i) {
    alternating.emplace_back(seconds(8 * (i + 1)),
                             i % 2 == 0 ? milliseconds(65) : milliseconds(6));
  }
  const Case cases[] = {
      {30e6, milliseconds(6), DeviceClass::kSmartphone, seconds(10), {},
       "GGGGCCCCCCCCCCCCCCC 2 301 297 14"},
      {30e6, milliseconds(60), DeviceClass::kSmartphone, seconds(10), {},
       "GGGGGGGGGGGGGGGGGGG 1 301 294 66"},
      {1e6, milliseconds(80), DeviceClass::kDesktop, seconds(10), {},
       "LLLLLLLLLLLLLLLLLLL 1 301 290 6"},
      {30e6, milliseconds(6), DeviceClass::kSmartphone, seconds(15),
       {{seconds(5), milliseconds(70)}},
       "GGGGCCCCCCGGGGGGGGGGGGGGGGGGG 3 451 385 24"},
      {30e6, milliseconds(70), DeviceClass::kSmartphone, seconds(15),
       {{seconds(5), milliseconds(5)}},
       "GGGGGGGGGGCCCCCCCCCCCCCCCCCCC 2 451 444 37"},
      {30e6, milliseconds(6), DeviceClass::kSmartphone, seconds(48), alternating,
       "GGGGCCCCCCCCCCCCGGGGGGGGGGGGGGGGGGGGCCCCCCCCCCCCGGGGGGGGGGGGGGG 7 1441 1282 49"},
  };
  for (const Case& c : cases) {
    AdaptiveFixture f(c.bps, c.delay);
    for (const auto& [at, delay] : c.delay_changes) {
      f.sim.at(at, [&f, delay = delay] {
        f.up->set_delay(delay);
        f.net.link_between(f.server, f.client)->set_delay(delay);
      });
    }
    OffloadConfig cfg;
    cfg.strategy = OffloadStrategy::kAdaptive;
    cfg.device = c.device;
    OffloadSession s(f.net, f.client, f.server, cfg);
    s.start();
    std::string picks;
    for (sim::Time t = milliseconds(750); t < c.end; t += milliseconds(500)) {
      f.sim.run_until(t);
      picks += to_string(s.active_strategy())[0];
    }
    f.sim.run_until(c.end);
    s.stop();
    golden::Row row;
    row.s(picks).i(s.strategy_switches());
    row.i(s.stats().frames).i(s.stats().results).i(s.stats().deadline_misses);
    EXPECT_EQ(row.str(), c.golden) << "case " << &c - cases;
  }
}

// Glimpse's dynamic trigger: offload rate follows scene motion.

OffloadStats run_glimpse(double motion, bool adaptive) {
  sim::Simulator sim;
  net::Network net(sim, 19);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 30e6, milliseconds(8), 500);
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kGlimpse;
  cfg.glimpse_adaptive = adaptive;
  cfg.glimpse_motion_level = motion;
  OffloadSession session(net, c, s, cfg);
  session.start();
  sim.run_until(seconds(20));
  session.stop();
  return session.stats();
}

TEST(GlimpseAdaptive, OffloadsMoreUnderFastMotion) {
  auto calm = run_glimpse(0.02, true);
  auto shaky = run_glimpse(0.15, true);
  ASSERT_GT(calm.frames, 500);
  EXPECT_GT(shaky.offloaded_frames, 2 * calm.offloaded_frames);
  EXPECT_GT(shaky.uplink_bytes, 2 * calm.uplink_bytes);
}

TEST(GlimpseAdaptive, CalmSceneBeatsFixedIntervalOnUplink) {
  // With little motion, the dynamic trigger offloads far less than the
  // fixed every-5th-frame policy at equivalent tracking quality.
  auto fixed = run_glimpse(0.02, false);
  auto adaptive = run_glimpse(0.02, true);
  EXPECT_LT(adaptive.uplink_bytes, fixed.uplink_bytes / 2);
}

TEST(GlimpseAdaptive, AllFramesStillProduceResults) {
  auto stats = run_glimpse(0.08, true);
  EXPECT_GT(static_cast<double>(stats.results) / stats.frames, 0.95);
}

}  // namespace
}  // namespace arnet::mar
