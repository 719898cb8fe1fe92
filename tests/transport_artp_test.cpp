#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "arnet/net/loss.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"

namespace arnet::transport {
namespace {

using net::AppData;
using net::Link;
using net::Network;
using net::NodeId;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

struct ArtpPair {
  sim::Simulator sim;
  Network net{sim, 7};
  NodeId client, server;
  Link* up;
  Link* down;
  std::unique_ptr<ArtpReceiver> rx;
  std::unique_ptr<ArtpSender> tx;
  std::vector<ArtpDelivery> deliveries;

  ArtpPair(double up_bps, sim::Time delay, std::size_t queue_pkts, double up_loss = 0.0,
           ArtpSenderConfig scfg = {}) {
    client = net.add_node("client");
    server = net.add_node("server");
    Link::Config cu;
    cu.rate_bps = up_bps;
    cu.delay = delay;
    cu.queue_packets = queue_pkts;
    if (up_loss > 0) cu.loss = std::make_unique<net::BernoulliLoss>(up_loss);
    Link::Config cd;
    cd.rate_bps = up_bps;
    cd.delay = delay;
    cd.queue_packets = queue_pkts;
    auto [l1, l2] = net.connect(client, server, std::move(cu), std::move(cd));
    up = l1;
    down = l2;
    rx = std::make_unique<ArtpReceiver>(net, server, 80);
    rx->set_message_callback([this](const ArtpDelivery& d) { deliveries.push_back(d); });
    tx = std::make_unique<ArtpSender>(net, client, 1000, server, 80, 1, scfg);
  }

  int count(AppData app, bool complete_only = true) const {
    int n = 0;
    for (const auto& d : deliveries) {
      if (d.app == app && (!complete_only || d.complete)) ++n;
    }
    return n;
  }
};

ArtpMessageSpec spec(std::int64_t bytes, TrafficClass tc, Priority prio, AppData app,
                     std::uint32_t frame = 0) {
  ArtpMessageSpec s;
  s.bytes = bytes;
  s.tclass = tc;
  s.priority = prio;
  s.app = app;
  s.frame_id = frame;
  return s;
}

TEST(Artp, DeliversSingleChunkMessage) {
  ArtpPair p(10e6, milliseconds(10), 100);
  p.tx->send_message(spec(500, TrafficClass::kCriticalData, Priority::kHighest,
                          AppData::kConnectionMetadata));
  p.sim.run_until(seconds(1));
  ASSERT_EQ(p.deliveries.size(), 1u);
  const auto& d = p.deliveries[0];
  EXPECT_TRUE(d.complete);
  EXPECT_EQ(d.app, AppData::kConnectionMetadata);
  // Highest priority bypasses the pacer: latency ~ propagation + tx.
  EXPECT_LT(d.latency(), milliseconds(15));
}

TEST(Artp, ChunksAndReassemblesLargeMessage) {
  ArtpPair p(50e6, milliseconds(5), 1000);
  // 100 KB -> ~77 chunks at 1300 B payload.
  p.tx->send_message(spec(100'000, TrafficClass::kCriticalData, Priority::kHighest,
                          AppData::kVideoReferenceFrame, 1));
  p.sim.run_until(seconds(2));
  ASSERT_EQ(p.deliveries.size(), 1u);
  EXPECT_TRUE(p.deliveries[0].complete);
  EXPECT_NEAR(static_cast<double>(p.deliveries[0].bytes), 100'000, 2000);
}

TEST(Artp, PacedTrafficRespectsControllerRate) {
  ArtpPair p(10e6, milliseconds(10), 1000);
  // Offer ~4 Mb/s of low-priority traffic; initial controller rate is 1 Mb/s
  // and climbs. Early on, the backlog must be paced, not blasted.
  for (int i = 0; i < 100; ++i) {
    p.sim.at(milliseconds(i * 10), [&, i] {
      p.tx->send_message(spec(5000, TrafficClass::kFullBestEffort, Priority::kMediumNoDrop,
                              AppData::kSensorData, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(milliseconds(200));
  // At 1 Mb/s initial rate, at most ~25 KB can have left in 200 ms (plus one
  // burst allowance); well under the 100 KB offered by then.
  EXPECT_LT(p.tx->sent_bytes(), 60'000);
  p.sim.run_until(seconds(10));
  EXPECT_GT(p.count(AppData::kSensorData), 90);  // eventually all through
}

TEST(Artp, FecRecoversLossesWithoutRetransmission) {
  ArtpSenderConfig cfg;
  cfg.fec_parity = 2;
  ArtpPair p(20e6, milliseconds(10), 1000, /*loss=*/0.03, cfg);
  for (int i = 0; i < 200; ++i) {
    p.sim.at(milliseconds(i * 20), [&, i] {
      p.tx->send_message(spec(13'000, TrafficClass::kBestEffortLossRecovery,
                              Priority::kMediumNoDrop, AppData::kVideoReferenceFrame,
                              static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(6));
  EXPECT_GT(p.rx->fec_recoveries(), 0);
  EXPECT_EQ(p.tx->retransmitted_chunks(), 0);
  // 10-chunk messages with 2 parity tolerate up to 2 losses: the vast
  // majority of messages must arrive complete.
  EXPECT_GT(p.count(AppData::kVideoReferenceFrame), 180);
}

TEST(Artp, FecDisabledMeansIncompleteMessagesExpire) {
  ArtpSenderConfig cfg;
  cfg.fec_parity = 0;
  ArtpPair p(20e6, milliseconds(10), 1000, /*loss=*/0.05, cfg);
  for (int i = 0; i < 100; ++i) {
    p.sim.at(milliseconds(i * 20), [&, i] {
      p.tx->send_message(spec(13'000, TrafficClass::kBestEffortLossRecovery,
                              Priority::kMediumNoDrop, AppData::kVideoInterFrame,
                              static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(6));
  EXPECT_EQ(p.rx->fec_recoveries(), 0);
  EXPECT_GT(p.rx->expired_messages(), 0);
  int incomplete = 0;
  for (const auto& d : p.deliveries) {
    if (!d.complete) {
      ++incomplete;
      EXPECT_LT(d.completeness, 1.0);
      EXPECT_GT(d.completeness, 0.0);
    }
  }
  EXPECT_GT(incomplete, 0);
}

TEST(Artp, CriticalClassRecoversViaNacks) {
  ArtpPair p(20e6, milliseconds(10), 1000, /*loss=*/0.05);
  for (int i = 0; i < 100; ++i) {
    p.sim.at(milliseconds(i * 20), [&, i] {
      p.tx->send_message(spec(6500, TrafficClass::kCriticalData, Priority::kMediumNoDrop,
                              AppData::kConnectionMetadata, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(10));
  EXPECT_GT(p.tx->retransmitted_chunks(), 0);
  EXPECT_EQ(p.count(AppData::kConnectionMetadata), 100);  // all delivered
}

TEST(Artp, CriticalDeliveryIsInOrder) {
  ArtpPair p(20e6, milliseconds(10), 1000, /*loss=*/0.08);
  for (int i = 0; i < 80; ++i) {
    p.sim.at(milliseconds(i * 15), [&, i] {
      p.tx->send_message(spec(4000, TrafficClass::kCriticalData, Priority::kMediumNoDrop,
                              AppData::kConnectionMetadata, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(15));
  ASSERT_EQ(p.count(AppData::kConnectionMetadata), 80);
  std::uint64_t prev = 0;
  for (const auto& d : p.deliveries) {
    EXPECT_GT(d.msg_id, prev);  // strictly increasing
    prev = d.msg_id;
  }
}

TEST(Artp, GracefulDegradationShedsLowestFirst) {
  // 2 Mb/s bottleneck, offered ~6 Mb/s: lowest priority must be shed while
  // highest-priority metadata all gets through.
  ArtpPair p(2e6, milliseconds(10), 1000);
  for (int i = 0; i < 300; ++i) {
    p.sim.at(milliseconds(i * 20), [&, i] {
      p.tx->send_message(spec(200, TrafficClass::kCriticalData, Priority::kHighest,
                              AppData::kConnectionMetadata, static_cast<std::uint32_t>(i)));
      p.tx->send_message(spec(14'000, TrafficClass::kFullBestEffort, Priority::kLowest,
                              AppData::kVideoInterFrame, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(8));
  EXPECT_EQ(p.count(AppData::kConnectionMetadata), 300);
  EXPECT_GT(p.tx->shed_messages(), 50);
  EXPECT_LT(p.count(AppData::kVideoInterFrame), 250);
}

TEST(Artp, CongestionLevelRisesUnderOverload) {
  ArtpPair p(1e6, milliseconds(10), 1000);
  int max_level = 0;
  p.tx->set_qos_callback([&](const ArtpQosReport& r) { max_level = std::max(max_level, r.congestion_level); });
  for (int i = 0; i < 100; ++i) {
    p.sim.at(milliseconds(i * 10), [&, i] {
      p.tx->send_message(spec(10'000, TrafficClass::kFullBestEffort, Priority::kMediumNoDrop,
                              AppData::kSensorData, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(3));
  EXPECT_GE(max_level, 1);
}

TEST(Artp, DelayGradientKeepsQueueShort) {
  // Offered load exceeds the 5 Mb/s bottleneck; delay-gradient control must
  // keep the standing queue (and hence latency) small.
  ArtpPair p(5e6, milliseconds(10), 1000);
  for (int i = 0; i < 600; ++i) {
    p.sim.at(milliseconds(i * 10), [&, i] {
      p.tx->send_message(spec(10'000, TrafficClass::kFullBestEffort, Priority::kMediumNoDelay,
                              AppData::kVideoInterFrame, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(7));
  // Post-convergence deliveries stay fast: check p95-ish by counting.
  int slow = 0, total = 0;
  for (const auto& d : p.deliveries) {
    if (d.submitted_at < seconds(3)) continue;  // skip ramp-up
    ++total;
    if (d.latency() > milliseconds(120)) ++slow;
  }
  ASSERT_GT(total, 50);
  EXPECT_LT(static_cast<double>(slow) / total, 0.2);
  // The excess is shed once stale rather than queued behind fresh frames.
  EXPECT_GT(p.tx->shed_messages(), 0);
}

struct MultipathFixture {
  sim::Simulator sim;
  Network net{sim, 11};
  NodeId client, ap, enb, server;
  Link* wifi_up;
  Link* lte_up;
  std::unique_ptr<ArtpReceiver> rx;
  std::unique_ptr<ArtpSender> tx;
  std::vector<ArtpDelivery> deliveries;

  explicit MultipathFixture(MultipathPolicy policy, bool duplicate_critical = false,
                            double wifi_loss = 0.0) {
    client = net.add_node("client");
    ap = net.add_node("ap");
    enb = net.add_node("enb");
    server = net.add_node("server");
    Link::Config wu;
    wu.rate_bps = 30e6;
    wu.delay = milliseconds(2);
    wu.queue_packets = 300;
    if (wifi_loss > 0) wu.loss = std::make_unique<net::BernoulliLoss>(wifi_loss);
    Link::Config wd;
    wd.rate_bps = 30e6;
    wd.delay = milliseconds(2);
    wd.queue_packets = 300;
    auto [w1, w2] = net.connect(client, ap, std::move(wu), std::move(wd));
    wifi_up = w1;
    (void)w2;
    net.connect(ap, server, 100e6, milliseconds(8), 1000);
    auto [l1, l2] = net.connect(client, enb, 20e6, milliseconds(25), 300);
    lte_up = l1;
    (void)l2;
    net.connect(enb, server, 100e6, milliseconds(10), 1000);

    rx = std::make_unique<ArtpReceiver>(net, server, 80);
    rx->set_message_callback([this](const ArtpDelivery& d) { deliveries.push_back(d); });

    ArtpSenderConfig cfg;
    cfg.policy = policy;
    cfg.duplicate_critical_on_two_paths = duplicate_critical;
    std::vector<ArtpPathConfig> paths;
    ArtpPathConfig p0;
    p0.first_hop = wifi_up;
    p0.name = "wifi";
    paths.push_back(std::move(p0));
    ArtpPathConfig p1;
    p1.first_hop = lte_up;
    p1.name = "lte";
    paths.push_back(std::move(p1));
    tx = std::make_unique<ArtpSender>(net, client, 1000, server, 80, 1, cfg, std::move(paths));
  }

  void offer_cbr(int count, sim::Time gap, std::int64_t bytes,
                 TrafficClass tc = TrafficClass::kFullBestEffort,
                 Priority prio = Priority::kMediumNoDrop) {
    for (int i = 0; i < count; ++i) {
      sim.at(gap * i, [this, bytes, tc, prio, i] {
        ArtpMessageSpec m;
        m.bytes = bytes;
        m.tclass = tc;
        m.priority = prio;
        m.app = AppData::kSensorData;
        m.frame_id = static_cast<std::uint32_t>(i);
        tx->send_message(m);
      });
    }
  }
};

TEST(ArtpMultipath, HandoverFailsOverWhenWifiDies) {
  MultipathFixture f(MultipathPolicy::kHandoverOnly);
  f.offer_cbr(600, milliseconds(10), 4000);
  f.sim.at(seconds(3), [&] { f.wifi_up->set_up(false); });
  f.sim.run_until(seconds(8));
  int before = 0, after = 0;
  for (const auto& d : f.deliveries) {
    if (d.submitted_at < seconds(3)) ++before;
    if (d.submitted_at > milliseconds(3500)) ++after;
  }
  EXPECT_GT(before, 100);
  EXPECT_GT(after, 100);  // traffic continued on LTE
  EXPECT_GT(f.tx->path_sent_bytes(1), 100'000);
}

TEST(ArtpMultipath, SinglePolicyStallsWhenWifiDies) {
  MultipathFixture f(MultipathPolicy::kSingle);
  f.offer_cbr(600, milliseconds(10), 4000);
  f.sim.at(seconds(3), [&] { f.wifi_up->set_up(false); });
  f.sim.run_until(seconds(8));
  int after = 0;
  for (const auto& d : f.deliveries) {
    if (d.submitted_at > milliseconds(3500)) ++after;
  }
  EXPECT_EQ(after, 0);  // naive single-homed client goes dark
  EXPECT_EQ(f.tx->path_sent_bytes(1), 0);
}

TEST(ArtpMultipath, AggregateUsesBothPaths) {
  MultipathFixture f(MultipathPolicy::kAggregate);
  f.offer_cbr(1000, milliseconds(5), 12'000);  // ~19 Mb/s offered
  f.sim.run_until(seconds(8));
  EXPECT_GT(f.tx->path_sent_bytes(0), 500'000);
  EXPECT_GT(f.tx->path_sent_bytes(1), 500'000);
}

TEST(ArtpMultipath, DuplicatedCriticalSurvivesLossyWifi) {
  MultipathFixture f(MultipathPolicy::kAggregate, /*duplicate_critical=*/true,
                     /*wifi_loss=*/0.3);
  for (int i = 0; i < 200; ++i) {
    f.sim.at(milliseconds(i * 20), [&f, i] {
      ArtpMessageSpec m;
      m.bytes = 800;
      m.tclass = TrafficClass::kCriticalData;
      m.priority = Priority::kHighest;
      m.app = AppData::kConnectionMetadata;
      m.frame_id = static_cast<std::uint32_t>(i);
      f.tx->send_message(m);
    });
  }
  f.sim.run_until(seconds(10));
  int complete = 0;
  for (const auto& d : f.deliveries) complete += d.complete ? 1 : 0;
  EXPECT_EQ(complete, 200);  // every critical message arrives
}

TEST(Artp, QosReportContainsPathDelay) {
  ArtpPair p(10e6, milliseconds(20), 100);
  sim::Time seen_owd = 0;
  p.tx->set_qos_callback([&](const ArtpQosReport& r) {
    if (r.min_path_owd > 0) seen_owd = r.min_path_owd;
  });
  for (int i = 0; i < 50; ++i) {
    p.sim.at(milliseconds(i * 20), [&, i] {
      p.tx->send_message(spec(2000, TrafficClass::kFullBestEffort, Priority::kMediumNoDrop,
                              AppData::kSensorData, static_cast<std::uint32_t>(i)));
    });
  }
  p.sim.run_until(seconds(3));
  EXPECT_GT(seen_owd, milliseconds(18));
  EXPECT_LT(seen_owd, milliseconds(80));
}

}  // namespace
}  // namespace arnet::transport
