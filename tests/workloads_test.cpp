// Tests for the Figure 1 workload profiles and ARTP sub-priorities.
#include <gtest/gtest.h>

#include "arnet/mar/workloads.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"

namespace arnet::mar {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(Workloads, FourUseCasesWithDistinctRequirements) {
  const auto& gaming = workload(MarUseCase::kGaming);
  const auto& memorial = workload(MarUseCase::kVirtualMemorial);
  const auto& orientation = workload(MarUseCase::kOrientation);
  const auto& art = workload(MarUseCase::kArt);

  // Gaming has the harshest budget and the hottest feed.
  EXPECT_LT(gaming.deadline, orientation.deadline);
  EXPECT_LT(gaming.deadline, memorial.deadline);
  EXPECT_GT(gaming.video.compressed_bps(), memorial.video.compressed_bps());
  EXPECT_GT(gaming.recognition_hz, art.recognition_hz);
  // Art and the memorial are asset-heavy, not frame-heavy.
  EXPECT_GT(art.db_object_bytes, gaming.db_object_bytes);
  EXPECT_GT(memorial.db_object_bytes, orientation.db_object_bytes);
}

TEST(Workloads, AppParamsReflectProfile) {
  const auto& g = workload(MarUseCase::kGaming);
  auto app = g.app_params();
  EXPECT_DOUBLE_EQ(app.fps, 60.0);
  EXPECT_EQ(app.deadline, milliseconds(50));
}

TEST(Workloads, OffloadConfigRunsEndToEnd) {
  for (auto uc : {MarUseCase::kOrientation, MarUseCase::kVirtualMemorial,
                  MarUseCase::kGaming, MarUseCase::kArt}) {
    sim::Simulator sim;
    net::Network net(sim, 5);
    auto c = net.add_node("c");
    auto s = net.add_node("s");
    net.connect(c, s, 30e6, milliseconds(5), 500);
    auto cfg = workload(uc).offload_config();
    OffloadSession session(net, c, s, cfg);
    session.start();
    sim.run_until(seconds(5));
    session.stop();
    EXPECT_GT(session.stats().results, 20) << to_string(uc);
  }
}

}  // namespace
}  // namespace arnet::mar

namespace arnet::transport {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(ArtpSubPriority, UrgentMessageOvertakesQueuedBacklog) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 2e6, milliseconds(5), 500);
  ArtpReceiver rx(net, b, 80);
  std::vector<std::uint32_t> order;
  rx.set_message_callback([&](const ArtpDelivery& d) {
    if (d.complete) order.push_back(d.frame_id);
  });
  ArtpSender tx(net, a, 1000, b, 80, 1, ArtpSenderConfig{});

  // Queue a deep backlog of ordinary messages, then one urgent message.
  for (std::uint32_t i = 0; i < 10; ++i) {
    ArtpMessageSpec m;
    m.bytes = 8000;
    m.tclass = net::TrafficClass::kFullBestEffort;
    m.priority = net::Priority::kMediumNoDrop;
    m.sub_priority = 128;
    m.frame_id = i;
    tx.send_message(m);
  }
  sim.at(milliseconds(40), [&] {
    ArtpMessageSpec urgent;
    urgent.bytes = 2000;
    urgent.tclass = net::TrafficClass::kFullBestEffort;
    urgent.priority = net::Priority::kMediumNoDrop;
    urgent.sub_priority = 1;
    urgent.frame_id = 999;
    tx.send_message(urgent);
  });
  sim.run_until(seconds(5));
  ASSERT_GE(order.size(), 11u);
  auto pos = std::find(order.begin(), order.end(), 999u) - order.begin();
  // The urgent message jumps most of the backlog (only the in-flight
  // message may precede it).
  EXPECT_LE(pos, 3);
}

TEST(ArtpSubPriority, NeverSplitsAMessageMidSend) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 2e6, milliseconds(5), 500);
  ArtpReceiver rx(net, b, 80);
  int incomplete = 0, complete = 0;
  rx.set_message_callback([&](const ArtpDelivery& d) {
    (d.complete ? complete : incomplete) += 1;
  });
  ArtpSender tx(net, a, 1000, b, 80, 1, ArtpSenderConfig{});
  // Interleave urgent submissions while big messages drain: no message may
  // end up incomplete (no chunk interleaving corruption, no expiry).
  for (int i = 0; i < 30; ++i) {
    sim.at(milliseconds(25) * i, [&tx, i] {
      ArtpMessageSpec m;
      m.bytes = 12'000;
      m.tclass = net::TrafficClass::kBestEffortLossRecovery;
      m.priority = net::Priority::kMediumNoDrop;
      m.sub_priority = 200;
      m.frame_id = static_cast<std::uint32_t>(i);
      tx.send_message(m);
    });
    sim.at(milliseconds(25) * i + milliseconds(7), [&tx, i] {
      ArtpMessageSpec u;
      u.bytes = 1000;
      u.tclass = net::TrafficClass::kBestEffortLossRecovery;
      u.priority = net::Priority::kMediumNoDrop;
      u.sub_priority = 10;
      u.frame_id = 1000 + static_cast<std::uint32_t>(i);
      tx.send_message(u);
    });
  }
  sim.run_until(seconds(10));
  EXPECT_EQ(incomplete, 0);
  EXPECT_EQ(complete, 60);
}

TEST(ArtpSubPriority, EqualSubPriorityKeepsFifo) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 5e6, milliseconds(5), 500);
  ArtpReceiver rx(net, b, 80);
  std::vector<std::uint32_t> order;
  rx.set_message_callback([&](const ArtpDelivery& d) {
    if (d.complete) order.push_back(d.frame_id);
  });
  ArtpSender tx(net, a, 1000, b, 80, 1, ArtpSenderConfig{});
  for (std::uint32_t i = 0; i < 20; ++i) {
    ArtpMessageSpec m;
    m.bytes = 3000;
    m.tclass = net::TrafficClass::kFullBestEffort;
    m.priority = net::Priority::kMediumNoDrop;
    m.frame_id = i;
    tx.send_message(m);
  }
  sim.run_until(seconds(5));
  ASSERT_EQ(order.size(), 20u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace arnet::transport
