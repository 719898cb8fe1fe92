#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arnet/net/link.hpp"
#include "arnet/net/loss.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/sim/simulator.hpp"

namespace arnet::net {
namespace {

using sim::milliseconds;
using sim::seconds;

Packet make_packet(std::int32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

// ------------------------------------------------------------------ Queues

TEST(DropTailQueue, FifoOrderAndByteAccounting) {
  DropTailQueue q(10);
  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(100 * (i + 1));
    p.uid = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(q.enqueue(std::move(p), 0));
  }
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 600);
  auto p = q.dequeue(0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->uid, 1u);
  EXPECT_EQ(q.bytes(), 500);
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.enqueue(make_packet(100), 0));
  EXPECT_TRUE(q.enqueue(make_packet(100), 0));
  EXPECT_FALSE(q.enqueue(make_packet(100), 0));
  EXPECT_EQ(q.drops(), 1);
  EXPECT_EQ(q.packets(), 2u);
}

TEST(DropTailQueue, EmptyDequeueReturnsNullopt) {
  DropTailQueue q(2);
  EXPECT_FALSE(q.dequeue(0));
  EXPECT_TRUE(q.empty());
}

TEST(CoDelQueue, NoDropsAtLowDelay) {
  CoDelQueue q;
  // Packets dequeued immediately: sojourn ~0, CoDel must never drop.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(1500), milliseconds(i)));
    ASSERT_TRUE(q.dequeue(milliseconds(i)));
  }
  EXPECT_EQ(q.drops(), 0);
}

TEST(CoDelQueue, DropsUnderStandingQueue) {
  CoDelQueue q;
  // Build a standing queue, then dequeue with sojourn far above target.
  sim::Time t = 0;
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(q.enqueue(make_packet(1500), t));
  t = milliseconds(400);  // every packet has 400 ms sojourn, target is 5 ms
  int delivered = 0;
  while (auto p = q.dequeue(t)) {
    ++delivered;
    t += milliseconds(12);  // slow drain keeps the standing queue
  }
  EXPECT_GT(q.drops(), 0);
  EXPECT_LT(delivered, 500);
}

TEST(FqCoDelQueue, IsolatesFlows) {
  FqCoDelQueue q;
  // Flow 1 floods, flow 2 sends one packet; flow 2 must not wait behind all
  // of flow 1's backlog.
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(1500);
    p.flow = 1;
    p.uid = 100 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(q.enqueue(std::move(p), 0));
  }
  Packet lone = make_packet(200);
  lone.flow = 2;
  lone.uid = 999;
  ASSERT_TRUE(q.enqueue(std::move(lone), 0));

  // The lone packet must appear within the first few dequeues (new-flow
  // priority), far earlier than position 51.
  int position = -1;
  for (int i = 0; i < 51; ++i) {
    auto p = q.dequeue(0);
    ASSERT_TRUE(p);
    if (p->uid == 999) {
      position = i;
      break;
    }
  }
  ASSERT_GE(position, 0);
  EXPECT_LE(position, 3);
}

TEST(FqCoDelQueue, CountsStayConsistent) {
  FqCoDelQueue q;
  for (int f = 0; f < 8; ++f) {
    for (int i = 0; i < 10; ++i) {
      Packet p = make_packet(500);
      p.flow = static_cast<FlowId>(f);
      ASSERT_TRUE(q.enqueue(std::move(p), 0));
    }
  }
  EXPECT_EQ(q.packets(), 80u);
  int n = 0;
  while (q.dequeue(0)) ++n;
  EXPECT_EQ(n, 80);
  EXPECT_EQ(q.packets(), 0u);
  EXPECT_EQ(q.bytes(), 0);
}

// ------------------------------------------------------------------- Links

struct LinkFixture : ::testing::Test {
  sim::Simulator sim;
  std::vector<Packet> received;

  std::unique_ptr<Link> make_link(Link::Config cfg) {
    auto link = std::make_unique<Link>(sim, sim::Rng(1), std::move(cfg));
    link->set_sink([this](Packet&& p) { received.push_back(std::move(p)); });
    return link;
  }
};

TEST_F(LinkFixture, DeliversWithSerializationPlusPropagation) {
  Link::Config cfg;
  cfg.rate_bps = 12e6;  // 1500 B = 1 ms
  cfg.delay = milliseconds(5);
  auto link = make_link(std::move(cfg));
  link->send(make_packet(1500));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(sim.now(), milliseconds(6));
}

TEST_F(LinkFixture, BackToBackPacketsSerialize) {
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.delay = 0;
  auto link = make_link(std::move(cfg));
  for (int i = 0; i < 10; ++i) link->send(make_packet(1500));
  sim.run();
  ASSERT_EQ(received.size(), 10u);
  EXPECT_EQ(sim.now(), milliseconds(10));  // 10 x 1 ms, pipelined queueing
}

TEST_F(LinkFixture, QueueOverflowDrops) {
  Link::Config cfg;
  cfg.rate_bps = 1e6;
  cfg.delay = 0;
  cfg.queue_packets = 5;
  auto link = make_link(std::move(cfg));
  for (int i = 0; i < 20; ++i) link->send(make_packet(1500));
  sim.run();
  // 1 in flight + 5 queued survive from the initial burst.
  EXPECT_EQ(received.size(), 6u);
  EXPECT_EQ(link->queue().drops(), 14);
}

TEST_F(LinkFixture, BernoulliLossDropsSomePackets) {
  Link::Config cfg;
  cfg.rate_bps = 100e6;
  cfg.delay = 0;
  cfg.queue_packets = 10000;
  cfg.loss = std::make_unique<BernoulliLoss>(0.2);
  auto link = make_link(std::move(cfg));
  for (int i = 0; i < 2000; ++i) link->send(make_packet(100));
  sim.run();
  double loss = 1.0 - static_cast<double>(received.size()) / 2000.0;
  EXPECT_NEAR(loss, 0.2, 0.05);
  EXPECT_EQ(link->lost_packets(), 2000 - static_cast<std::int64_t>(received.size()));
}

TEST_F(LinkFixture, DownLinkLosesTraffic) {
  Link::Config cfg;
  cfg.rate_bps = 1e6;
  cfg.delay = milliseconds(10);
  auto link = make_link(std::move(cfg));
  link->send(make_packet(1500));
  link->set_up(false);
  link->send(make_packet(1500));
  sim.run();
  EXPECT_TRUE(received.empty());
  link->set_up(true);
  link->send(make_packet(1500));
  sim.run();
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(LinkFixture, RateChangeAppliesToNextPacket) {
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.delay = 0;
  auto link = make_link(std::move(cfg));
  link->send(make_packet(1500));
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(1));
  link->set_rate(1.2e6);
  link->send(make_packet(1500));
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(11));  // 10 ms at the new rate
}

TEST(GilbertElliott, ProducesBurstyLoss) {
  sim::Rng rng(3);
  GilbertElliottLoss::Config cfg;
  cfg.p_good_to_bad = 0.02;
  cfg.p_bad_to_good = 0.2;
  cfg.loss_in_good = 0.001;
  cfg.loss_in_bad = 0.6;
  GilbertElliottLoss ge(cfg);
  Packet p = make_packet(100);
  int losses = 0, runs = 0;
  bool prev = false;
  for (int i = 0; i < 50000; ++i) {
    bool l = ge.lose(rng, p);
    losses += l ? 1 : 0;
    if (l && !prev) ++runs;
    prev = l;
  }
  ASSERT_GT(losses, 0);
  double mean_burst = static_cast<double>(losses) / runs;
  // Bursty: mean run length clearly above 1 (independent losses give ~1.05).
  EXPECT_GT(mean_burst, 1.2);
}

// ----------------------------------------------------------------- Network

TEST(Network, RoutesAcrossMultipleHops) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId r = net.add_node("r");
  NodeId b = net.add_node("b");
  net.connect(a, r, 100e6, milliseconds(1));
  net.connect(r, b, 100e6, milliseconds(2));

  std::vector<Packet> got;
  net.node(b).bind(7, [&](Packet&& p) { got.push_back(std::move(p)); });

  Packet p = make_packet(1000);
  p.src = a;
  p.dst = b;
  p.dst_port = 7;
  net.send(std::move(p));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  // Two serializations (0.08 ms each) + 3 ms propagation.
  EXPECT_GT(sim.now(), milliseconds(3));
  EXPECT_LT(sim.now(), milliseconds(4));
}

TEST(Network, PicksLowerDelayPath) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId fast = net.add_node("fast");
  NodeId slow = net.add_node("slow");
  NodeId b = net.add_node("b");
  net.connect(a, fast, 100e6, milliseconds(1));
  net.connect(fast, b, 100e6, milliseconds(1));
  net.connect(a, slow, 100e6, milliseconds(50));
  net.connect(slow, b, 100e6, milliseconds(50));

  int via_fast = 0;
  net.node(b).bind(7, [&](Packet&&) {});
  Packet p = make_packet(100);
  p.src = a;
  p.dst = b;
  p.dst_port = 7;
  net.send(std::move(p));
  sim.run();
  via_fast = static_cast<int>(net.link_between(a, fast)->delivered_packets());
  EXPECT_EQ(via_fast, 1);
  EXPECT_EQ(net.link_between(a, slow)->delivered_packets(), 0);
}

TEST(Network, ForwardingDelayAddsMiddleboxLatency) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId fw = net.add_node("firewall");
  NodeId b = net.add_node("b");
  net.connect(a, fw, 1e9, milliseconds(1));
  net.connect(fw, b, 1e9, milliseconds(1));
  net.node(fw).set_forwarding_delay(milliseconds(15));

  sim::Time arrival = -1;
  net.node(b).bind(7, [&](Packet&&) { arrival = sim.now(); });
  Packet p = make_packet(100);
  p.src = a;
  p.dst = b;
  p.dst_port = 7;
  net.send(std::move(p));
  sim.run();
  EXPECT_GE(arrival, milliseconds(17));
}

TEST(Network, LocalDeliveryWorks) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  bool got = false;
  net.node(a).bind(9, [&](Packet&&) { got = true; });
  Packet p = make_packet(10);
  p.src = a;
  p.dst = a;
  p.dst_port = 9;
  net.send(std::move(p));
  sim.run();
  EXPECT_TRUE(got);
}

TEST(Network, SendViaOverridesFirstHop) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId fast = net.add_node("fast");
  NodeId slow = net.add_node("slow");
  NodeId b = net.add_node("b");
  net.connect(a, fast, 100e6, milliseconds(1));
  net.connect(fast, b, 100e6, milliseconds(1));
  auto [to_slow, from_slow] = net.connect(a, slow, 100e6, milliseconds(50));
  (void)from_slow;
  net.connect(slow, b, 100e6, milliseconds(50));
  net.node(b).bind(7, [&](Packet&&) {});

  Packet p = make_packet(100);
  p.src = a;
  p.dst = b;
  p.dst_port = 7;
  net.send_via(*to_slow, std::move(p));
  sim.run();
  EXPECT_EQ(net.link_between(a, slow)->delivered_packets(), 1);
  EXPECT_EQ(net.link_between(slow, b)->delivered_packets(), 1);
  EXPECT_EQ(net.link_between(a, fast)->delivered_packets(), 0);
}

TEST(Network, UnroutablePacketIsDropped) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");  // no link
  net.node(b).bind(7, [&](Packet&&) { FAIL() << "unroutable packet delivered"; });
  Packet p = make_packet(10);
  p.src = a;
  p.dst = b;
  p.dst_port = 7;
  net.send(std::move(p));
  sim.run();
}

TEST(Network, AssignsUniqueUids) {
  sim::Simulator sim;
  Network net(sim, 1);
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  net.connect(a, b, 1e9, 0);
  std::vector<std::uint64_t> uids;
  net.node(b).bind(7, [&](Packet&& p) { uids.push_back(p.uid); });
  for (int i = 0; i < 5; ++i) {
    Packet p = make_packet(10);
    p.src = a;
    p.dst = b;
    p.dst_port = 7;
    net.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(uids.size(), 5u);
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(std::unique(uids.begin(), uids.end()), uids.end());
}

// ------------------------------------------------------ Weighted fair queue

Packet sized(std::int32_t bytes, FlowId flow) {
  Packet p;
  p.size_bytes = bytes;
  p.flow = flow;
  return p;
}

TEST(WeightedFairQueue, HonorsWeightsUnderSaturation) {
  // Class 0 (reserved, weight 3) and class 1 (weight 1), both saturated:
  // dequeued bytes must split ~3:1.
  WeightedFairQueue q({{3.0, 1000}, {1.0, 1000}}, WeightedFairQueue::reserve_flow(42));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(q.enqueue(sized(1000, 42), 0));
    ASSERT_TRUE(q.enqueue(sized(1000, 7), 0));
  }
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(q.dequeue(0).has_value());
  double ratio = static_cast<double>(q.class_dequeued_bytes(0)) /
                 static_cast<double>(q.class_dequeued_bytes(1));
  EXPECT_NEAR(ratio, 3.0, 0.4);
}

TEST(WeightedFairQueue, IdleClassDoesNotHoardBandwidth) {
  // Only the best-effort class is backlogged: it gets everything.
  WeightedFairQueue q({{3.0, 1000}, {1.0, 1000}}, WeightedFairQueue::reserve_flow(42));
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(q.enqueue(sized(1000, 7), 0));
  int served = 0;
  while (q.dequeue(0)) ++served;
  EXPECT_EQ(served, 50);
}

TEST(WeightedFairQueue, ReservedFlowKeepsRateOnSharedLink) {
  // End-to-end: an AR flow with an RSVP-style reservation keeps its
  // bandwidth share while a background flood saturates the same link.
  sim::Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.delay = sim::milliseconds(5);
  cfg.queue = std::make_unique<WeightedFairQueue>(
      std::vector<WeightedFairQueue::ClassConfig>{{3.0, 500}, {1.0, 500}},
      WeightedFairQueue::reserve_flow(42));
  Link link(sim, sim::Rng(1), std::move(cfg));
  std::int64_t ar_bytes = 0, bg_bytes = 0;
  link.set_sink([&](Packet&& p) { (p.flow == 42 ? ar_bytes : bg_bytes) += p.size_bytes; });
  // AR flow offers 4 Mb/s; background offers 12 Mb/s.
  for (int i = 0; i < 1000; ++i) {
    sim.at(sim::milliseconds(2) * i, [&] {
      link.send(sized(1000, 42));
      link.send(sized(1500, 7));
      link.send(sized(1500, 7));
    });
  }
  sim.run_until(sim::seconds(2));
  double ar_mbps = ar_bytes * 8.0 / 2 / 1e6;
  // Reservation guarantees 3/4 of 8 Mb/s = 6 > offered 4: full delivery.
  EXPECT_GT(ar_mbps, 3.6);
}

TEST(WeightedFairQueue, PerClassCapacityDrops) {
  WeightedFairQueue q({{1.0, 5}, {1.0, 5}}, WeightedFairQueue::reserve_flow(42));
  for (int i = 0; i < 10; ++i) q.enqueue(sized(100, 42), 0);
  EXPECT_EQ(q.packets(), 5u);
  EXPECT_EQ(q.drops(), 5);
}

}  // namespace
}  // namespace arnet::net
