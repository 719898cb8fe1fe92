// Tests for the §V protocol-survey pieces: jitter buffer + intermedia sync
// (RTP/RTCP, §V-A2), the DCCP-like datagram socket (§V-B3), and per-flow
// accounting over a whole network through ObsTap.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "arnet/net/network.hpp"
#include "arnet/net/obs_tap.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/dccp_like.hpp"
#include "arnet/transport/jitter_buffer.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/transport/udp.hpp"

namespace arnet::transport {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(JitterBuffer, PlaysInOrderAfterPlayoutDelay) {
  JitterBuffer::Config cfg;
  cfg.adaptive = false;
  cfg.initial_playout_delay = milliseconds(40);
  JitterBuffer jb(cfg);
  // Samples captured every 10 ms, arriving with 20 ms transit, reordered.
  for (std::uint32_t seq : {1u, 0u, 2u}) {
    JitterBuffer::Sample s;
    s.seq = seq;
    s.source_ts = milliseconds(10) * seq;
    s.arrival = s.source_ts + milliseconds(20);
    EXPECT_TRUE(jb.push(s, s.arrival));
  }
  EXPECT_TRUE(jb.due(milliseconds(39)).empty());  // nothing before playout
  auto first = jb.due(milliseconds(41));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].seq, 0u);
  auto rest = jb.due(milliseconds(70));
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].seq, 1u);
  EXPECT_EQ(rest[1].seq, 2u);
  EXPECT_EQ(jb.underruns(), 0);
}

TEST(JitterBuffer, DiscardsLateSamples) {
  JitterBuffer::Config cfg;
  cfg.adaptive = false;
  cfg.initial_playout_delay = milliseconds(30);
  JitterBuffer jb(cfg);
  JitterBuffer::Sample s;
  s.seq = 0;
  s.source_ts = 0;
  s.arrival = milliseconds(50);  // past its playout time of 30 ms
  EXPECT_FALSE(jb.push(s, s.arrival));
  EXPECT_EQ(jb.late_discards(), 1);
}

TEST(JitterBuffer, AdaptsToJitter) {
  JitterBuffer calm_buf;
  JitterBuffer noisy_buf;
  sim::Rng rng(5);
  for (std::uint32_t i = 0; i < 400; ++i) {
    sim::Time ts = milliseconds(10) * i;
    JitterBuffer::Sample calm{i, ts, ts + milliseconds(20)};
    calm_buf.push(calm, calm.arrival);
    calm_buf.due(calm.arrival);
    sim::Time noise = sim::from_milliseconds(rng.uniform(0.0, 60.0));
    JitterBuffer::Sample noisy{i, ts, ts + milliseconds(20) + noise};
    noisy_buf.push(noisy, noisy.arrival);
    noisy_buf.due(noisy.arrival);
  }
  EXPECT_GT(noisy_buf.interarrival_jitter(), 4 * calm_buf.interarrival_jitter());
  EXPECT_GT(noisy_buf.playout_delay(), calm_buf.playout_delay() + milliseconds(15));
}

TEST(JitterBuffer, CountsUnderrunsForMissingSamples) {
  JitterBuffer::Config cfg;
  cfg.adaptive = false;
  cfg.initial_playout_delay = milliseconds(30);
  JitterBuffer jb(cfg);
  for (std::uint32_t seq : {0u, 1u, 3u}) {  // 2 lost
    JitterBuffer::Sample s{seq, milliseconds(10) * seq, milliseconds(10) * seq + milliseconds(5)};
    ASSERT_TRUE(jb.push(s, s.arrival));
  }
  auto out = jb.due(seconds(1));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(jb.underruns(), 1);
}

TEST(IntermediaSync, AlignsStreamsToSlowest) {
  IntermediaSync sync(2);
  sim::Rng rng(9);
  // Stream 0: stable 15 ms transit; stream 1: jittery 40-90 ms transit.
  for (std::uint32_t i = 0; i < 300; ++i) {
    sim::Time ts = milliseconds(10) * i;
    JitterBuffer::Sample a{i, ts, ts + milliseconds(15)};
    sync.stream(0).push(a, a.arrival);
    sync.stream(0).due(a.arrival);
    JitterBuffer::Sample v{i, ts, ts + sim::from_milliseconds(rng.uniform(40.0, 90.0))};
    sync.stream(1).push(v, v.arrival);
    sync.stream(1).due(v.arrival);
  }
  EXPECT_GT(sync.max_skew(), milliseconds(20));
  EXPECT_GE(sync.sync_playout_delay(), sync.stream(1).playout_delay());
  EXPECT_GE(sync.sync_playout_delay(), sync.stream(0).playout_delay());
}

TEST(DccpLike, DropsStaleInsteadOfQueueing) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 2e6, milliseconds(10), 1000);
  ArtpReceiver rx(net, b, 80);
  int delivered = 0;
  sim::Samples latency_ms;
  rx.set_message_callback([&](const ArtpDelivery& d) {
    if (!d.complete) return;
    ++delivered;
    latency_ms.add(sim::to_milliseconds(d.latency()));
  });
  DatagramCcSocket sock(net, a, 1000, b, 80, 5);
  // Offer 6 Mb/s into a 2 Mb/s pipe.
  for (int i = 0; i < 500; ++i) {
    sim.at(milliseconds(10) * i, [&sock, i] {
      sock.send(7500, static_cast<std::uint32_t>(i));
    });
  }
  sim.run_until(seconds(7));
  EXPECT_GT(sock.dropped_stale(), 100);  // old data was never sent
  ASSERT_GT(delivered, 50);
  // What does arrive is fresh: bounded by the freshness window plus flight
  // time and the controller's ramp.
  EXPECT_LT(latency_ms.percentile(0.9), 150.0);
}

TEST(DccpLike, UsesAvailableCapacityWhenOfferFits) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 10e6, milliseconds(10), 500);
  ArtpReceiver rx(net, b, 80);
  std::int64_t bytes = 0;
  rx.set_message_callback([&](const ArtpDelivery& d) { bytes += d.complete ? d.bytes : 0; });
  DatagramCcSocket sock(net, a, 1000, b, 80, 5);
  for (int i = 0; i < 500; ++i) {
    sim.at(milliseconds(10) * i, [&sock, i] { sock.send(2500, static_cast<std::uint32_t>(i)); });
  }
  sim.run_until(seconds(7));
  EXPECT_GT(bytes, 500 * 2500 * 8 / 10);  // the vast majority got through
}

}  // namespace
}  // namespace arnet::transport

namespace arnet::net {
namespace {

using sim::milliseconds;
using sim::seconds;

/// Value of counter `name` under `entity`, or -1 if it was never created.
std::int64_t counter_value(const obs::MetricsRegistry& reg, const std::string& name,
                           const std::string& entity) {
  const obs::Counter* c = reg.find_counter(name, entity);
  return c ? c->value() : -1;
}

TEST(ObsTap, TracksPerFlowDeliveryAndDelay) {
  sim::Simulator sim;
  Network net(sim, 1);
  auto a = net.add_node("a");
  auto r = net.add_node("r");
  auto b = net.add_node("b");
  net.connect(a, r, 10e6, milliseconds(5), 200);
  net.connect(r, b, 10e6, milliseconds(5), 200);
  obs::MetricsRegistry reg;
  ObsTap tap(net, reg);

  transport::UdpEndpoint src(net, a, 100);
  transport::UdpEndpoint dst(net, b, 200);
  dst.set_handler([](Packet&&) {});
  for (int i = 0; i < 20; ++i) src.send(b, 200, 1000, /*flow=*/7);
  for (int i = 0; i < 10; ++i) src.send(b, 200, 500, /*flow=*/8);
  sim.run();

  // Each packet crosses the router r but is delivered once, at b.
  EXPECT_EQ(counter_value(reg, "net.injected_packets", "net"), 30);
  EXPECT_EQ(counter_value(reg, "net.delivered_packets", "net"), 30);
  EXPECT_EQ(counter_value(reg, "flow.delivered_packets", "flow:7"), 20);
  EXPECT_EQ(counter_value(reg, "flow.delivered_bytes", "flow:7"), 20 * 1028);
  EXPECT_EQ(counter_value(reg, "flow.delivered_packets", "flow:8"), 10);
  const obs::Histogram* delay = reg.find_histogram("flow.delay_ms", "flow:7");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), 20);
  EXPECT_GE(delay->min(), 10.0);  // the two 5 ms propagation delays
  EXPECT_GT(delay->p50(), 10.0);  // ... plus serialization
}

TEST(ObsTap, ThroughputOfBulkTcpFlow) {
  sim::Simulator sim;
  Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.connect(a, b, 10e6, milliseconds(10), 200);
  obs::MetricsRegistry reg;
  ObsTap tap(net, reg);
  transport::TcpSink sink(net, b, 80);
  transport::TcpSource src(net, a, 1000, b, 80, /*flow=*/42);
  src.send_forever();
  sim.run_until(seconds(10));
  const std::int64_t bytes = counter_value(reg, "flow.delivered_bytes", "flow:42");
  EXPECT_GT(bytes * 8.0 / 10.0 / 1e6, 8.0);  // Mb/s over the whole run
  // ACKs ride the same flow id, so the flow's packet count exceeds its
  // data-segment count.
  EXPECT_GT(counter_value(reg, "flow.delivered_packets", "flow:42"), bytes / 1500);
  EXPECT_EQ(counter_value(reg, "net.delivered_bytes", "net"), bytes);
}

}  // namespace
}  // namespace arnet::net
