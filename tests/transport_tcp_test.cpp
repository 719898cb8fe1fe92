#include <gtest/gtest.h>

#include <memory>

#include "arnet/net/loss.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/tcp.hpp"

namespace arnet::transport {
namespace {

using net::Link;
using net::Network;
using net::NodeId;
using sim::milliseconds;
using sim::seconds;

/// Client <-> server through a single duplex bottleneck.
struct Dumbbell {
  sim::Simulator sim;
  Network net{sim, 42};
  NodeId client, server;
  Link* up;    // client -> server
  Link* down;  // server -> client

  Dumbbell(double up_bps, double down_bps, sim::Time delay, std::size_t queue_pkts,
           double up_loss = 0.0) {
    client = net.add_node("client");
    server = net.add_node("server");
    Link::Config cu;
    cu.rate_bps = up_bps;
    cu.delay = delay;
    cu.queue_packets = queue_pkts;
    if (up_loss > 0) cu.loss = std::make_unique<net::BernoulliLoss>(up_loss);
    Link::Config cd;
    cd.rate_bps = down_bps;
    cd.delay = delay;
    cd.queue_packets = queue_pkts;
    auto [l1, l2] = net.connect(client, server, std::move(cu), std::move(cd));
    up = l1;
    down = l2;
  }
};

TEST(Tcp, BulkTransferCompletes) {
  Dumbbell d(10e6, 10e6, milliseconds(10), 100);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  bool done = false;
  src.set_on_complete([&] { done = true; });
  src.send(1'000'000);
  d.sim.run_until(seconds(30));
  EXPECT_TRUE(done);
  EXPECT_TRUE(src.complete());
  EXPECT_EQ(sink.received_bytes(), 1'000'000);
}

TEST(Tcp, ThroughputApproachesLinkRate) {
  Dumbbell d(10e6, 10e6, milliseconds(10), 100);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  src.send_forever();
  d.sim.run_until(seconds(10));
  double mbps = static_cast<double>(sink.received_bytes()) * 8.0 / 10.0 / 1e6;
  EXPECT_GT(mbps, 8.0);
  EXPECT_LE(mbps, 10.0);
}

TEST(Tcp, SlowStartDoublesPerRtt) {
  Dumbbell d(100e6, 100e6, milliseconds(50), 10000);
  TcpSink sink(d.net, d.server, 80);
  obs::MetricsRegistry reg;
  TcpSource::Config cfg;
  cfg.telemetry.metrics = &reg;
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1, cfg);
  src.send_forever();
  // After ~5 RTTs (500 ms) of slow start cwnd should have grown
  // exponentially: 2 -> ~64 segments, far beyond linear growth.
  d.sim.run_until(milliseconds(520));
  EXPECT_GT(src.cwnd_bytes(), 30.0 * 1460);
  const sim::TimeSeries* cwnd = reg.recorder().find("tcp.cwnd", "tcp");
  ASSERT_NE(cwnd, nullptr);
  EXPECT_GT(cwnd->points().back().second, 30.0 * 1460);
}

TEST(Tcp, LossTriggersFastRetransmitNotTimeout) {
  Dumbbell d(10e6, 10e6, milliseconds(10), 1000, /*up_loss=*/0.01);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  src.send_forever();
  d.sim.run_until(seconds(10));
  EXPECT_GT(src.fast_retransmits(), 0);
  // With 1% loss and dupack recovery, timeouts should be rare.
  EXPECT_LT(src.timeouts(), src.fast_retransmits());
  // Transfer still makes solid progress.
  EXPECT_GT(sink.received_bytes(), 2'000'000);
}

TEST(Tcp, SawtoothUnderPeriodicLoss) {
  Dumbbell d(10e6, 10e6, milliseconds(20), 50);
  TcpSink sink(d.net, d.server, 80);
  obs::MetricsRegistry reg;
  TcpSource::Config cfg;
  cfg.telemetry.metrics = &reg;
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1, cfg);
  src.send_forever();
  d.sim.run_until(seconds(20));
  // Queue overflow losses must have produced multiplicative decreases: the
  // cwnd series has at least a few drops of >= 30%.
  const sim::TimeSeries* cwnd = reg.recorder().find("tcp.cwnd", "tcp");
  ASSERT_NE(cwnd, nullptr);
  const auto& pts = cwnd->points();
  int big_drops = 0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].second < 0.7 * pts[i - 1].second) ++big_drops;
  }
  EXPECT_GE(big_drops, 3);
}

TEST(Tcp, RtoFiresAndBacksOffOnBlackout) {
  Dumbbell d(10e6, 10e6, milliseconds(10), 100);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  src.send_forever();
  d.sim.run_until(seconds(2));
  EXPECT_GT(sink.received_bytes(), 0);
  d.up->set_up(false);
  d.sim.run_until(seconds(12));
  EXPECT_GE(src.timeouts(), 2);
  std::int64_t before = sink.received_bytes();
  d.up->set_up(true);
  d.sim.run_until(seconds(25));
  EXPECT_GT(sink.received_bytes(), before);  // recovers after blackout
}

TEST(Tcp, SrttConvergesToPathRtt) {
  Dumbbell d(50e6, 50e6, milliseconds(30), 1000);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  src.send(200'000);
  d.sim.run_until(seconds(5));
  // Path RTT is 60 ms + small serialization; srtt must be in that vicinity.
  EXPECT_GT(src.srtt(), milliseconds(55));
  EXPECT_LT(src.srtt(), milliseconds(90));
}

TEST(Tcp, TwoFlowsShareBottleneckRoughlyFairly) {
  Dumbbell d(10e6, 10e6, milliseconds(20), 60);
  TcpSink sink1(d.net, d.server, 80);
  TcpSink sink2(d.net, d.server, 81);
  TcpSource src1(d.net, d.client, 1000, d.server, 80, 1);
  TcpSource src2(d.net, d.client, 1001, d.server, 81, 2);
  src1.send_forever();
  src2.send_forever();
  d.sim.run_until(seconds(30));
  double r1 = static_cast<double>(sink1.received_bytes());
  double r2 = static_cast<double>(sink2.received_bytes());
  EXPECT_GT(r1 / r2, 0.4);
  EXPECT_LT(r1 / r2, 2.5);
  // Together they should saturate the link.
  EXPECT_GT((r1 + r2) * 8.0 / 30.0 / 1e6, 8.0);
}

TEST(Tcp, ShortTransferWithPartialSegment) {
  Dumbbell d(10e6, 10e6, milliseconds(5), 100);
  TcpSink sink(d.net, d.server, 80);
  TcpSource src(d.net, d.client, 1000, d.server, 80, 1);
  src.send(2000);  // 1 full + 1 partial segment
  d.sim.run_until(seconds(5));
  EXPECT_TRUE(src.complete());
  EXPECT_EQ(sink.received_bytes(), 2000);
}

TEST(Tcp, UploadInflatesDownloadLatency) {
  // Precursor of Fig. 3: an upload filling an oversized uplink buffer delays
  // the download's ACKs and collapses its throughput.
  Dumbbell d(/*up*/ 1e6, /*down*/ 8e6, milliseconds(10), /*oversized*/ 1000);
  // Download: server -> client.
  TcpSink down_sink(d.net, d.client, 80);
  TcpSource down_src(d.net, d.server, 1000, d.client, 80, 1);
  down_src.send_forever();
  d.sim.run_until(seconds(8));
  double solo_mbps = static_cast<double>(down_sink.received_bytes()) * 8.0 / 8.0 / 1e6;

  // Now add an upload sharing the uplink with the download's ACKs.
  TcpSink up_sink(d.net, d.server, 81);
  TcpSource up_src(d.net, d.client, 1001, d.server, 81, 2);
  up_src.send_forever();
  std::int64_t mark = down_sink.received_bytes();
  d.sim.run_until(seconds(28));
  double shared_mbps = static_cast<double>(down_sink.received_bytes() - mark) * 8.0 / 20.0 / 1e6;

  EXPECT_GT(solo_mbps, 6.0);                    // solo download near link rate
  EXPECT_LT(shared_mbps, 0.55 * solo_mbps);     // collapses once upload starts
}

}  // namespace
}  // namespace arnet::transport
