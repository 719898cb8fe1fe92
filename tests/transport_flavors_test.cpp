// Tests for the TCP congestion-control flavors (Reno/NewReno/CUBIC/BBR)
// — the protocol landscape the paper surveys in §V.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/tcp.hpp"

namespace arnet::transport {
namespace {

using net::Network;
using net::NodeId;
using sim::milliseconds;
using sim::seconds;

struct Pipe {
  sim::Simulator sim;
  Network net{sim, 42};
  NodeId a, b;
  net::Link* up;

  Pipe(double bps, sim::Time delay, std::size_t queue) {
    a = net.add_node("a");
    b = net.add_node("b");
    auto [l, r] = net.connect(a, b, bps, delay, queue);
    up = l;
    (void)r;
  }
};

double run_flavor_mbps(TcpFlavor flavor, double bps, sim::Time delay, std::size_t queue,
                       sim::Time dur) {
  Pipe p(bps, delay, queue);
  TcpSink sink(p.net, p.b, 80);
  TcpSource::Config cfg;
  cfg.flavor = flavor;
  TcpSource src(p.net, p.a, 1000, p.b, 80, 1, cfg);
  src.send_forever();
  p.sim.run_until(dur);
  return sink.received_bytes() * 8.0 / sim::to_seconds(dur) / 1e6;
}

TEST(TcpFlavors, AllFlavorsCompleteTransfers) {
  for (auto f : {TcpFlavor::kReno, TcpFlavor::kNewReno, TcpFlavor::kCubic}) {
    Pipe p(10e6, milliseconds(10), 100);
    TcpSink sink(p.net, p.b, 80);
    TcpSource::Config cfg;
    cfg.flavor = f;
    TcpSource src(p.net, p.a, 1000, p.b, 80, 1, cfg);
    bool done = false;
    src.set_on_complete([&] { done = true; });
    src.send(500'000);
    p.sim.run_until(seconds(20));
    EXPECT_TRUE(done) << to_string(f);
    EXPECT_EQ(sink.received_bytes(), 500'000) << to_string(f);
  }
}

TEST(TcpFlavors, CubicOutgrowsRenoOnLongFatPipe) {
  // 100 Mb/s x 80 ms: Reno's 1 MSS/RTT crawl leaves capacity unused in a
  // 30 s window; CUBIC's polynomial probing recovers much faster.
  double reno = run_flavor_mbps(TcpFlavor::kNewReno, 100e6, milliseconds(40), 400, seconds(30));
  double cubic = run_flavor_mbps(TcpFlavor::kCubic, 100e6, milliseconds(40), 400, seconds(30));
  EXPECT_GT(cubic, reno * 1.2);
  EXPECT_LE(cubic, 100.0);
}

TEST(TcpFlavors, BbrCompletesTransferAndReachesProbeBw) {
  Pipe p(10e6, milliseconds(20), 100);
  TcpSink sink(p.net, p.b, 80);
  TcpSource::Config cfg;
  cfg.flavor = TcpFlavor::kBbr;
  cfg.sack = true;
  TcpSource src(p.net, p.a, 1000, p.b, 80, 1, cfg);
  src.send_forever();
  p.sim.run_until(seconds(5));

  // Startup -> Drain -> ProbeBW well before 5 s (ProbeRTT first fires at
  // 10 s), with a model close to the true path: 10 Mb/s bottleneck, 40 ms
  // propagation RTT.
  EXPECT_EQ(src.bbr_state(), BbrState::kProbeBw) << to_string(src.bbr_state());
  EXPECT_GT(src.bbr_bandwidth_bps(), 6e6);
  EXPECT_LT(src.bbr_bandwidth_bps(), 14e6);
  EXPECT_GE(src.bbr_min_rtt(), milliseconds(40));
  EXPECT_LT(src.bbr_min_rtt(), milliseconds(60));
  EXPECT_GT(sink.received_bytes() * 8.0 / 5.0 / 1e6, 6.0);  // uses the link
}

TEST(TcpFlavors, BbrProbeRttFloorsCwnd) {
  Pipe p(10e6, milliseconds(20), 100);
  TcpSink sink(p.net, p.b, 80);
  TcpSource::Config cfg;
  cfg.flavor = TcpFlavor::kBbr;
  cfg.sack = true;
  TcpSource src(p.net, p.a, 1000, p.b, 80, 1, cfg);
  src.send_forever();

  // Sample the state machine every 50 ms: ProbeRTT must occur (the 10 s
  // min-RTT filter expires) and while it holds, cwnd must sit at the 4-MSS
  // floor so the queue actually drains.
  bool saw_probe_rtt = false;
  double max_cwnd_in_probe_rtt = 0.0;
  for (int i = 0; i < 25 * 20; ++i) {
    p.sim.at(milliseconds(50) * i, [&] {
      if (src.bbr_state() == BbrState::kProbeRtt) {
        saw_probe_rtt = true;
        max_cwnd_in_probe_rtt = std::max(max_cwnd_in_probe_rtt, src.cwnd_bytes());
      }
    });
  }
  p.sim.run_until(seconds(25));
  EXPECT_TRUE(saw_probe_rtt);
  EXPECT_LE(max_cwnd_in_probe_rtt, 4.0 * 1460 + 1.0);
  // ...and it comes back: still moving traffic afterwards.
  EXPECT_EQ(src.bbr_state(), BbrState::kProbeBw) << to_string(src.bbr_state());
  EXPECT_GT(sink.received_bytes() * 8.0 / 25.0 / 1e6, 6.0);
}

TEST(TcpFlavors, BbrKeepsQueueShorterThanRenoOnDeepBuffer) {
  // The bufferbloat contrast: on a deep buffer, loss-based Reno fills the
  // queue; BBR's model holds cwnd near one BDP so srtt stays near the
  // propagation RTT.
  Pipe preno(10e6, milliseconds(20), 500);
  TcpSink sink_r(preno.net, preno.b, 80);
  TcpSource::Config rcfg;
  rcfg.flavor = TcpFlavor::kNewReno;
  TcpSource reno(preno.net, preno.a, 1000, preno.b, 80, 1, rcfg);
  reno.send_forever();
  preno.sim.run_until(seconds(20));

  Pipe pbbr(10e6, milliseconds(20), 500);
  TcpSink sink_b(pbbr.net, pbbr.b, 80);
  TcpSource::Config bcfg;
  bcfg.flavor = TcpFlavor::kBbr;
  bcfg.sack = true;
  TcpSource bbr(pbbr.net, pbbr.a, 1000, pbbr.b, 80, 1, bcfg);
  bbr.send_forever();
  pbbr.sim.run_until(seconds(20));

  EXPECT_GT(reno.srtt(), milliseconds(100));  // bufferbloat
  EXPECT_LT(bbr.srtt(), milliseconds(80));    // ~<=1 BDP standing
  // BBR pays little throughput for the short queue.
  EXPECT_GT(sink_b.received_bytes() * 8.0 / 20 / 1e6, 7.0);
}

TEST(TcpFlavors, BbrSurvivesRandomLossBetterThanReno) {
  // Non-congestive loss does not collapse BBR's model (loss is not a window
  // signal); Reno halves on every loss event and starves.
  auto run_with_loss = [](TcpFlavor flavor) {
    sim::Simulator sim;
    Network net(sim, 42);
    auto a = net.add_node("a");
    auto b = net.add_node("b");
    net::Link::Config up;
    up.rate_bps = 10e6;
    up.delay = milliseconds(20);
    up.queue_packets = 200;
    up.loss = std::make_unique<net::BernoulliLoss>(0.01);
    net::Link::Config down;
    down.rate_bps = 10e6;
    down.delay = milliseconds(20);
    down.queue_packets = 200;
    net.connect(a, b, std::move(up), std::move(down));
    TcpSink sink(net, b, 80);
    TcpSource::Config cfg;
    cfg.flavor = flavor;
    cfg.sack = true;
    TcpSource src(net, a, 1000, b, 80, 1, cfg);
    src.send_forever();
    sim.run_until(seconds(20));
    return sink.received_bytes() * 8.0 / 20 / 1e6;
  };
  double reno = run_with_loss(TcpFlavor::kNewReno);
  double bbr = run_with_loss(TcpFlavor::kBbr);
  EXPECT_GT(bbr, 1.5 * reno);
}

}  // namespace
}  // namespace arnet::transport
