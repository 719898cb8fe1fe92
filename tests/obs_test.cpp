#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "arnet/net/link.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/metrics.hpp"
#include "arnet/obs/recorder.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/wifi.hpp"

namespace arnet {
namespace {

using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------------------- primitives

TEST(ObsCounter, AddAndMerge) {
  obs::Counter a, b;
  a.add();
  a.add(41);
  EXPECT_EQ(a.value(), 42);
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50);
}

TEST(ObsGauge, LatestWinsOnMerge) {
  obs::Gauge a, b;
  EXPECT_FALSE(a.has_value());
  a.set(1.5);
  EXPECT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a.value(), 1.5);
  b.set(7.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value(), 7.0);
  obs::Gauge unset;
  a.merge(unset);  // merging an unset gauge keeps the current value
  EXPECT_DOUBLE_EQ(a.value(), 7.0);
}

TEST(ObsHistogram, ExactForMinMaxMeanCount) {
  obs::Histogram h;
  for (double v : {3.0, 11.0, 250.0, 0.4}) h.record(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.min(), 0.4);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 11.0 + 250.0 + 0.4) / 4.0);
}

TEST(ObsHistogram, PercentilesTrackExactQuantiles) {
  // Log-bucketed at 16 buckets/decade the relative error per bucket is
  // 10^(1/16)-1 ~ 15.5%; allow a bit over that for interpolation effects.
  obs::Histogram h;
  sim::Samples exact;
  sim::Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    double v = rng.exponential(40.0) + rng.uniform(0.1, 2.0);
    h.record(v);
    exact.add(v);
  }
  for (double p : {0.5, 0.9, 0.99}) {
    double want = exact.percentile(p);
    double got = h.percentile(p);
    EXPECT_NEAR(got, want, 0.18 * want) << "p=" << p;
  }
  // Edge percentiles are bucket-interpolated too, but clamp to the exact
  // tracked extremes so they can never leave the observed range.
  EXPECT_GE(h.percentile(0.0), exact.min());
  EXPECT_LE(h.percentile(1.0), exact.max());
  EXPECT_NEAR(h.percentile(1.0), exact.max(), 0.18 * exact.max());
}

TEST(ObsHistogram, MergeEqualsRecordingIntoOne) {
  obs::Histogram a, b, all;
  sim::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    double v = rng.uniform(0.5, 900.0);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

// Property-style cross-shard check: shard a stream of observations, merge
// the shards in two different orders, and require state identical to
// recording the whole stream into one histogram. Integer-valued samples make
// double addition exact, so even `sum` must match bit-for-bit regardless of
// merge order — the invariant behind byte-identical serial/parallel sweeps.
TEST(ObsHistogram, ShardMergeIsOrderIndependentAndExact) {
  constexpr int kShards = 5;
  obs::Histogram shards_a[kShards], shards_b[kShards], all;
  sim::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const double v = static_cast<double>(rng.uniform_int(1, 1 << 20));
    const auto trace = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30));
    shards_a[i % kShards].record(v, trace);
    shards_b[i % kShards].record(v, trace);
    all.record(v, trace);
  }
  obs::Histogram fwd, rev;
  for (int s = 0; s < kShards; ++s) fwd.merge(shards_a[s]);
  for (int s = kShards - 1; s >= 0; --s) rev.merge(shards_b[s]);

  for (const obs::Histogram* m : {&fwd, &rev}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_EQ(m->sum(), all.sum());  // bitwise: integer sums are exact
    EXPECT_EQ(m->min(), all.min());
    EXPECT_EQ(m->max(), all.max());
    EXPECT_EQ(m->nonzero_buckets(), all.nonzero_buckets());
    ASSERT_EQ(m->exemplars().size(), all.exemplars().size());
    auto it = all.exemplars().begin();
    for (const auto& [bucket, ex] : m->exemplars()) {
      EXPECT_EQ(bucket, it->first);
      EXPECT_EQ(ex.trace_id, it->second.trace_id);
      EXPECT_EQ(ex.value, it->second.value);
      ++it;
    }
  }
}

TEST(ObsHistogram, ExemplarKeepsMaxValueTiesToLowerTraceId) {
  obs::Histogram h;
  h.record(10.0, 7);
  h.record(10.5, 9);   // same bucket, larger value: replaces
  h.record(10.2, 3);   // smaller value: ignored
  ASSERT_EQ(h.exemplars().size(), 1u);
  const auto& ex = h.exemplars().begin()->second;
  EXPECT_EQ(ex.trace_id, 9u);
  EXPECT_DOUBLE_EQ(ex.value, 10.5);

  obs::Histogram tie;
  tie.record(10.5, 12);
  obs::Histogram merged_a = h;  // NOLINT: Histogram is copyable state
  merged_a.merge(tie);
  // Equal values tie-break toward the lower trace id, whichever merge side
  // it lives on — the rule that keeps cross-shard merges commutative.
  EXPECT_EQ(merged_a.exemplars().begin()->second.trace_id, 9u);
  obs::Histogram merged_b = tie;
  merged_b.merge(h);
  EXPECT_EQ(merged_b.exemplars().begin()->second.trace_id, 9u);

  obs::Histogram untraced;
  untraced.record(99.0);  // trace 0: never becomes an exemplar
  EXPECT_TRUE(untraced.exemplars().empty());
}

TEST(ObsRegistry, CreateOnTouchAndMergeSemantics) {
  obs::MetricsRegistry a, b;
  a.counter("pkts", "link:0").add(10);
  b.counter("pkts", "link:0").add(5);
  b.counter("pkts", "link:1").add(3);
  a.gauge("util", "link:0").set(0.25);
  b.gauge("util", "link:0").set(0.75);
  a.histogram("delay", "flow:1").record(4.0);
  b.histogram("delay", "flow:1").record(6.0);
  a.recorder().record("rate", "x", seconds(1), 1.0);
  b.recorder().record("rate", "x", seconds(2), 2.0);

  a.merge_from(b);
  EXPECT_EQ(a.find_counter("pkts", "link:0")->value(), 15);
  EXPECT_EQ(a.find_counter("pkts", "link:1")->value(), 3);
  EXPECT_DOUBLE_EQ(a.find_gauge("util", "link:0")->value(), 0.75);
  EXPECT_EQ(a.find_histogram("delay", "flow:1")->count(), 2);
  ASSERT_NE(a.recorder().find("rate", "x"), nullptr);
  EXPECT_EQ(a.recorder().find("rate", "x")->points().size(), 2u);
}

// --------------------------------------------------------------- exporter

TEST(ObsExport, JsonlRoundTripIsLossless) {
  obs::MetricsRegistry reg;
  reg.counter("pkts", "link:\"up\"").add(12345678901LL);  // quote in entity
  reg.gauge("util", "link:0").set(0.123456789012345678);
  auto& h = reg.histogram("delay_ms", "flow:1");
  sim::Rng rng(99);
  for (int i = 0; i < 300; ++i) h.record(rng.exponential(25.0));
  reg.recorder().record("rate", "app:video", milliseconds(1500), 3.25);
  reg.recorder().record("rate", "app:video", milliseconds(2500), 1e-17);

  std::stringstream ss;
  obs::write_jsonl(reg, ss);
  obs::MetricsRegistry back;
  ASSERT_TRUE(obs::read_jsonl(ss, back));

  ASSERT_NE(back.find_counter("pkts", "link:\"up\""), nullptr);
  EXPECT_EQ(back.find_counter("pkts", "link:\"up\"")->value(), 12345678901LL);
  ASSERT_NE(back.find_gauge("util", "link:0"), nullptr);
  EXPECT_DOUBLE_EQ(back.find_gauge("util", "link:0")->value(), 0.123456789012345678);
  const obs::Histogram* hb = back.find_histogram("delay_ms", "flow:1");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count(), h.count());
  EXPECT_DOUBLE_EQ(hb->mean(), h.mean());
  EXPECT_DOUBLE_EQ(hb->min(), h.min());
  EXPECT_DOUBLE_EQ(hb->max(), h.max());
  EXPECT_DOUBLE_EQ(hb->p50(), h.p50());
  EXPECT_DOUBLE_EQ(hb->p90(), h.p90());
  EXPECT_DOUBLE_EQ(hb->p99(), h.p99());
  const sim::TimeSeries* ts = back.recorder().find("rate", "app:video");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points().size(), 2u);
  EXPECT_EQ(ts->points()[0].first, milliseconds(1500));
  EXPECT_DOUBLE_EQ(ts->points()[0].second, 3.25);
  EXPECT_DOUBLE_EQ(ts->points()[1].second, 1e-17);
}

// The v2 schema additions: a meta line announcing the version, the raw
// `sum` field (shortest-round-trip, so it restores bit-exactly — the
// mean*count reconstruction it replaced drifted by ULPs per merge), and
// per-bucket exemplars that survive the round trip.
TEST(ObsExport, V2MetaSumAndExemplarsRoundTrip) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("m2p_ms", "cell:a");
  sim::Rng rng(5);
  for (int i = 0; i < 257; ++i) {
    h.record(rng.exponential(33.0), static_cast<std::uint32_t>(i % 7));
  }
  std::stringstream ss;
  obs::write_jsonl(reg, ss);
  const std::string doc = ss.str();
  EXPECT_EQ(doc.find("{\"kind\":\"meta\",\"schema\":\"arnet-obs-v2\""), 0u);
  EXPECT_NE(doc.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(doc.find("\"sum\""), std::string::npos);

  obs::MetricsRegistry back;
  std::stringstream in(doc);
  ASSERT_TRUE(obs::read_jsonl(in, back));
  const obs::Histogram* hb = back.find_histogram("m2p_ms", "cell:a");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count(), h.count());
  EXPECT_EQ(hb->sum(), h.sum());  // bitwise, not approximate
  EXPECT_EQ(hb->mean(), h.mean());
  ASSERT_EQ(hb->exemplars().size(), h.exemplars().size());
  auto it = h.exemplars().begin();
  for (const auto& [bucket, ex] : hb->exemplars()) {
    EXPECT_EQ(bucket, it->first);
    EXPECT_EQ(ex.trace_id, it->second.trace_id);
    EXPECT_EQ(ex.value, it->second.value);
    ++it;
  }
}

TEST(ObsExport, ReadRejectsMalformedLines) {
  obs::MetricsRegistry reg;
  std::stringstream ss("{\"kind\":\"counter\",\"name\":\"x\"}\n");  // no entity/value
  EXPECT_FALSE(obs::read_jsonl(ss, reg));
  std::stringstream garbage("not json at all\n");
  EXPECT_FALSE(obs::read_jsonl(garbage, reg));
}

// ------------------------------------------------------ subsystem wiring

TEST(ObsWiring, LinkPublishesNetworkBehavior) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto [ab, ba] = net.connect(a, b, 1e6, milliseconds(5), 4);  // tiny queue
  (void)ba;
  obs::MetricsRegistry reg;
  ab->attach({.metrics = &reg}, "link:ab");

  // Burst of 20 one-KB packets into a 4-packet queue: some deliver, some
  // tail-drop.
  for (int i = 0; i < 20; ++i) {
    net::Packet p;
    p.flow = 7;
    p.dst = b;
    p.dst_port = 80;
    p.size_bytes = 1000;
    net.node(a).send(std::move(p));
  }
  sim.run_until(seconds(2));

  // Link-side metrics: delivered and drop counters, sojourn histogram,
  // utilization. Every packet of the burst is either delivered or dropped.
  const obs::Counter* link_pkts = reg.find_counter("link.delivered_packets", "link:ab");
  const obs::Counter* link_drops = reg.find_counter("link.drop.queue", "link:ab");
  ASSERT_NE(link_pkts, nullptr);
  ASSERT_NE(link_drops, nullptr);
  EXPECT_GT(link_pkts->value(), 0);
  EXPECT_GT(link_drops->value(), 0);
  EXPECT_EQ(link_pkts->value() + link_drops->value(), 20);
  const obs::Histogram* sojourn = reg.find_histogram("queue.sojourn_ms", "link:ab");
  ASSERT_NE(sojourn, nullptr);
  EXPECT_GT(sojourn->count(), 0);
  const obs::Gauge* util = reg.find_gauge("link.utilization", "link:ab");
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->value(), 0.0);
  EXPECT_LE(util->value(), 1.0);
}

TEST(ObsWiring, TcpPublishesCwndSeriesAndRttHistogram) {
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 10e6, milliseconds(10), 100);
  obs::MetricsRegistry reg;
  transport::TcpSink sink(net, s, 80);
  transport::TcpSource::Config cfg;
  cfg.telemetry.metrics = &reg;
  cfg.entity = "tcp:1";
  transport::TcpSource src(net, c, 1000, s, 80, 1, cfg);
  src.send(200'000);
  sim.run_until(seconds(10));
  ASSERT_TRUE(src.complete());

  const sim::TimeSeries* cwnd = reg.recorder().find("tcp.cwnd", "tcp:1");
  ASSERT_NE(cwnd, nullptr);
  EXPECT_GT(cwnd->points().size(), 2u);
  const obs::Histogram* rtt = reg.find_histogram("tcp.rtt_ms", "tcp:1");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count(), 0);
  EXPECT_GE(rtt->min(), 20.0);  // 2 x 10 ms propagation
}

TEST(ObsWiring, WifiCellPublishesAirtimeShares) {
  sim::Simulator sim;
  wireless::WifiCell cell(sim, sim::Rng(1), wireless::WifiCell::Config{});
  obs::MetricsRegistry reg;
  cell.attach({.metrics = &reg}, "cell0");
  auto fast = cell.add_station(54e6, "fast");
  auto slow = cell.add_station(1e6, "slow");
  // Keep both stations backlogged for a simulated second.
  for (int i = 0; i < 200; ++i) {
    net::Packet p;
    p.size_bytes = 1500;
    cell.send(fast, wireless::WifiCell::kApId, std::move(p));
    net::Packet q;
    q.size_bytes = 1500;
    cell.send(slow, wireless::WifiCell::kApId, std::move(q));
  }
  sim.run_until(seconds(1));

  std::string fast_label = "cell0/fast:" + std::to_string(fast);
  std::string slow_label = "cell0/slow:" + std::to_string(slow);
  const obs::Gauge* fast_share = reg.find_gauge("wifi.airtime_share", fast_label);
  const obs::Gauge* slow_share = reg.find_gauge("wifi.airtime_share", slow_label);
  ASSERT_NE(fast_share, nullptr);
  ASSERT_NE(slow_share, nullptr);
  // DCF grants equal opportunities, so the slow station (longer frames)
  // burns far more airtime — the Fig. 2 anomaly, visible in the gauges.
  EXPECT_GT(slow_share->value(), fast_share->value());
  // Shares are published at each entity's last frame completion, so their
  // sum can overshoot 1 by one frame's worth of skew, never much more.
  EXPECT_LE(slow_share->value() + fast_share->value(), 1.05);
  EXPECT_DOUBLE_EQ(reg.find_gauge("wifi.sta_rate_bps", slow_label)->value(), 1e6);
  EXPECT_GT(reg.find_counter("wifi.delivered_packets",
                             "cell0/ap:" + std::to_string(wireless::WifiCell::kApId))
                ->value(),
            0);
}

}  // namespace
}  // namespace arnet
