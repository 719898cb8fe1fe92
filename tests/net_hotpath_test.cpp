// Equivalence tests for the link/network hot path (packet arena + batched
// transmit events). The contract, pinned here with TraceRecorder
// fingerprints:
//
//   - TxPath::kArena reproduces the committed goldens *event for event*:
//     same simulator event times, seqs, and packet life cycle — the
//     sim-level fingerprint (network + simulator attach) is byte-identical.
//   - TxPath::kArenaBatched reproduces the same goldens at the *packet
//     level* (inject/deliver/drop times, uids, reasons — network attach)
//     while necessarily executing fewer simulator events. This holds through
//     tail drops, mid-flight rate/delay modulation, and link flaps.
//   - Batching self-disables (falling back to kArena, which is exact) for
//     AQM queues and loss models, so those configurations stay identical
//     even at the simulator level.
//   - Every run conserves packets: injected = delivered + dropped + in flight.
//
// The goldens were recorded from the two-events-per-packet reference path
// that kArena was first proven equal to, before that path was removed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/check/conservation.hpp"
#include "arnet/check/determinism.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/packet_arena.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"

namespace {

using namespace arnet;
using net::Link;

struct Fp {
  std::uint64_t fingerprint;
  std::uint64_t records;
};

/// Committed fingerprints of one scenario: `sim` with the recorder on the
/// network and the simulator, `pkt` with the recorder on the network only.
struct Golden {
  Fp sim;
  Fp pkt;
};

struct RunResult {
  Fp fp;
  std::uint64_t events;  ///< simulator events executed
  std::int64_t link_down_drops;
};

/// Build-and-run harness: `scenario` receives the network, the configured
/// duplex pair, and the simulator; the recorder observes the network always
/// and the simulator only in `sim_level` mode. A conservation auditor
/// watches every run; `tracer`, when given, is attached to both links.
using Scenario = std::function<void(sim::Simulator&, net::Network&, Link*, Link*)>;

RunResult run_scenario(const Scenario& scenario, Link::Config base_ab, Link::Config base_ba,
                       Link::TxPath path, bool sim_level, trace::Tracer* tracer = nullptr) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  sim::Simulator sim;
  net::Network net(sim, 7);
  check::TraceRecorder trace;
  trace.attach(net);
  if (sim_level) trace.attach(sim);
  check::ConservationAuditor audit(net);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  base_ab.tx_path = path;
  base_ba.tx_path = path;
  auto [ab, ba] = net.connect(a, b, std::move(base_ab), std::move(base_ba));
  if (tracer != nullptr) net.attach_trace(*tracer);
  scenario(sim, net, ab, ba);
  audit.checkpoint();
  return {{trace.fingerprint(), trace.records()},
          sim.events_executed(),
          audit.drops_for(net::DropReason::kLinkDown)};
}

Link::Config plain_cfg(double rate_bps, sim::Time delay, std::size_t queue_packets) {
  Link::Config cfg;
  cfg.rate_bps = rate_bps;
  cfg.delay = delay;
  cfg.queue_packets = queue_packets;
  return cfg;
}

/// Assert both paths reproduce the goldens: kArena at the simulator and
/// packet level, batched at the packet level.
void expect_equivalent(const char* label, const Scenario& scenario,
                       const std::function<Link::Config()>& make_ab,
                       const std::function<Link::Config()>& make_ba, const Golden& golden,
                       bool batched_sim_identical = false) {
  const Fp arena_sim =
      run_scenario(scenario, make_ab(), make_ba(), Link::TxPath::kArena, true).fp;
  EXPECT_EQ(golden.sim.fingerprint, arena_sim.fingerprint) << label << " (arena, sim-level)";
  EXPECT_EQ(golden.sim.records, arena_sim.records) << label << " (arena, sim-level)";

  for (const Link::TxPath path : {Link::TxPath::kArena, Link::TxPath::kArenaBatched}) {
    const Fp pkt = run_scenario(scenario, make_ab(), make_ba(), path, false).fp;
    const char* name = path == Link::TxPath::kArena ? "arena" : "batched";
    EXPECT_EQ(golden.pkt.fingerprint, pkt.fingerprint) << label << " (" << name << ", packet-level)";
    EXPECT_EQ(golden.pkt.records, pkt.records) << label << " (" << name << ", packet-level)";
  }

  if (batched_sim_identical) {
    // Configurations where batching must fall back to the exact kArena path.
    const Fp batched_sim =
        run_scenario(scenario, make_ab(), make_ba(), Link::TxPath::kArenaBatched, true).fp;
    EXPECT_EQ(golden.sim.fingerprint, batched_sim.fingerprint) << label << " (batched, sim-level)";
  }
}

// ------------------------------------------------------------- scenarios

void tcp_bulk(sim::Simulator& sim, net::Network& net, Link*, Link*) {
  transport::TcpSink sink(net, 1, 80);
  transport::TcpSource src(net, 0, 1000, 1, 80, 1);
  src.send(400'000);
  sim.run_until(sim::seconds(20));
  (void)sink;
}

void artp_stream(sim::Simulator& sim, net::Network& net, Link*, Link*) {
  transport::ArtpReceiver rx(net, 1, 80);
  transport::ArtpSender tx(net, 0, 1000, 1, 80, 1, transport::ArtpSenderConfig{});
  for (int i = 0; i < 60; ++i) {
    sim.at(sim::from_seconds(i / 30.0), [&tx] {
      transport::ArtpMessageSpec m;
      m.bytes = 14'400;
      m.tclass = net::TrafficClass::kBestEffortLossRecovery;
      m.priority = net::Priority::kMediumNoDrop;
      tx.send_message(m);
    });
  }
  sim.run_until(sim::seconds(4));
  (void)rx;
}

void tcp_with_rate_modulation(sim::Simulator& sim, net::Network& net, Link* ab, Link* ba) {
  transport::TcpSink sink(net, 1, 80);
  transport::TcpSource src(net, 0, 1000, 1, 80, 1);
  src.send(400'000);
  // Kick the rate up and down mid-transfer, including while a transmit plan
  // is in flight, to force the batched path through its unwind logic.
  for (int i = 1; i <= 40; ++i) {
    sim.at(sim::milliseconds(37 * i), [ab, ba, i] {
      const double r = (i % 3 == 0) ? 4e6 : (i % 3 == 1) ? 10e6 : 7e6;
      ab->set_rate(r);
      ba->set_rate(r / 2);
    });
  }
  sim.run_until(sim::seconds(20));
  (void)sink;
}

void tcp_with_delay_modulation(sim::Simulator& sim, net::Network& net, Link* ab, Link* ba) {
  transport::TcpSink sink(net, 1, 80);
  transport::TcpSource src(net, 0, 1000, 1, 80, 1);
  src.send(300'000);
  for (int i = 1; i <= 30; ++i) {
    sim.at(sim::milliseconds(53 * i), [ab, ba, i] {
      // Both directions: grow and shrink, so the FIFO no-overtake guard and
      // the serializing-packet re-time both trigger.
      ab->set_delay(sim::milliseconds(i % 4 == 0 ? 2 : 12));
      ba->set_delay(sim::milliseconds(i % 2 == 0 ? 1 : 9));
    });
  }
  sim.run_until(sim::seconds(20));
  (void)sink;
}

void tcp_with_link_flaps(sim::Simulator& sim, net::Network& net, Link* ab, Link* ba) {
  transport::TcpSink sink(net, 1, 80);
  transport::TcpSource src(net, 0, 1000, 1, 80, 1);
  src.send(300'000);
  for (int i = 1; i <= 6; ++i) {
    sim.at(sim::milliseconds(400 * i), [ab] { ab->set_up(false); });
    sim.at(sim::milliseconds(400 * i + 130), [ab] { ab->set_up(true); });
    if (i % 2 == 0) {
      sim.at(sim::milliseconds(400 * i + 50), [ba] { ba->set_up(false); });
      sim.at(sim::milliseconds(400 * i + 90), [ba] { ba->set_up(true); });
    }
  }
  sim.run_until(sim::seconds(10));
  (void)sink;
}

// ------------------------------------------------------------------ tests

TEST(HotPathEquivalence, TcpBulkWithTailDrops) {
  // Queue of 10 on a slow uplink: steady tail drops and retransmissions.
  expect_equivalent(
      "tcp-bulk", tcp_bulk, [] { return plain_cfg(5e6, sim::milliseconds(10), 10); },
      [] { return plain_cfg(5e6, sim::milliseconds(10), 100); },
      {{0x61db07d094ef32efull, 2234}, {0xb682bb0f6f4f9bf8ull, 1138}});
}

TEST(HotPathEquivalence, ArtpFeatureStream) {
  expect_equivalent(
      "artp", artp_stream, [] { return plain_cfg(20e6, sim::milliseconds(10), 300); },
      [] { return plain_cfg(20e6, sim::milliseconds(10), 300); },
      {{0x4894b4477f8a3cc5ull, 4460}, {0x0a10b18f9b4dba81ull, 1720}});
}

TEST(HotPathEquivalence, RateModulationMidBatch) {
  expect_equivalent(
      "rate-mod", tcp_with_rate_modulation,
      [] { return plain_cfg(10e6, sim::milliseconds(8), 50); },
      [] { return plain_cfg(10e6, sim::milliseconds(8), 50); },
      {{0x3cf5a2ac0094b0b7ull, 2248}, {0x1a557412361e2c8dull, 1112}});
}

TEST(HotPathEquivalence, DelayModulationMidBatch) {
  expect_equivalent(
      "delay-mod", tcp_with_delay_modulation,
      [] { return plain_cfg(10e6, sim::milliseconds(8), 50); },
      [] { return plain_cfg(10e6, sim::milliseconds(8), 50); },
      {{0x9c1c861299c44206ull, 1684}, {0x23285c06c88b0215ull, 830}});
}

TEST(HotPathEquivalence, LinkFlapsDropBatchedPlans) {
  expect_equivalent(
      "flap", tcp_with_link_flaps, [] { return plain_cfg(8e6, sim::milliseconds(6), 40); },
      [] { return plain_cfg(8e6, sim::milliseconds(6), 40); },
      {{0xbdede911ddbf3bf0ull, 1699}, {0x156c16c624dc675dull, 856}});
}

TEST(HotPathEquivalence, LinkFlapsUnderLoadMatchArena) {
  // The golden flap scenario's transfer is over before most flaps. Here a
  // never-ending transfer keeps both directions busy, so flaps kill queued,
  // planned, serializing and propagating packets; kArena is the reference.
  Scenario flaps = [](sim::Simulator& sim, net::Network& net, Link* ab, Link* ba) {
    transport::TcpSink sink(net, 1, 80);
    transport::TcpSource src(net, 0, 1000, 1, 80, 1);
    src.send_forever();
    transport::ArtpReceiver rx(net, 1, 81);
    transport::ArtpSender tx(net, 0, 1001, 1, 81, 2, transport::ArtpSenderConfig{});
    for (int i = 0; i < 120; ++i) {
      sim.at(sim::from_seconds(i / 30.0), [&tx] {
        transport::ArtpMessageSpec m;
        m.bytes = 14'400;
        m.tclass = net::TrafficClass::kBestEffortLossRecovery;
        m.priority = net::Priority::kMediumNoDrop;
        tx.send_message(m);
      });
    }
    // Flap times are offset so none lands exactly on a serialization
    // boundary: at such a tie the two paths may order the change
    // differently (see DESIGN §13).
    for (int i = 1; i <= 40; ++i) {
      const sim::Time t = sim::milliseconds(97 * i) + 1'234 * i;
      sim.at(t, [ab] { ab->set_up(false); });
      sim.at(t + sim::milliseconds(3), [ab] { ab->set_up(true); });
      if (i % 3 == 0) {
        sim.at(t + sim::milliseconds(41), [ba] { ba->set_up(false); });
        sim.at(t + sim::milliseconds(43), [ba] { ba->set_up(true); });
      }
    }
    sim.run_until(sim::seconds(4));
  };
  auto make = [] { return plain_cfg(8e6, sim::milliseconds(6), 40); };
  const RunResult arena = run_scenario(flaps, make(), make(), Link::TxPath::kArena, false);
  const RunResult batched =
      run_scenario(flaps, make(), make(), Link::TxPath::kArenaBatched, false);
  EXPECT_EQ(arena.fp.fingerprint, batched.fp.fingerprint);
  EXPECT_EQ(arena.fp.records, batched.fp.records);
  EXPECT_LT(batched.events, arena.events);
  EXPECT_GT(arena.link_down_drops, 100);
}

TEST(HotPathEquivalence, CoDelQueueFallsBackToExactPath) {
  auto make = [] {
    Link::Config cfg;
    cfg.rate_bps = 4e6;
    cfg.delay = sim::milliseconds(10);
    cfg.queue = std::make_unique<net::CoDelQueue>();
    return cfg;
  };
  // AQM is time-dependent: batching must not engage, so even the sim-level
  // fingerprint matches the golden.
  expect_equivalent("codel", tcp_bulk, make, make,
                    {{0x9e01507c581d2957ull, 2208}, {0x7f86f7073f39690dull, 1112}},
                    /*batched_sim_identical=*/true);
}

TEST(HotPathEquivalence, LossModelFallsBackToExactPath) {
  auto make = [] {
    Link::Config cfg;
    cfg.rate_bps = 8e6;
    cfg.delay = sim::milliseconds(10);
    cfg.queue_packets = 60;
    cfg.loss = std::make_unique<net::BernoulliLoss>(0.02);
    return cfg;
  };
  // The loss roll consumes the link's RNG per tx-complete; batching would
  // perturb draw order, so it must not engage on either lossy direction —
  // which makes even the sim-level stream identical to the golden.
  expect_equivalent("loss", tcp_bulk, make, make,
                    {{0x015e04be50d5dde3ull, 2217}, {0x91e75b0f8e54a594ull, 1114}},
                    /*batched_sim_identical=*/true);
}

/// Collects every trace event a sink-only tracer forwards, keyed so runs can
/// be compared regardless of ring order.
class EventLog final : public trace::TraceSink {
 public:
  using Key = std::tuple<sim::Time, std::uint64_t, trace::EventKind, trace::EntityId>;
  void on_event(const trace::TraceEvent& e) override {
    events.emplace_back(e.time, e.uid, e.kind, e.entity);
  }
  std::vector<Key> sorted() const {
    std::vector<Key> out = events;
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<Key> events;
};

TEST(HotPathEquivalence, TracerLeavesBatchingEngaged) {
  // An attached tracer does not disable batching: the batched path records
  // kTxStart with the packet's logical serialization start (from its arrival
  // event, so in a different ring order), and the event set matches kArena.
  struct Case {
    const char* label;
    Scenario scenario;
    Link::Config (*make_ab)();
    Link::Config (*make_ba)();
  };
  const Case cases[] = {
      {"tcp-bulk", tcp_bulk, [] { return plain_cfg(5e6, sim::milliseconds(10), 10); },
       [] { return plain_cfg(5e6, sim::milliseconds(10), 100); }},
      {"rate-mod", tcp_with_rate_modulation,
       [] { return plain_cfg(10e6, sim::milliseconds(8), 50); },
       [] { return plain_cfg(10e6, sim::milliseconds(8), 50); }},
  };
  for (const Case& c : cases) {
    auto traced = [&c](Link::TxPath path, EventLog& log) {
      trace::Tracer tracer;
      tracer.set_sink(&log);
      tracer.set_sink_only(true);
      return run_scenario(c.scenario, c.make_ab(), c.make_ba(), path, false, &tracer);
    };
    EventLog arena_log;
    EventLog batched_log;
    const RunResult arena = traced(Link::TxPath::kArena, arena_log);
    const RunResult batched = traced(Link::TxPath::kArenaBatched, batched_log);
    EXPECT_LT(batched.events, arena.events) << c.label << ": batching did not engage";
    EXPECT_EQ(arena.fp.fingerprint, batched.fp.fingerprint) << c.label;
    EXPECT_GT(arena_log.events.size(), 1000u) << c.label;
    EXPECT_EQ(arena_log.sorted(), batched_log.sorted()) << c.label;
  }
}

TEST(HotPathEquivalence, DeterministicUnderBatching) {
  // The batched default still satisfies the determinism harness: two runs of
  // the same seed produce identical packet and simulator traces.
  auto report = check::DeterminismHarness::run_twice(
      [](std::uint64_t seed, check::TraceRecorder& trace) {
        sim::Simulator sim;
        net::Network net(sim, seed);
        trace.attach(net);
        trace.attach(sim);
        auto a = net.add_node("a");
        auto b = net.add_node("b");
        net.connect(a, b, 10e6, sim::milliseconds(10), 20);
        transport::TcpSink sink(net, b, 80);
        transport::TcpSource src(net, a, 1000, b, 80, 1);
        src.send(200'000);
        sim.run_until(sim::seconds(10));
      },
      42);
  EXPECT_TRUE(report.deterministic());
}

// -------------------------------------------------------------- unit level

TEST(PacketArena, SlotsRecycleLifoWithStableAddresses) {
  net::PacketArena arena;
  net::Packet p;
  p.size_bytes = 100;
  p.uid = 1;
  const std::uint32_t s0 = arena.acquire(std::move(p));
  net::Packet q;
  q.size_bytes = 200;
  q.uid = 2;
  const std::uint32_t s1 = arena.acquire(std::move(q));
  EXPECT_NE(s0, s1);
  EXPECT_EQ(arena.in_flight(), 2u);
  const net::Packet* addr0 = &arena.at(s0);

  // Growth must not move parked packets (deque-backed slab).
  for (int i = 0; i < 1000; ++i) {
    net::Packet f;
    f.uid = 100 + static_cast<std::uint64_t>(i);
    arena.acquire(std::move(f));
  }
  EXPECT_EQ(&arena.at(s0), addr0);
  EXPECT_EQ(arena.at(s0).uid, 1u);

  // take() frees the slot; the next acquire reuses it (LIFO).
  net::Packet out = arena.take(s1);
  EXPECT_EQ(out.uid, 2u);
  net::Packet r;
  r.uid = 3;
  EXPECT_EQ(arena.acquire(std::move(r)), s1);
  EXPECT_EQ(arena.at(s1).uid, 3u);

  // release() frees without moving the payload out.
  arena.release(s1);
  net::Packet r2;
  r2.uid = 4;
  EXPECT_EQ(arena.acquire(std::move(r2)), s1);
}

TEST(PacketArena, BatchedLinkObeysQueueCapacityExactly) {
  // A batch claims queued packets ahead of time; the occupancy supplement
  // must keep the *effective* buffer identical to the un-batched link, so a
  // burst larger than the queue drops exactly the same packets.
  auto run = [](Link::TxPath path) {
    sim::Simulator sim;
    net::Network net(sim, 3);
    auto a = net.add_node("a");
    auto b = net.add_node("b");
    Link::Config ab = plain_cfg(1e6, sim::milliseconds(5), 4);
    ab.tx_path = path;
    Link::Config ba = plain_cfg(1e6, sim::milliseconds(5), 4);
    ba.tx_path = path;
    check::ConservationAuditor audit(net);
    auto [link, rev] = net.connect(a, b, std::move(ab), std::move(ba));
    (void)rev;
    std::int64_t delivered = 0;
    net.node(b).bind(9, [&delivered](net::Packet&&) { ++delivered; });
    // Burst of 12 into a 4-packet queue, then a second burst mid-drain.
    auto burst = [&net, a, b](int n, std::uint64_t base) {
      for (int i = 0; i < n; ++i) {
        net::Packet p;
        p.src = a;
        p.dst = b;
        p.dst_port = 9;
        p.size_bytes = 1000;
        p.uid = base + static_cast<std::uint64_t>(i);
        net.send(std::move(p));
      }
    };
    burst(12, 1);
    sim.at(sim::milliseconds(20), [&burst] { burst(12, 100); });
    sim.run();
    audit.expect_drained();
    // Tail drops are accounted by the discipline, not lost_packets() (that
    // counts loss-model and link-down kills).
    return std::pair<std::int64_t, std::int64_t>(delivered, link->queue().drops());
  };
  // Golden (delivered, tail drops); the scenario must actually overflow.
  const std::pair<std::int64_t, std::int64_t> golden{7, 17};
  EXPECT_EQ(run(Link::TxPath::kArena), golden);
  EXPECT_EQ(run(Link::TxPath::kArenaBatched), golden);
}

TEST(PacketArena, BatchedLinkMetricsMatchLegacy) {
  auto run = [](Link::TxPath path) {
    sim::Simulator sim;
    net::Network net(sim, 3);
    auto a = net.add_node("a");
    auto b = net.add_node("b");
    Link::Config ab = plain_cfg(2e6, sim::milliseconds(5), 64);
    ab.tx_path = path;
    Link::Config ba = plain_cfg(2e6, sim::milliseconds(5), 64);
    ba.tx_path = path;
    check::ConservationAuditor audit(net);
    auto [link, rev] = net.connect(a, b, std::move(ab), std::move(ba));
    (void)rev;
    obs::MetricsRegistry reg;
    link->attach({.metrics = &reg}, "link:ab");
    for (int i = 0; i < 40; ++i) {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.dst_port = 9;
      p.size_bytes = 1200;
      net.send(std::move(p));
    }
    sim.run();
    audit.expect_drained();
    const obs::Histogram& sojourn = reg.histogram("queue.sojourn_ms", "link:ab");
    EXPECT_EQ(link->delivered_bytes(), 48'000) << static_cast<int>(path);
    EXPECT_EQ(link->delivered_packets(), 40) << static_cast<int>(path);
    EXPECT_EQ(sojourn.count(), 40) << static_cast<int>(path);
    // Golden sojourn total: 40 back-to-back 4.8 ms serializations queue for
    // 0 + 4.8 + ... + 187.2 ms = 3744 ms, a mean of 93.6 ms.
    EXPECT_DOUBLE_EQ(sojourn.sum(), 3744.0) << static_cast<int>(path);
    EXPECT_DOUBLE_EQ(sojourn.mean(), 93.6) << static_cast<int>(path);
  };
  run(Link::TxPath::kArena);
  run(Link::TxPath::kArenaBatched);
}

}  // namespace
