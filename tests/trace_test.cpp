// Causal-tracing subsystem tests: ring accounting, cross-layer context
// propagation, exporter well-formedness (Perfetto JSON, pcap-ng, flight
// JSONL), the crash flight recorder, drop-reason attribution, the sim-time
// profiler, and the fingerprint contract (tracing must not perturb runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/check/determinism.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/export.hpp"
#include "arnet/trace/flight.hpp"
#include "arnet/trace/pcap.hpp"
#include "arnet/trace/profiler.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/wifi.hpp"

namespace arnet {
namespace {

using net::Link;
using net::Network;
using net::NodeId;
using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------------------------- rings

TEST(TraceRing, WrapsOverwritingOldestAndAccountsOverflow) {
  trace::Ring<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.overflowed(), 6u);
  std::vector<int> seen;
  ring.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{6, 7, 8, 9}));  // oldest -> newest
}

TEST(TraceRing, PartialFillKeepsInsertionOrder) {
  trace::Ring<int> ring(8);
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.overflowed(), 0u);
  std::vector<int> seen;
  ring.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(TraceRing, TracerTotalsAggregateAcrossEntities) {
  trace::Tracer::Config cfg;
  cfg.ring_capacity = 2;
  trace::Tracer tracer(cfg);
  auto a = tracer.register_entity("a");
  auto b = tracer.register_entity("b");
  trace::TraceEvent e;
  for (int i = 0; i < 5; ++i) tracer.record(a, e);
  tracer.record(b, e);
  EXPECT_EQ(tracer.total_recorded(), 6u);
  EXPECT_EQ(tracer.total_overflowed(), 3u);
  EXPECT_EQ(tracer.entity_count(), 2u);
}

// ------------------------------------------------- context propagation

// ARTP chunks minted with a TraceContext must carry it across the net layer:
// the link's ring and the receiver's ring see the same trace id.
TEST(TracePropagation, ArtpContextSurvivesTransportAndNet) {
  sim::Simulator sim;
  Network net(sim, 7);
  trace::Tracer tracer;
  auto client = net.add_node("client");
  auto server = net.add_node("server");
  net.connect(client, server, 10e6, milliseconds(5), 100);
  net.compute_routes();
  net.attach_trace(tracer);

  transport::ArtpSenderConfig scfg;
  scfg.telemetry.tracer = &tracer;
  transport::ArtpReceiver::Config rcfg;
  rcfg.telemetry.tracer = &tracer;
  transport::ArtpReceiver rx(net, server, 80, rcfg);
  std::vector<transport::ArtpDelivery> deliveries;
  rx.set_message_callback(
      [&](const transport::ArtpDelivery& d) { deliveries.push_back(d); });
  transport::ArtpSender tx(net, client, 1000, server, 80, 1, scfg);

  transport::ArtpMessageSpec m;
  m.bytes = 4000;
  m.tclass = net::TrafficClass::kCriticalData;
  m.priority = net::Priority::kHighest;
  m.app = net::AppData::kFeaturePayload;
  m.trace = tracer.new_trace();
  tx.send_message(m);
  sim.run_until(seconds(1));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].trace.trace_id, m.trace.trace_id);

  // Every layer recorded events under the same trace id.
  int link_events = 0, sender_events = 0, receiver_events = 0;
  for (const auto& e : tracer.collect()) {
    if (e.trace_id != m.trace.trace_id) continue;
    const std::string& name = tracer.entity_name(e.entity);
    if (name.rfind("link:", 0) == 0) ++link_events;
    if (name == "artp-tx") ++sender_events;
    if (name == "artp-rx") ++receiver_events;
  }
  EXPECT_GT(link_events, 0);
  EXPECT_GT(sender_events, 0);
  EXPECT_GT(receiver_events, 0);
}

TEST(TracePropagation, TcpSourceRecordsTxAndAck) {
  sim::Simulator sim;
  Network net(sim, 7);
  trace::Tracer tracer;
  auto client = net.add_node("client");
  auto server = net.add_node("server");
  net.connect(client, server, 10e6, milliseconds(5), 100);
  net.compute_routes();

  transport::TcpSink sink(net, server, 80);
  transport::TcpSource::Config cfg;
  cfg.telemetry.tracer = &tracer;
  transport::TcpSource src(net, client, 1000, server, 80, 1, cfg);
  src.send(50'000);
  sim.run_until(seconds(2));
  EXPECT_TRUE(src.complete());

  int tx = 0, ack = 0;
  std::uint32_t trace_id = 0;
  for (const auto& e : tracer.collect()) {
    if (e.kind == trace::EventKind::kTx) {
      ++tx;
      trace_id = e.trace_id;
    }
    if (e.kind == trace::EventKind::kAck) ++ack;
  }
  EXPECT_GT(tx, 0);
  EXPECT_GT(ack, 0);
  EXPECT_NE(trace_id, 0u);  // per-connection context minted at construction
}

// --------------------------------------------------------- drop reasons

// Each discard path must reach the drop hook with its own DropReason: a full
// DropTail reports kQueue, CoDel's control law reports kAqm, and both surface
// as distinct "net.drop.<reason>"-style strings via to_string.
TEST(TraceDropReasons, DropTailReportsQueueCoDelReportsAqm) {
  auto flood = [](net::Queue& q, int packets) {
    std::vector<std::pair<net::DropReason, std::uint64_t>> drops;
    q.set_drop_hook([&](const net::Packet& p, net::DropReason r) {
      drops.emplace_back(r, p.uid);
    });
    for (int i = 0; i < packets; ++i) {
      net::Packet p;
      p.uid = static_cast<std::uint64_t>(i) + 1;
      p.size_bytes = 1500;
      q.enqueue(std::move(p), 0);
    }
    return drops;
  };

  net::DropTailQueue tail(4);
  auto tail_drops = flood(tail, 10);
  ASSERT_EQ(tail_drops.size(), 6u);
  for (const auto& [r, uid] : tail_drops) EXPECT_EQ(r, net::DropReason::kQueue);

  // CoDel: build a standing queue, then dequeue across > interval of sojourn
  // so the control law kicks in during dequeue.
  net::CoDelQueue::Config ccfg;
  ccfg.target = milliseconds(5);
  ccfg.interval = milliseconds(100);
  net::CoDelQueue codel(ccfg);
  std::vector<net::DropReason> codel_drops;
  codel.set_drop_hook(
      [&](const net::Packet&, net::DropReason r) { codel_drops.push_back(r); });
  for (int i = 0; i < 200; ++i) {
    net::Packet p;
    p.uid = static_cast<std::uint64_t>(i) + 1;
    p.size_bytes = 1500;
    codel.enqueue(std::move(p), 0);
  }
  sim::Time now = milliseconds(120);  // every packet's sojourn is over target
  while (auto p = codel.dequeue(now)) now += milliseconds(2);
  ASSERT_FALSE(codel_drops.empty());
  for (auto r : codel_drops) EXPECT_EQ(r, net::DropReason::kAqm);
  EXPECT_STREQ(net::to_string(net::DropReason::kQueue), "queue");
  EXPECT_STREQ(net::to_string(net::DropReason::kAqm), "aqm");
}

// A traced link whose queue tail-drops records kDrop events with the reason
// string attached, and the obs counters pick up the per-reason name.
TEST(TraceDropReasons, LinkDropEventsCarryReasonString) {
  sim::Simulator sim;
  Network net(sim, 7);
  trace::Tracer tracer;
  obs::MetricsRegistry reg;
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  Link::Config up;
  up.rate_bps = 1e6;
  up.delay = milliseconds(5);
  up.queue_packets = 2;  // tiny: bursts must tail-drop
  Link& link = net.add_link(a, b, std::move(up));
  net.compute_routes();
  link.attach({.metrics = &reg, .tracer = &tracer}, "link:a->b");

  for (int i = 0; i < 50; ++i) {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.size_bytes = 1500;
    net.send(std::move(p));
  }
  sim.run_until(seconds(1));

  int drops = 0;
  for (const auto& e : tracer.collect()) {
    if (e.kind == trace::EventKind::kDrop) {
      ++drops;
      ASSERT_NE(e.reason, nullptr);
      EXPECT_STREQ(e.reason, "queue");
    }
  }
  EXPECT_GT(drops, 0);
}

TEST(TraceDropReasons, WifiCellDropsGetDistinctReasonsAndCounters) {
  sim::Simulator sim;
  trace::Tracer tracer;
  obs::MetricsRegistry reg;
  wireless::WifiCell::Config cfg;
  cfg.queue_packets = 2;  // force queue-full drops under a burst
  wireless::WifiCell cell(sim, sim::Rng(1), cfg);
  auto sta = cell.add_station(54e6, "sta");
  cell.attach({.metrics = &reg, .tracer = &tracer}, "wifi:cell");
  for (int i = 0; i < 20; ++i) {
    net::Packet p;
    p.uid = static_cast<std::uint64_t>(i) + 1;
    p.size_bytes = 1500;
    cell.send(sta, wireless::WifiCell::kApId, std::move(p));
  }
  sim.run_until(seconds(1));

  int queue_full = 0;
  for (const auto& e : tracer.collect()) {
    if (e.kind == trace::EventKind::kDrop) {
      ASSERT_NE(e.reason, nullptr);
      if (std::strcmp(e.reason, "queue-full") == 0) ++queue_full;
    }
  }
  EXPECT_GT(queue_full, 0);
  const obs::Counter* c = reg.find_counter("wifi.drop.queue-full", "wifi:cell");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), queue_full);
}

// ----------------------------------------------------------- exporters

// A traced end-to-end MAR run used by several exporter tests.
struct TracedOffloadRun {
  sim::Simulator sim;
  Network net{sim, 11};
  trace::Tracer tracer;
  std::unique_ptr<mar::OffloadSession> session;
  std::uint32_t last_frame = 0;
  sim::Time last_latency = 0;

  TracedOffloadRun() {
    auto user = net.add_node("user");
    auto edge = net.add_node("edge");
    net.connect(user, edge, 20e6, milliseconds(8), 200);
    net.compute_routes();
    tracer.set_wire_capture(true);  // the pcap exporter tests read the ring
    net.attach_trace(tracer);
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.tracer = &tracer;
    session = std::make_unique<mar::OffloadSession>(net, user, edge, cfg);
    session->set_result_callback([this](std::uint32_t f, sim::Time lat) {
      last_frame = f;
      last_latency = lat;
    });
    session->start();
    sim.run_until(seconds(1));
    session->stop();
  }
};

TEST(TraceExport, PerfettoJsonIsWellFormed) {
  TracedOffloadRun run;
  std::ostringstream os;
  trace::write_perfetto_json(run.tracer, os);
  const std::string json = os.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  // Braces and brackets balance (no truncated emission).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // entity metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // synthesized spans
  EXPECT_NE(json.find("\"arnet-trace-v1\""), std::string::npos);
  // The MAR frame span pairing produced at least one "frame" slice.
  EXPECT_NE(json.find("\"name\":\"frame\""), std::string::npos);
}

TEST(TraceExport, PcapngBlockStructureIsValid) {
  TracedOffloadRun run;
  std::ostringstream os;
  trace::write_pcapng(run.tracer, os);
  const std::string buf = os.str();
  ASSERT_GE(buf.size(), 28u);

  auto u32 = [&](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, buf.data() + off, 4);
    return v;
  };
  EXPECT_EQ(u32(0), 0x0A0D0D0Au);  // SHB type
  EXPECT_EQ(u32(8), 0x1A2B3C4Du);  // byte-order magic
  // Walk every block: 4-byte alignment, trailing length echo, known types.
  std::size_t off = 0;
  int shb = 0, idb = 0, epb = 0;
  while (off + 12 <= buf.size()) {
    std::uint32_t type = u32(off);
    std::uint32_t len = u32(off + 4);
    ASSERT_EQ(len % 4, 0u);
    ASSERT_GE(len, 12u);
    ASSERT_LE(off + len, buf.size());
    EXPECT_EQ(u32(off + len - 4), len);  // trailing total-length copy
    if (type == 0x0A0D0D0Au) ++shb;
    if (type == 1) ++idb;
    if (type == 6) ++epb;
    off += len;
  }
  EXPECT_EQ(off, buf.size());  // no trailing garbage
  EXPECT_EQ(shb, 1);
  EXPECT_EQ(idb, 1);
  EXPECT_GT(epb, 0);
}

TEST(TraceExport, FrameBreakdownStagesTileTheFrame) {
  TracedOffloadRun run;
  ASSERT_GT(run.last_latency, 0);
  auto ctx = run.session->frame_trace(run.last_frame);
  ASSERT_TRUE(ctx.active());
  auto bd = trace::frame_breakdown(run.tracer, ctx.trace_id);
  ASSERT_TRUE(bd.valid);
  EXPECT_EQ(bd.frame_id, run.last_frame);
  EXPECT_GE(bd.queue_ns(), 0);
  EXPECT_GE(bd.uplink_ns(), 0);
  EXPECT_GE(bd.compute_ns(), 0);
  EXPECT_GE(bd.downlink_ns(), 0);
  // The stages tile [capture, done] exactly, and the total matches the
  // latency the session reported for the same frame.
  EXPECT_EQ(bd.queue_ns() + bd.uplink_ns() + bd.compute_ns() + bd.downlink_ns(),
            bd.total_ns());
  EXPECT_EQ(bd.total_ns(), run.last_latency);
}

TEST(TraceExport, FlightJsonlHasHeaderEventsAndEnd) {
  TracedOffloadRun run;
  std::ostringstream os;
  trace::write_flight_jsonl(run.tracer, os, "unit-test");
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_NE(line.find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(line.find("\"schema\":\"arnet-trace-v1\""), std::string::npos);
  EXPECT_NE(line.find("\"cause\":\"unit-test\""), std::string::npos);
  std::string last;
  long events = 0;
  while (std::getline(is, line)) {
    if (line.find("\"kind\":\"event\"") != std::string::npos) ++events;
    last = line;
  }
  EXPECT_GT(events, 0);
  EXPECT_NE(last.find("\"kind\":\"end\""), std::string::npos);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, DumpsOnCheckFailure) {
  const std::string path = "flight_test_dump.jsonl";
  std::remove(path.c_str());
  trace::Tracer tracer;
  auto e = tracer.register_entity("unit");
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kEnqueue;
  tracer.record(e, ev);
  {
    trace::FlightRecorder recorder(tracer, path);
    check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
    EXPECT_THROW(ARNET_CHECK(false, "forced failure for the flight recorder"),
                 check::CheckError);
    EXPECT_TRUE(recorder.dumped());
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_NE(header.find("check-failure"), std::string::npos);
  EXPECT_NE(header.find("forced failure for the flight recorder"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OnlyFirstTriggerWrites) {
  const std::string path = "flight_test_once.jsonl";
  std::remove(path.c_str());
  trace::Tracer tracer;
  tracer.register_entity("unit");
  trace::FlightRecorder recorder(tracer, path);
  recorder.dump("first-cause");
  recorder.dump("second-cause");
  std::ifstream is(path);
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_NE(header.find("first-cause"), std::string::npos);
  EXPECT_EQ(header.find("second-cause"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RestoresPreviousHookOnDestruction) {
  int outer_calls = 0;
  auto prev = check::set_failure_hook([&](const std::string&) { ++outer_calls; });
  {
    trace::Tracer tracer;
    trace::FlightRecorder recorder(tracer, "flight_test_restore.jsonl");
  }
  // Recorder gone: the outer hook must be back in the slot.
  check::ScopedFailPolicy policy(check::FailPolicy::kCountAndLog);
  check::reset_failures();
  ARNET_CHECK(false, "hook restoration probe");
  EXPECT_EQ(outer_calls, 1);
  check::reset_failures();
  check::set_failure_hook(std::move(prev));
  std::remove("flight_test_restore.jsonl");
}

// ----------------------------------------------------------- profiler

TEST(SimProfilerTest, AttributesWallAndSelfTimeWithInjectedClock) {
  sim::Simulator sim;
  std::int64_t fake_now = 0;
  trace::SimProfiler prof(sim, [&] { return fake_now; });
  auto outer = prof.site_id("outer");
  auto inner = prof.site_id("inner");
  EXPECT_EQ(prof.site_id("outer"), outer);  // interned by content

  prof.enter(outer);
  fake_now += 10;
  prof.enter(inner);
  fake_now += 5;
  prof.exit(inner);
  fake_now += 2;
  prof.exit(outer);

  auto table = prof.table();
  ASSERT_EQ(table.size(), 2u);
  const auto* o = &table[0];
  const auto* i = &table[1];
  if (o->name != "outer") std::swap(o, i);
  EXPECT_EQ(o->calls, 1u);
  EXPECT_EQ(o->wall_total_ns, 17);
  EXPECT_EQ(o->wall_self_ns, 12);  // 17 minus the nested 5
  EXPECT_EQ(i->wall_total_ns, 5);
  EXPECT_EQ(i->wall_self_ns, 5);
}

TEST(SimProfilerTest, NullClockYieldsZeroWallColumns) {
  sim::Simulator sim;
  trace::SimProfiler prof(sim);
  auto s = prof.site_id("site");
  prof.enter(s);
  prof.exit(s);
  auto table = prof.table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].calls, 1u);
  EXPECT_EQ(table[0].wall_total_ns, 0);
}

// -------------------------------------------------------- determinism

// The fingerprint contract: a run with a Tracer (and profiler) attached is
// bit-identical to the same-seed run without one. Tracing must never
// schedule events, draw randomness, or branch simulation logic.
TEST(TraceDeterminism, FingerprintIdenticalWithTracingOnAndOff) {
  auto run_once = [](bool traced) {
    sim::Simulator sim;
    Network net(sim, 11);
    check::TraceRecorder rec;
    rec.attach(net);
    trace::Tracer tracer;
    trace::SimProfiler prof(sim, nullptr);
    auto user = net.add_node("user");
    auto edge = net.add_node("edge");
    net.connect(user, edge, 8e6, milliseconds(10), 150);
    net.compute_routes();
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    if (traced) {
      net.attach_trace(tracer);
      tracer.set_profiler(&prof);
      cfg.tracer = &tracer;
    }
    mar::OffloadSession session(net, user, edge, cfg);
    session.start();
    sim.run_until(seconds(2));
    session.stop();
    rec.detach_all();
    return std::pair<std::uint64_t, std::uint64_t>{rec.fingerprint(), rec.records()};
  };
  auto off = run_once(false);
  auto on = run_once(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

// ------------------------------------------------------ band histograms

TEST(TraceObs, ArtpPerBandDelayHistogramsPublished) {
  sim::Simulator sim;
  Network net(sim, 7);
  obs::MetricsRegistry reg;
  auto client = net.add_node("client");
  auto server = net.add_node("server");
  net.connect(client, server, 10e6, milliseconds(5), 100);
  net.compute_routes();

  transport::ArtpReceiver::Config rcfg;
  rcfg.telemetry.metrics = &reg;
  rcfg.entity = "artp";
  transport::ArtpReceiver rx(net, server, 80, rcfg);
  transport::ArtpSender tx(net, client, 1000, server, 80, 1, {});

  auto send = [&](net::Priority prio) {
    transport::ArtpMessageSpec m;
    m.bytes = 2000;
    m.tclass = net::TrafficClass::kCriticalData;
    m.priority = prio;
    m.app = net::AppData::kSensorData;
    tx.send_message(m);
  };
  send(net::Priority::kHighest);
  send(net::Priority::kLowest);
  sim.run_until(seconds(1));

  const obs::Histogram* h0 = reg.find_histogram(
      "artp.band_delay_ms", "artp/band:" + std::to_string(static_cast<int>(net::Priority::kHighest)));
  const obs::Histogram* h3 = reg.find_histogram(
      "artp.band_delay_ms", "artp/band:" + std::to_string(static_cast<int>(net::Priority::kLowest)));
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h3, nullptr);
  EXPECT_EQ(h0->count(), 1);
  EXPECT_EQ(h3->count(), 1);
  EXPECT_GT(h0->mean(), 0.0);
}

}  // namespace
}  // namespace arnet
