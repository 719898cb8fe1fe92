// Tail-based trace sampler tests: post-completion verdicts and their
// priority order, the span-budget eviction policy, per-frame truncation,
// the seeded healthy-frame reservoir, the traceless note log, the stats
// invariant, overload-cell retention acceptance, export determinism across
// worker counts, sampler fingerprint neutrality, and digests pinning every
// telemetry stream a fleet cell, a shootout cell, an offload session and a
// WiFi cell export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arnet/check/determinism.hpp"
#include "arnet/core/scenarios.hpp"
#include "arnet/core/shootout.hpp"
#include "arnet/fleet/scenario.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/flight.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/wifi.hpp"
#include "golden.hpp"

namespace arnet {
namespace {

using sim::milliseconds;
using sim::seconds;

// A tracer+sampler pair wired the way every caller wires them.
struct Rig {
  explicit Rig(trace::SamplerConfig cfg, std::string entity = "dev") : sampler(cfg) {
    ent = tracer.register_entity(std::move(entity));
    tracer.set_sink(&sampler);
  }
  trace::Tracer tracer;
  trace::TailSampler sampler;
  trace::EntityId ent = 0;
};

// Drive one traced frame through the rig: capture at t0, `extra` middle
// spans, optional drop span, completion (done or miss) at t1.
std::uint32_t emit_frame(Rig& r, sim::Time t0, sim::Time t1, bool miss,
                         bool drop = false, int extra = 0) {
  const std::uint32_t tid = r.tracer.new_trace().trace_id;
  trace::TraceEvent cap;
  cap.time = t0;
  cap.uid = tid;
  cap.trace_id = tid;
  cap.kind = trace::EventKind::kFrameCapture;
  r.tracer.record(r.ent, cap);
  for (int i = 0; i < extra; ++i) {
    trace::TraceEvent s;
    s.time = t0 + i + 1;
    s.trace_id = tid;
    s.kind = trace::EventKind::kEnqueue;
    r.tracer.record(r.ent, s);
  }
  if (drop) {
    trace::TraceEvent d;
    d.time = t1 - 1;
    d.trace_id = tid;
    d.kind = trace::EventKind::kDrop;
    d.reason = "queue-full";
    r.tracer.record(r.ent, d);
  }
  trace::TraceEvent done;
  done.time = t1;
  done.trace_id = tid;
  done.kind = miss ? trace::EventKind::kFrameMiss : trace::EventKind::kFrameDone;
  r.tracer.record(r.ent, done);
  return tid;
}

// ---------------------------------------------------------------- verdicts

TEST(TailSampler, VerdictPriorityMissOverDropOverOutlier) {
  trace::SamplerConfig cfg;
  cfg.reservoir_capacity = 0;  // isolate the rule-based verdicts
  Rig r(cfg);
  r.sampler.set_outlier_threshold_ms(50.0);

  // A frame that both dropped data *and* missed its deadline is a miss.
  const auto both = emit_frame(r, 0, milliseconds(100), true, true);
  // Dropped but on time: drop. Slow but clean: outlier. Fast and clean: gone.
  const auto dropped = emit_frame(r, 0, milliseconds(10), false, true);
  const auto slow = emit_frame(r, 0, milliseconds(60), false);
  const auto healthy = emit_frame(r, 0, milliseconds(10), false);

  ASSERT_TRUE(r.sampler.retained(both));
  ASSERT_TRUE(r.sampler.retained(dropped));
  ASSERT_TRUE(r.sampler.retained(slow));
  EXPECT_FALSE(r.sampler.retained(healthy));
  EXPECT_STREQ(r.sampler.retained_frames().at(both).verdict, "miss");
  EXPECT_STREQ(r.sampler.retained_frames().at(dropped).verdict, "drop");
  EXPECT_STREQ(r.sampler.retained_frames().at(slow).verdict, "outlier");
  EXPECT_EQ(r.sampler.stats().frames_seen, 4u);
}

TEST(TailSampler, OutlierThresholdZeroDisablesTheRule) {
  trace::SamplerConfig cfg;
  cfg.reservoir_capacity = 0;
  Rig r(cfg);  // outlier_threshold_ms defaults to 0
  const auto slow = emit_frame(r, 0, seconds(5), false);
  EXPECT_FALSE(r.sampler.retained(slow));
}

TEST(TailSampler, RetainsFullSpanSetAndLatency) {
  Rig r(trace::SamplerConfig{});
  const auto tid = emit_frame(r, milliseconds(10), milliseconds(110), true,
                              /*drop=*/false, /*extra=*/5);
  const auto& f = r.sampler.retained_frames().at(tid);
  EXPECT_EQ(f.spans.size(), 7u);  // capture + 5 + completion
  EXPECT_EQ(f.first_time, milliseconds(10));
  EXPECT_EQ(f.last_time, milliseconds(110));
  EXPECT_EQ(f.latency_ns, milliseconds(100));
  EXPECT_EQ(f.truncated, 0u);
  EXPECT_EQ(f.spans.front().kind, trace::EventKind::kFrameCapture);
  EXPECT_EQ(f.spans.back().kind, trace::EventKind::kFrameMiss);
}

TEST(TailSampler, PerFrameSpanCapTruncatesAndCounts) {
  trace::SamplerConfig cfg;
  cfg.max_spans_per_frame = 4;
  Rig r(cfg);
  const auto tid = emit_frame(r, 0, milliseconds(100), true, false, 10);
  const auto& f = r.sampler.retained_frames().at(tid);
  EXPECT_EQ(f.spans.size(), 4u);
  EXPECT_EQ(f.truncated, 8u);  // 12 emitted, 4 kept
  EXPECT_EQ(r.sampler.stats().truncated_spans, 8u);
}

// ------------------------------------------------------------------ budget

TEST(TailSampler, BudgetEvictsLowerPriorityOldestFirst) {
  trace::SamplerConfig cfg;
  cfg.span_budget = 8;  // four 2-span frames
  cfg.reservoir_capacity = 16;
  Rig r(cfg);
  // Fill the budget with healthy reservoir frames (2 spans each).
  std::vector<std::uint32_t> healthy;
  for (int i = 0; i < 4; ++i) healthy.push_back(emit_frame(r, i, i + 10, false));
  EXPECT_EQ(r.sampler.spans_used(), 8u);
  // A miss must displace the *oldest* reservoir frame.
  const auto miss1 = emit_frame(r, 100, milliseconds(100), true);
  EXPECT_TRUE(r.sampler.retained(miss1));
  EXPECT_FALSE(r.sampler.retained(healthy[0]));
  EXPECT_TRUE(r.sampler.retained(healthy[1]));
  // Three more misses clear out the rest of the reservoir.
  for (int i = 0; i < 3; ++i) emit_frame(r, 200 + i, milliseconds(200), true);
  EXPECT_EQ(r.sampler.retained_count(), 4u);
  for (const auto& [tid, f] : r.sampler.retained_frames()) {
    EXPECT_STREQ(f.verdict, "miss") << tid;
  }
  // Budget full of misses: another miss cannot evict its own priority.
  const auto miss5 = emit_frame(r, 300, milliseconds(300), true);
  EXPECT_FALSE(r.sampler.retained(miss5));
  EXPECT_GT(r.sampler.stats().budget_rejected, 0u);
  EXPECT_LE(r.sampler.spans_used(), cfg.span_budget);
}

TEST(TailSampler, OversizedFrameIsRejectedNeverPartiallyKept) {
  trace::SamplerConfig cfg;
  cfg.span_budget = 4;
  cfg.max_spans_per_frame = 64;
  Rig r(cfg);
  const auto big = emit_frame(r, 0, milliseconds(100), true, false, 10);
  EXPECT_FALSE(r.sampler.retained(big));
  EXPECT_EQ(r.sampler.stats().budget_rejected, 1u);
  EXPECT_EQ(r.sampler.spans_used(), 0u);
}

TEST(TailSampler, StatsInvariantRetainedEqualsAdmitsMinusEvictions) {
  trace::SamplerConfig cfg;
  cfg.span_budget = 64;
  cfg.reservoir_capacity = 4;
  Rig r(cfg);
  for (int i = 0; i < 200; ++i) {
    const bool miss = i % 17 == 0;
    const bool drop = i % 23 == 0;
    emit_frame(r, i * 100, i * 100 + 50, miss, drop, i % 3);
  }
  const auto& st = r.sampler.stats();
  EXPECT_EQ(st.frames_seen, 200u);
  EXPECT_EQ(r.sampler.retained_count(),
            st.retained_miss + st.retained_drop + st.retained_outlier +
                st.retained_reservoir - st.evicted);
  EXPECT_LE(r.sampler.spans_used(), cfg.span_budget);
}

// --------------------------------------------------------------- reservoir

TEST(TailSampler, ReservoirIsSeededAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    trace::SamplerConfig cfg;
    cfg.seed = seed;
    cfg.reservoir_capacity = 8;
    Rig r(cfg);
    for (int i = 0; i < 500; ++i) emit_frame(r, i * 10, i * 10 + 5, false);
    std::vector<std::uint32_t> kept;
    for (const auto& [tid, f] : r.sampler.retained_frames()) kept.push_back(tid);
    return kept;
  };
  const auto a = run(7);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a, run(7));       // same seed, same exemplars
  EXPECT_NE(a, run(8));       // the sample actually depends on the seed
}

TEST(TailSampler, NoteLogIsBounded) {
  trace::SamplerConfig cfg;
  cfg.note_capacity = 3;
  Rig r(cfg);
  for (int i = 0; i < 10; ++i) r.sampler.note(i, "admission-reject", i);
  EXPECT_EQ(r.sampler.notes().size(), 3u);
  EXPECT_EQ(r.sampler.stats().notes_dropped, 7u);
  EXPECT_EQ(r.sampler.notes()[0].uid, 0u);
  EXPECT_STREQ(r.sampler.notes()[0].reason, "admission-reject");
}

// -------------------------------------------------- overload-cell retention

// The acceptance bar from the issue: in an overloaded fleet cell, the tail
// sampler keeps every deadline-missed frame's full span set within budget.
TEST(TailSamplerAcceptance, OverloadCellKeepsEveryMissInFull) {
  fleet::CellConfig cell;
  cell.name = "overload";
  cell.offered_users = 140.0;  // far past the 2-server knee
  cell.duration = seconds(8);
  cell.mean_lifetime_s = 4.0;
  trace::Tracer tracer;
  trace::SamplerConfig scfg;
  scfg.seed = 42;
  // Budget sized so every miss in this cell fits — the assertion below
  // (budget_rejected == 0) is the claim that it did.
  scfg.span_budget = 1u << 18;
  trace::TailSampler sampler(scfg);
  slo::SloConfig lcfg;
  lcfg.entity = cell.name;
  slo::SloTracker slo(lcfg);
  const fleet::CellResult res =
      fleet::run_capacity_cell(cell, 5, {.tracer = &tracer, .sampler = &sampler, .slo = &slo});

  ASSERT_GT(res.misses, 10) << "cell not overloaded; test is vacuous";
  const auto& st = sampler.stats();
  EXPECT_EQ(st.budget_rejected, 0u) << "budget too small for this cell";
  EXPECT_EQ(st.retained_miss, static_cast<std::uint64_t>(res.misses));
  EXPECT_LE(sampler.spans_used(), scfg.span_budget);

  std::uint64_t misses_retained = 0;
  for (const auto& [tid, f] : sampler.retained_frames()) {
    if (std::string(f.verdict) != "miss") continue;
    ++misses_retained;
    EXPECT_EQ(f.truncated, 0u) << tid;
    ASSERT_FALSE(f.spans.empty()) << tid;
    EXPECT_EQ(f.spans.front().kind, trace::EventKind::kFrameCapture) << tid;
    EXPECT_EQ(f.spans.back().kind, trace::EventKind::kFrameMiss) << tid;
  }
  EXPECT_EQ(misses_retained, static_cast<std::uint64_t>(res.misses));
  // The burn accounting saw the same frames the fleet completed.
  EXPECT_EQ(slo.good() + slo.miss(), res.results);
}

// ------------------------------------------------------------- determinism

TEST(TailSamplerDeterminism, SampledSetByteIdenticalSerialVsParallel) {
  std::vector<fleet::CellConfig> cells;
  for (double users : {40.0, 90.0, 140.0}) {
    fleet::CellConfig c;
    c.name = "u" + std::to_string(static_cast<int>(users));
    c.offered_users = users;
    c.duration = seconds(5);
    c.mean_lifetime_s = 3.0;
    c.admit = true;
    cells.push_back(c);
  }
  auto sweep = [&cells](int jobs) {
    runner::ExperimentRunner::Config pc;
    pc.jobs = jobs;
    pc.root_seed = 9;
    runner::ExperimentRunner pool(pc);
    runner::SweepTelemetry telemetry(cells.size());
    pool.for_each(cells.size(), [&](runner::RunContext& ctx) {
      const std::size_t i = ctx.run_index;
      slo::SloConfig lc;
      lc.entity = cells[i].name;
      fleet::run_capacity_cell(cells[i], ctx.seed, telemetry.attach(i, ctx.seed, lc));
    });
    std::ostringstream samples, slo_log;
    telemetry.write_samples(samples);
    telemetry.write_slo(slo_log);
    return std::pair<std::string, std::string>{samples.str(), slo_log.str()};
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  EXPECT_GT(serial.first.size(), 500u);
  EXPECT_EQ(serial.first, parallel.first);    // samples JSONL
  EXPECT_EQ(serial.second, parallel.second);  // SLO JSONL
}

// The fingerprint contract, extended to the sampler and SLO tracker: a run
// with the full telemetry stack attached is bit-identical to a bare run.
TEST(TailSamplerDeterminism, SamplerAndSloAreFingerprintNeutral) {
  auto run_once = [](bool telemetry) {
    sim::Simulator sim;
    net::Network net(sim, 11);
    check::TraceRecorder rec;
    rec.attach(net);
    trace::Tracer tracer;
    trace::TailSampler sampler(trace::SamplerConfig{});
    slo::SloTracker slo{slo::SloConfig{}};
    auto user = net.add_node("user");
    auto edge = net.add_node("edge");
    net.connect(user, edge, 8e6, milliseconds(10), 150);
    net.compute_routes();
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    if (telemetry) {
      net.attach_trace(tracer);
      tracer.set_sink(&sampler);
      cfg.tracer = &tracer;
      cfg.slo = &slo;
    }
    mar::OffloadSession session(net, user, edge, cfg);
    session.start();
    sim.run_until(seconds(2));
    session.stop();
    rec.detach_all();
    if (telemetry) {
      // The stack actually observed the run (the neutrality claim is not
      // vacuous): frames flowed through sampler and tracker alike.
      EXPECT_GT(sampler.stats().frames_seen, 0u);
      EXPECT_GT(slo.good() + slo.miss(), 0);
    }
    return std::pair<std::uint64_t, std::uint64_t>{rec.fingerprint(), rec.records()};
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

// ------------------------------------------------------------------ export

TEST(TailSamplerExport, JsonlCarriesRunFrameSpanNoteLines) {
  Rig r(trace::SamplerConfig{});
  emit_frame(r, milliseconds(1), milliseconds(90), true, false, 2);
  r.sampler.note(77, "admission-downgrade", milliseconds(5));
  std::ostringstream os;
  trace::write_samples_header(os);
  trace::append_samples_run(r.sampler, r.tracer, "cell-a", os);
  trace::write_samples_end(os, 1);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\":\"arnet-sample-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"run\",\"scope\":\"cell-a\""), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\":\"miss\""), std::string::npos);
  EXPECT_NE(doc.find("\"entity\":\"dev\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"admission-downgrade\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"end\",\"runs\":1"), std::string::npos);
}

TEST(TailSamplerExport, NamesAreJsonEscapedOneRecordPerLine) {
  // A quote, a backslash or a newline in a scope or entity name must neither
  // end the JSON string early nor split a record across lines.
  const std::string name = "a\"b\\c\nd";
  Rig r(trace::SamplerConfig{}, name);
  emit_frame(r, milliseconds(1), milliseconds(90), true);
  std::ostringstream os;
  trace::append_samples_run(r.sampler, r.tracer, name, os);
  const std::string escaped = R"(a\"b\\c\nd)";
  std::istringstream lines(os.str());
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    ++records;
    EXPECT_EQ(line.rfind("{\"kind\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"scope\":\"" + escaped + "\""), std::string::npos) << line;
  }
  EXPECT_EQ(records, 4);  // run, frame, and the frame's capture and miss spans
  EXPECT_NE(os.str().find("\"entity\":\"" + escaped + "\""), std::string::npos);
}

// ------------------------------------------------------- stream goldens

using golden::fnv1a;
using golden::fnv1a_word;
using golden::kFnvBasis;

/// Digest of the tracer's merged event sequence: every field an exporter
/// reads, in collect() order; a null reason hashes apart from "".
std::uint64_t events_digest(const trace::Tracer& tracer) {
  std::uint64_t h = kFnvBasis;
  for (const trace::TraceEvent& e : tracer.collect()) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.time));
    h = fnv1a_word(h, e.entity);
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.kind));
    h = fnv1a_word(h, e.uid);
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.size));
    h = fnv1a_word(h, e.trace_id);
    h = fnv1a_word(h, e.span_id);
    h = e.reason ? fnv1a(fnv1a_word(h, 1), e.reason) : fnv1a_word(h, 0);
  }
  return h;
}

/// Digest of the registry's JSONL export.
std::uint64_t registry_digest(const obs::MetricsRegistry& metrics) {
  std::ostringstream doc;
  obs::write_jsonl(metrics, doc);
  return fnv1a(kFnvBasis, doc.str());
}

struct ExportDigests {
  std::uint64_t samples = 0;
  std::uint64_t slo = 0;
  std::uint64_t events = 0;
};

ExportDigests export_digests(const trace::TailSampler& sampler, const trace::Tracer& tracer,
                             const slo::SloTracker& slo, const std::string& run) {
  std::ostringstream samples, slo_log;
  trace::write_samples_header(samples);
  trace::append_samples_run(sampler, tracer, run, samples);
  trace::write_samples_end(samples, 1);
  slo::write_slo_jsonl({&slo}, slo_log);
  return {fnv1a(kFnvBasis, samples.str()), fnv1a(kFnvBasis, slo_log.str()),
          events_digest(tracer)};
}

/// Rings large enough that collect() returns every event of these runs.
const trace::Tracer::Config kGoldenRings{.ring_capacity = 16384};

// Pins the telemetry streams byte for byte: the sampler and SLO exports and
// the recorded event sequence of every component that traces, and the
// registry export of every packet-path component that publishes metrics.
// The digests were recorded at commit f55066b (the WiFi registry and the
// fig4-style bottleneck at cf5df04, the fleet registries and the unbatched
// and autoscaled cells at b09ae52); a changed digest is a change to what a
// run exports.
TEST(Telemetry, StreamGoldens) {
  // One overloaded fleet capacity cell with every observer attached.
  {
    fleet::CellConfig cell;
    cell.name = "golden-overload";
    cell.offered_users = 140.0;
    cell.duration = seconds(8);
    cell.mean_lifetime_s = 4.0;
    obs::MetricsRegistry metrics;
    trace::Tracer tracer(kGoldenRings);
    trace::SamplerConfig sc;
    sc.seed = 11;
    trace::TailSampler sampler(sc);
    slo::SloConfig lc;
    lc.entity = cell.name;
    slo::SloTracker slo(lc);
    const std::string flight_path = ::testing::TempDir() + "stream_goldens_flight.jsonl";
    std::remove(flight_path.c_str());
    trace::FlightRecorder flight(tracer, flight_path);
    const fleet::CellResult res = fleet::run_capacity_cell(
        cell, 3,
        {.metrics = &metrics, .tracer = &tracer, .sampler = &sampler, .slo = &slo,
         .flight = &flight});
    ASSERT_GT(res.misses, 10) << "cell not overloaded; golden is vacuous";
    ASSERT_TRUE(flight.dumped()) << "no SLO alert; the flight hook is untested";
    std::ifstream in(flight_path);
    std::stringstream flight_doc;
    flight_doc << in.rdbuf();
    const ExportDigests d = export_digests(sampler, tracer, slo, cell.name);
    EXPECT_EQ(d.samples, 7074668111879433719ULL);
    EXPECT_EQ(d.slo, 14667201643411631033ULL);
    EXPECT_EQ(d.events, 17040976682244783623ULL);
    EXPECT_EQ(fnv1a(kFnvBasis, flight_doc.str()), 2278764584227761369ULL);
    EXPECT_EQ(registry_digest(metrics), 5517250128236066177ULL);
  }
  // Two more fleet cells past their knee, pinned through the registry export
  // as well: an unbatched overload (one-request batches on every lane) and
  // an autoscaled crowd that grows and shrinks its active set.
  {
    struct GoldenCell {
      const char* name;
      double users;
      bool batched;
      bool autoscale;
      sim::Time duration;
      ExportDigests streams;
      std::uint64_t registry;
    };
    const GoldenCell cells[] = {
        {"golden-unbatched", 200.0, false, false, seconds(8),
         {7426890711266436712ULL, 3551776804138805855ULL, 9559472684702992972ULL},
         14242044273831654271ULL},
        {"golden-autoscale", 160.0, true, true, seconds(12),
         {1233370375302497436ULL, 14341389866938746221ULL, 362056085539131406ULL},
         12214575806435712107ULL},
    };
    for (const GoldenCell& g : cells) {
      fleet::CellConfig cell;
      cell.name = g.name;
      cell.offered_users = g.users;
      cell.batched = g.batched;
      cell.autoscale = g.autoscale;
      cell.duration = g.duration;
      cell.mean_lifetime_s = 4.0;
      obs::MetricsRegistry metrics;
      trace::Tracer tracer(kGoldenRings);
      trace::SamplerConfig sc;
      sc.seed = 13;
      trace::TailSampler sampler(sc);
      slo::SloConfig lc;
      lc.entity = cell.name;
      slo::SloTracker slo(lc);
      const fleet::CellResult res = fleet::run_capacity_cell(
          cell, 5, {.metrics = &metrics, .tracer = &tracer, .sampler = &sampler, .slo = &slo});
      ASSERT_GT(res.misses, 10) << g.name << ": cell not overloaded; golden is vacuous";
      if (g.autoscale) {
        ASSERT_NE(metrics.find_counter("fleet.scale_out", cell.name), nullptr)
            << "no scale-out; golden is vacuous";
      }
      const ExportDigests d = export_digests(sampler, tracer, slo, cell.name);
      EXPECT_EQ(d.samples, g.streams.samples) << g.name;
      EXPECT_EQ(d.slo, g.streams.slo) << g.name;
      EXPECT_EQ(d.events, g.streams.events) << g.name;
      EXPECT_EQ(registry_digest(metrics), g.registry) << g.name;
    }
  }
  // Two shootout cells at seed 1 with every observer the shootout takes.
  const std::pair<core::ShootoutTransport, core::ShootoutNetwork> shootout_cells[] = {
      {core::ShootoutTransport::kArtp, core::ShootoutNetwork::kWifi},
      {core::ShootoutTransport::kReno, core::ShootoutNetwork::kNr5g},
  };
  const ExportDigests shootout_golden[] = {
      {3218781127975972869ULL, 7847020769458580928ULL, 14471073094980911897ULL},
      {9994790553444467585ULL, 6942860705776926572ULL, 9083223725574485398ULL},
  };
  for (std::size_t i = 0; i < 2; ++i) {
    core::ShootoutCellConfig cfg;
    cfg.transport = shootout_cells[i].first;
    cfg.network = shootout_cells[i].second;
    trace::Tracer tracer(kGoldenRings);
    trace::SamplerConfig sc;
    sc.seed = 5;
    trace::TailSampler sampler(sc);
    slo::SloConfig lc;
    lc.entity = cfg.name();
    lc.deadline_ms = sim::to_milliseconds(core::kShootoutDeadline);
    slo::SloTracker slo(lc);
    (void)core::run_shootout_cell(cfg, 1,
                                  {.tracer = &tracer, .sampler = &sampler, .slo = &slo});
    const ExportDigests d = export_digests(sampler, tracer, slo, cfg.name());
    EXPECT_EQ(d.samples, shootout_golden[i].samples) << cfg.name();
    EXPECT_EQ(d.slo, shootout_golden[i].slo) << cfg.name();
    EXPECT_EQ(d.events, shootout_golden[i].events) << cfg.name();
  }
  // A traced Table II offload session: links, ARTP endpoints and the session.
  {
    auto sc = core::make_table2_scenario(core::Table2Setup::kCloudServerWifi, 43);
    sc.start_dynamics();
    trace::Tracer tracer(kGoldenRings);
    sc.net->attach_trace(tracer);
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.device = mar::DeviceClass::kSmartphone;
    cfg.tracer = &tracer;
    mar::OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    session.start();
    sc.sim->run_until(seconds(3));
    session.stop();
    ASSERT_GT(session.stats().results, 0);
    EXPECT_EQ(events_digest(tracer), 17774140689896794828ULL);
  }
  // A saturated WiFi cell: enqueue, tx, rx and every drop reason.
  {
    sim::Simulator sim;
    wireless::WifiCell::Config wc;
    wc.queue_packets = 6;
    wc.frame_loss = 0.6;
    wireless::WifiCell cell(sim, sim::Rng(3), wc);
    obs::MetricsRegistry metrics;
    trace::Tracer tracer(kGoldenRings);
    cell.attach({.metrics = &metrics, .tracer = &tracer}, "wifi");
    std::vector<std::uint32_t> stas;
    for (int i = 0; i < 4; ++i) stas.push_back(cell.add_station(i == 0 ? 6e6 : 54e6));
    std::uint64_t next_uid = 1;
    auto packet = [&](std::uint32_t trace_id) {
      net::Packet p;
      p.uid = next_uid++;
      p.size_bytes = 1200 + static_cast<std::int32_t>(p.uid % 300);
      p.trace = trace::TraceContext{trace_id, static_cast<std::uint32_t>(p.uid)};
      return p;
    };
    for (std::uint32_t s : stas) {
      cell.set_sink(s, [&, s](net::Packet&&, std::uint32_t) {
        cell.send(s, wireless::WifiCell::kApId, packet(s));
      });
    }
    cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&& p, std::uint32_t from) {
      // Station-to-station relays fill the AP queue past its bound.
      const std::uint32_t to = stas[(from + p.uid) % stas.size()];
      for (int k = 0; k < 2; ++k) cell.send(from, to == from ? stas[0] : to, packet(from));
    });
    for (std::uint32_t s : stas) {
      for (int i = 0; i < 8; ++i) cell.send(s, wireless::WifiCell::kApId, packet(s));
    }
    sim.run_until(milliseconds(400));
    ASSERT_GT(cell.dropped_frames(), 0);
    EXPECT_EQ(events_digest(tracer), 9027665195624884334ULL);
    EXPECT_EQ(registry_digest(metrics), 12805653704575646142ULL);
  }
  // A fig4-style bottleneck: a rate-stepped link shared by a four-band ARTP
  // flow and a SACK Reno flow, every component attached to one registry and
  // one tracer.
  {
    sim::Simulator sim;
    net::Network net(sim, 4);
    const net::NodeId client = net.add_node("client");
    const net::NodeId server = net.add_node("server");
    auto [up, down] = net.connect(client, server, 4e6, milliseconds(15), 40);
    sim.at(seconds(1), [l = up] { l->set_rate(1.5e6); });
    sim.at(seconds(2), [l = up] { l->set_rate(0.6e6); });
    obs::MetricsRegistry metrics;
    trace::Tracer tracer(kGoldenRings);
    const trace::Telemetry telemetry{.metrics = &metrics, .tracer = &tracer};
    for (net::Link* l : {up, down}) l->attach(telemetry, "link:" + l->name());

    transport::ArtpReceiver::Config rx_cfg;
    rx_cfg.telemetry = telemetry;
    transport::ArtpReceiver rx(net, server, 80, rx_cfg);
    transport::ArtpSenderConfig tx_cfg;
    tx_cfg.telemetry = telemetry;
    tx_cfg.entity = "artp";
    transport::ArtpSender tx(net, client, 1000, server, 80, 1, tx_cfg);
    transport::TcpSink sink(net, server, 81);
    transport::TcpSource::Config tcp_cfg;
    tcp_cfg.flavor = transport::TcpFlavor::kReno;
    tcp_cfg.sack = true;
    tcp_cfg.telemetry = telemetry;
    transport::TcpSource src(net, client, 2000, server, 81, 2, tcp_cfg);
    src.send_forever();

    auto message = [&](std::int64_t bytes, net::TrafficClass tclass, net::Priority priority,
                       net::AppData app) {
      transport::ArtpMessageSpec m;
      m.bytes = bytes;
      m.tclass = tclass;
      m.priority = priority;
      m.app = app;
      if (priority == net::Priority::kLowest) m.stale_after = milliseconds(80);
      tx.send_message(m);
    };
    for (int i = 0; i < 30; ++i) {
      sim.at(milliseconds(100) * i, [&] {
        message(96, net::TrafficClass::kCriticalData, net::Priority::kHighest,
                net::AppData::kConnectionMetadata);
      });
    }
    for (int i = 0; i < 150; ++i) {
      sim.at(milliseconds(20) * i, [&] {
        message(150, net::TrafficClass::kFullBestEffort, net::Priority::kMediumNoDrop,
                net::AppData::kSensorData);
      });
    }
    for (int i = 0; i < 90; ++i) {
      sim.at(sim::from_seconds(i / 30.0), [&, i] {
        if (i % 15 == 0) {
          message(24'000, net::TrafficClass::kBestEffortLossRecovery,
                  net::Priority::kMediumNoDrop, net::AppData::kVideoReferenceFrame);
        } else {
          message(8000, net::TrafficClass::kFullBestEffort, net::Priority::kLowest,
                  net::AppData::kVideoInterFrame);
        }
      });
    }
    sim.run_until(seconds(3));
    std::ostringstream doc;
    obs::write_jsonl(metrics, doc);
    for (const char* want : {"\"tcp.cwnd\"", "\"artp/band:", "\"artp-rx/app:", "\"link.drop."}) {
      ASSERT_NE(doc.str().find(want), std::string::npos) << want << " missing; golden is vacuous";
    }
    ASSERT_GT(tx.shed_messages(), 0) << "no shedding; golden is vacuous";
    EXPECT_EQ(fnv1a(kFnvBasis, doc.str()), 2515913947379225408ULL);
    EXPECT_EQ(events_digest(tracer), 17985894897112019177ULL);
  }
}

}  // namespace
}  // namespace arnet
