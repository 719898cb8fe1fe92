// packet_sessions: the packet-level stack end to end. One op is either one
// cell of the 5 transports x 3 access networks shootout grid
// (core::run_shootout_cell, 30 KB frames at 30 fps for 20 simulated
// seconds) or one Table II CloudRidAR offloading session
// (core::make_table2_scenario + mar::OffloadSession, ~14 KB feature uploads
// for 20 simulated seconds). Telemetry is off in untraced rounds; traced
// rounds attach a sink-only Tracer with a counting sink to the Table II
// networks and sessions.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arnet/core/scenarios.hpp"
#include "arnet/core/shootout.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/trace/trace.hpp"
#include "harness.hpp"

namespace arbench {
namespace {

using namespace arnet;

/// A round is the full 15-cell grid plus the four Table II deployments,
/// then a second seed group of the ops whose outcome depends on the seed:
/// the LTE and 5G NR cells and the LTE deployment. The WiFi cells and WiFi
/// deployments give the same result on every seed, so repeating them would
/// only time identical inputs twice.
constexpr std::size_t kCells = 15;
constexpr std::size_t kWifiCells = 5;  ///< the grid is network-major, WiFi first
constexpr std::size_t kDeployments = 4;
constexpr std::size_t kWifiDeployments = 3;
constexpr std::size_t kGroupOps = kCells + kDeployments;
constexpr sim::Time kSessionLength = sim::seconds(20);

const char* short_name(core::ShootoutTransport t) {
  switch (t) {
    case core::ShootoutTransport::kArtp: return "artp";
    case core::ShootoutTransport::kReno: return "reno";
    case core::ShootoutTransport::kCubic: return "cubic";
    case core::ShootoutTransport::kBbr: return "bbr";
    case core::ShootoutTransport::kQuicLite: return "quic";
  }
  return "?";
}

const char* short_name(core::ShootoutNetwork n) {
  switch (n) {
    case core::ShootoutNetwork::kWifi: return "wifi";
    case core::ShootoutNetwork::kLte: return "lte";
    case core::ShootoutNetwork::kNr5g: return "nr5g";
  }
  return "?";
}

/// Benchmark-owned observer: counts every traced event by kind.
class KindCounter : public trace::TraceSink {
 public:
  void on_event(const trace::TraceEvent& e) override {
    ++n_[static_cast<std::size_t>(e.kind)];
  }
  double count(trace::EventKind k) const {
    return static_cast<double>(n_[static_cast<std::size_t>(k)]);
  }

 private:
  std::array<std::uint64_t, 32> n_{};
};

/// Simulated outcome of one Table II session.
struct SessionOutcome {
  std::string name;
  mar::OffloadStats stats;
  std::int64_t sim_events = 0;
};

void check_shootout(const core::ShootoutCellResult& r, OpRecord& rec) {
  Digest d;
  d.s(r.name).i(r.frames_sent).i(r.frames_on_time).i(r.frames_late).i(r.frames_incomplete);
  d.f(r.hit_ratio).f(r.mean_ms).f(r.p50_ms).f(r.p90_ms).f(r.p99_ms).f(r.min_ms).f(r.max_ms);
  d.f(r.goodput_mbps).f(r.sim_seconds);
  rec.digest = d.value();
  if (r.frames_sent <= 0) {
    rec.violation = "shootout: no frame sent";
  } else if (r.frames_on_time < 0 || r.frames_late < 0 || r.frames_incomplete < 0 ||
             r.frames_on_time + r.frames_late + r.frames_incomplete != r.frames_sent) {
    rec.violation = "shootout: sent != on_time + late + incomplete";
  }
}

void check_session(const SessionOutcome& o, OpRecord& rec) {
  const mar::OffloadStats& st = o.stats;
  Digest d;
  d.s(o.name).i(st.frames).i(st.results).i(st.deadline_misses).i(st.offloaded_frames);
  d.i(st.uplink_bytes).f(st.energy_j).i(static_cast<std::int64_t>(st.latency_ms.count()));
  for (double v : st.latency_ms.values()) d.f(v);
  rec.digest = d.value();
  if (st.frames <= 0) {
    rec.violation = "session: no frame captured";
  } else if (st.results < 0 || st.results > st.frames) {
    rec.violation = "session: results > frames";
  } else if (st.deadline_misses < 0 || st.deadline_misses > st.results) {
    rec.violation = "session: misses > results";
  } else if (static_cast<std::int64_t>(st.latency_ms.count()) != st.results) {
    rec.violation = "session: latency samples != results";
  }
}

class PacketSessions : public Workload {
 public:
  explicit PacketSessions(std::uint64_t root) : root_(root) {}

  void setup(SpanLog* spans) override {
    Span s(spans, "setup.configs", "bench");
    cells_.clear();
    for (core::ShootoutNetwork n : {core::ShootoutNetwork::kWifi, core::ShootoutNetwork::kLte,
                                    core::ShootoutNetwork::kNr5g}) {
      for (core::ShootoutTransport t :
           {core::ShootoutTransport::kArtp, core::ShootoutTransport::kReno,
            core::ShootoutTransport::kCubic, core::ShootoutTransport::kBbr,
            core::ShootoutTransport::kQuicLite}) {
        core::ShootoutCellConfig c;
        c.transport = t;
        c.network = n;
        c.duration = sim::seconds(20);
        cells_.push_back(c);
      }
    }
    deployments_ = {core::Table2Setup::kLocalServerWifi, core::Table2Setup::kCloudServerWifi,
                    core::Table2Setup::kUniversityServerWifi,
                    core::Table2Setup::kCloudServerLte};
    slots_.clear();
    for (std::size_t slot = 0; slot < kGroupOps; ++slot) slots_.push_back(slot);
    for (std::size_t slot = kWifiCells; slot < kCells; ++slot) slots_.push_back(slot);
    for (std::size_t slot = kCells + kWifiDeployments; slot < kGroupOps; ++slot) {
      slots_.push_back(slot);
    }
    shootout_.assign(ops(), {});
    sessions_.assign(ops(), {});
    // Warm-up: one op of each kind, so lazy initialisation is paid here.
    (void)core::run_shootout_cell(cells_[0], root_);
    (void)run_session(deployments_[0], root_, nullptr, nullptr);
  }

  std::size_t ops() const override { return slots_.size(); }

  OpRecord run_op(std::size_t i, std::uint64_t seed, SpanLog* spans) override {
    OpRecord rec;
    const std::size_t slot = slots_[i];
    if (slot < kCells) {
      const core::ShootoutCellConfig& c = cells_[slot];
      rec.kind = std::string("shootout/") + short_name(c.transport) + "/" + short_name(c.network);
      {
        Span s(spans, "core.run_shootout_cell", "transport");
        shootout_[i] = core::run_shootout_cell(c, seed);
      }
      check_shootout(shootout_[i], rec);
      rec.counts["sim.events"] = static_cast<double>(shootout_[i].sim_events);
      rec.counts["shootout.frames_sent"] = static_cast<double>(shootout_[i].frames_sent);
      rec.counts["shootout.frames_on_time"] = static_cast<double>(shootout_[i].frames_on_time);
      return rec;
    }
    rec.kind = "table2";
    KindCounter counter;
    sessions_[i] = run_session(deployments_[slot - kCells], seed, spans, spans ? &counter : nullptr);
    check_session(sessions_[i], rec);
    const mar::OffloadStats& st = sessions_[i].stats;
    rec.counts["sim.events"] = static_cast<double>(sessions_[i].sim_events);
    rec.counts["mar.frames"] = static_cast<double>(st.frames);
    rec.counts["mar.results"] = static_cast<double>(st.results);
    if (spans) {
      rec.counts["net.packets_tx"] = counter.count(trace::EventKind::kTxStart);
      rec.counts["net.drops"] = counter.count(trace::EventKind::kDrop);
      rec.counts["transport.retx"] = counter.count(trace::EventKind::kRetx);
      rec.counts["transport.shed"] = counter.count(trace::EventKind::kShed);
    }
    return rec;
  }

  OpRecord corrupted(std::size_t i) const override {
    OpRecord rec;
    if (slots_[i] < kCells) {
      core::ShootoutCellResult r = shootout_[i];
      ++r.frames_on_time;  // a frame counted twice
      check_shootout(r, rec);
    } else {
      SessionOutcome o = sessions_[i];
      ++o.stats.results;  // a result without a latency sample
      check_session(o, rec);
    }
    return rec;
  }

 private:
  /// One Table II session, as bench/table2_offload_rtt runs it. With
  /// `counter` set, a sink-only tracer feeds it every link, ARTP and
  /// session event.
  static SessionOutcome run_session(core::Table2Setup setup, std::uint64_t seed, SpanLog* spans,
                                    KindCounter* counter) {
    SessionOutcome out;
    out.name = core::to_string(setup);
    trace::Tracer tracer;  // outlives the scenario's links and the session
    core::Scenario sc = [&] {
      Span s(spans, "core.make_table2_scenario", "net");
      return core::make_table2_scenario(setup, seed);
    }();
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.device = mar::DeviceClass::kSmartphone;
    if (counter) {
      tracer.set_sink(counter);
      tracer.set_sink_only(true);
      sc.net->attach_trace(tracer);
      cfg.tracer = &tracer;
    }
    {
      Span s(spans, "wireless.start_dynamics", "wireless");
      sc.start_dynamics();
    }
    mar::OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    {
      Span s(spans, "mar.OffloadSession.start", "mar");
      session.start();
    }
    {
      Span s(spans, "sim.run_until", "sim");
      sc.sim->run_until(kSessionLength);
    }
    {
      Span s(spans, "mar.OffloadSession.stop", "mar");
      session.stop();
    }
    out.stats = session.stats();
    out.sim_events = static_cast<std::int64_t>(sc.sim->events_executed());
    return out;
  }

  std::uint64_t root_;
  std::vector<core::ShootoutCellConfig> cells_;
  std::vector<core::Table2Setup> deployments_;
  std::vector<std::size_t> slots_;  ///< op index -> grid cell or kCells + deployment
  std::vector<core::ShootoutCellResult> shootout_;
  std::vector<SessionOutcome> sessions_;
};

}  // namespace

std::unique_ptr<Workload> make_packet_sessions(std::uint64_t root) {
  return std::make_unique<PacketSessions>(root);
}

}  // namespace arbench
