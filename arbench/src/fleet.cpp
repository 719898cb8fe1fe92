// fleet_serving: the multi-user edge serving layer. One op is one
// fleet::run_capacity_cell from the scale_fleet sweep (30 simulated seconds,
// 25-200 offered users) with full CellTelemetry attached: MetricsRegistry,
// sink-only Tracer + TailSampler, SloTracker. After the sweep, one more op
// merges the per-cell registries and writes the obs JSONL and the
// arnet-sample-v1 exports (into memory; the benchmark keeps the host disk
// out of the measurement).
#include <array>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/fleet/scenario.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/trace.hpp"
#include "harness.hpp"

namespace arbench {
namespace {

using namespace arnet;

constexpr std::uint64_t kWarmupSeed = 1;

struct CellSpec {
  const char* kind;  ///< "fleet/open", "fleet/unbatched", "fleet/autoscale", "fleet/admission"
  fleet::CellConfig cfg;
};

fleet::CellConfig make_cell(double users, bool batched, bool autoscale, bool admit) {
  fleet::CellConfig c;
  std::ostringstream os;
  os << "u" << std::setw(3) << std::setfill('0') << static_cast<int>(users)
     << "/lo/batch=" << (batched ? "on" : "off") << "/as=" << (autoscale ? "on" : "off")
     << "/adm=" << (admit ? "on" : "off");
  c.name = os.str();
  c.offered_users = users;
  c.policy = fleet::BalancerPolicy::kLeastOutstanding;
  c.batched = batched;
  c.autoscale = autoscale;
  c.admit = admit;
  c.duration = sim::seconds(30);
  return c;
}

/// The cell's tail sampler with a benchmark-owned count in front of it: it
/// sees every event of the cell's tracer (run_capacity_cell makes the
/// sampler the tracer's sink), counts it by kind, and hands it on. Traced
/// rounds use it; their digests must equal the untraced rounds'.
class CountingSampler : public trace::TailSampler {
 public:
  using TailSampler::TailSampler;
  void on_event(const trace::TraceEvent& e) override {
    ++n_[static_cast<std::size_t>(e.kind)];
    ++total_;
    TailSampler::on_event(e);
  }
  double count(trace::EventKind k) const {
    return static_cast<double>(n_[static_cast<std::size_t>(k)]);
  }
  double total() const { return static_cast<double>(total_); }

 private:
  std::array<std::uint64_t, 32> n_{};
  std::uint64_t total_ = 0;
};

/// Per-cell telemetry, owned by the round so the post-sweep merge and
/// exports can read it.
struct CellSlot {
  fleet::CellResult result;
  obs::MetricsRegistry registry;
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::TailSampler> sampler;
  std::unique_ptr<slo::SloTracker> slo;
};

void check_cell(const fleet::CellResult& r, OpRecord& rec) {
  Digest d;
  d.s(r.name).u(r.arrivals).u(r.admitted).u(r.downgraded).u(r.rejected);
  d.i(r.frames).i(r.results).i(r.misses).f(r.mean_ms).f(r.min_ms).f(r.max_ms);
  d.f(r.p50_ms).f(r.p90_ms).f(r.p99_ms).f(r.miss_rate).f(r.served_fps);
  d.u(r.servers_final).f(r.sim_seconds);
  rec.digest = d.value();
  if (r.arrivals == 0) {
    rec.violation = "fleet: no arrival";
  } else if (r.arrivals != r.admitted + r.downgraded + r.rejected) {
    rec.violation = "fleet: arrivals != admitted + downgraded + rejected";
  } else if (r.results < 0 || r.results > r.frames) {
    rec.violation = "fleet: results > frames";
  }
}

class FleetServing : public Workload {
 public:
  void setup(SpanLog* spans) override {
    Span s(spans, "setup.configs", "bench");
    cells_.clear();
    for (double u : {25.0, 50.0, 100.0, 150.0, 200.0}) {
      cells_.push_back({"fleet/open", make_cell(u, true, false, false)});
    }
    for (double u : {50.0, 125.0, 200.0}) {
      cells_.push_back({"fleet/unbatched", make_cell(u, false, false, false)});
    }
    for (double u : {100.0, 150.0, 200.0}) {
      cells_.push_back({"fleet/autoscale", make_cell(u, true, true, false)});
    }
    for (double u : {100.0, 150.0, 200.0}) {
      cells_.push_back({"fleet/admission", make_cell(u, true, false, true)});
    }
    slots_.clear();
    slots_.resize(cells_.size());
    // Warm-up: the smallest cell, with the full telemetry stack. Its seed is
    // fixed, so the cost of set-up does not depend on the root seed.
    CellSlot warm;
    (void)run_cell(cells_[0].cfg, kWarmupSeed, warm, false);
  }

  std::size_t ops() const override { return cells_.size(); }

  OpRecord run_op(std::size_t i, std::uint64_t seed, SpanLog* spans) override {
    OpRecord rec;
    rec.kind = cells_[i].kind;
    CellSlot& slot = slots_[i];
    slot = CellSlot{};
    {
      Span s(spans, "fleet.run_capacity_cell", "fleet");
      slot.result = run_cell(cells_[i].cfg, seed, slot, spans != nullptr);
    }
    check_cell(slot.result, rec);
    const fleet::CellResult& r = slot.result;
    rec.counts["sim.events"] = static_cast<double>(r.sim_events);
    rec.counts["fleet.frames"] = static_cast<double>(r.frames);
    rec.counts["fleet.results"] = static_cast<double>(r.results);
    rec.counts["fleet.arrivals"] = static_cast<double>(r.arrivals);
    rec.counts["fleet.admitted"] = static_cast<double>(r.admitted);
    rec.counts["trace.spans_retained"] = static_cast<double>(slot.sampler->spans_used());
    if (spans) {
      const auto& seen = static_cast<const CountingSampler&>(*slot.sampler);
      rec.counts["trace.events"] = seen.total();
      rec.counts["net.packets_tx"] = seen.count(trace::EventKind::kTxStart);
      rec.counts["net.drops"] = seen.count(trace::EventKind::kDrop);
    }
    return rec;
  }

  std::optional<OpRecord> finish_round(SpanLog* spans) override {
    OpRecord rec;
    rec.kind = "fleet/export";
    obs::MetricsRegistry merged;
    {
      Span s(spans, "obs.merge", "obs");
      for (const CellSlot& c : slots_) merged.merge_from(c.registry);
    }
    std::ostringstream metrics;
    {
      Span s(spans, "obs.write_jsonl", "obs");
      obs::write_jsonl(merged, metrics);
    }
    std::ostringstream samples;
    {
      Span s(spans, "trace.write_samples", "trace");
      trace::write_samples_header(samples);
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        trace::append_samples_run(*slots_[i].sampler, *slots_[i].tracer, cells_[i].cfg.name,
                                  samples);
      }
      trace::write_samples_end(samples, cells_.size());
    }
    export_ = metrics.str();
    rec.counts["obs.export_bytes"] = static_cast<double>(export_.size());
    export_ += samples.str();
    rec.counts["trace.sample_bytes"] = static_cast<double>(export_.size()) -
                                       rec.counts["obs.export_bytes"];
    check_export(export_, rec);
    return rec;
  }

  OpRecord corrupted(std::size_t i) const override {
    OpRecord rec;
    if (i >= cells_.size()) {
      check_export(export_ + "\n", rec);  // one stray byte in the export
      return rec;
    }
    fleet::CellResult r = slots_[i].result;
    ++r.admitted;  // a session admitted twice
    check_cell(r, rec);
    return rec;
  }

 private:
  static void check_export(const std::string& text, OpRecord& rec) {
    rec.digest = Digest{}.s(text).value();
    if (text.empty()) rec.violation = "fleet: empty export";
  }

  /// Full CellTelemetry, wired as bench/scale_fleet wires it with --slo;
  /// `counting` puts a CountingSampler in place of the plain sampler.
  static fleet::CellResult run_cell(const fleet::CellConfig& cfg, std::uint64_t seed,
                                    CellSlot& slot, bool counting) {
    slot.tracer = std::make_unique<trace::Tracer>();
    slot.tracer->set_sink_only(true);
    trace::SamplerConfig sc;
    sc.seed = runner::derive_seed(seed, 0x5A3917);
    slot.sampler = counting ? std::make_unique<CountingSampler>(sc)
                            : std::make_unique<trace::TailSampler>(sc);
    slo::SloConfig lc;
    lc.entity = cfg.name;
    slot.slo = std::make_unique<slo::SloTracker>(lc);
    fleet::CellTelemetry t;
    t.metrics = &slot.registry;
    t.tracer = slot.tracer.get();
    t.sampler = slot.sampler.get();
    t.slo = slot.slo.get();
    return fleet::run_capacity_cell(cfg, seed, t);
  }

  std::vector<CellSpec> cells_;
  std::vector<CellSlot> slots_;
  std::string export_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_serving(std::uint64_t /*root: op seeds only*/) {
  return std::make_unique<FleetServing>();
}

}  // namespace arbench
