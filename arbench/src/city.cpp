// city_day: the mean-field city model. One op is one fluid::run_city_cell
// over a full 86400 s diurnal day (1 s tick) with its SloTracker and
// registry, for a seeded subset of the default 20x20 grid: two cells of each
// (archetype, diurnal phase) stratum, so all five archetypes are covered and
// the round's cost mix does not depend on the seed. After the sweep, one
// more op merges the per-cell registries and writes the obs JSONL export
// into memory. No simulator event runs: the time is FluidCell::step
// arithmetic plus the fluid latency histogram.
//
// Traced rounds call the same public pieces run_city_cell is made of
// (make_city_cell, FluidCell::step, FluidCell::finish, the gauge publish),
// so stepping and finishing are timed apart; the result digests prove the
// two paths compute the same cell.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/fluid/city.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/slo/slo.hpp"
#include "harness.hpp"

namespace arbench {
namespace {

using namespace arnet;

constexpr std::size_t kCellsPerStratum = 2;

struct CellSlot {
  fluid::CityCellOutcome outcome;
  obs::MetricsRegistry registry;
  std::unique_ptr<slo::SloTracker> slo;
};

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

void check_cell(const fluid::CityCellOutcome& o, OpRecord& rec) {
  const fluid::FluidResult& r = o.r;
  Digest d;
  d.u(o.index).s(o.archetype).s(r.name).u(r.arrivals).u(r.admitted).u(r.downgraded);
  d.u(r.rejected).i(r.frames).i(r.misses).f(r.mean_ms).f(r.min_ms).f(r.max_ms);
  d.f(r.p50_ms).f(r.p90_ms).f(r.p99_ms).f(r.miss_rate).f(r.served_fps).f(r.peak_sessions);
  d.f(r.knee_sessions).i(r.first_breach).f(r.backlog_end).f(r.sim_seconds);
  for (double v : r.occupancy) d.f(v);
  rec.digest = d.value();
  const bool mass_ok = r.frames >= 0 && r.misses >= 0 && r.misses <= r.frames &&
                       finite_nonneg(r.peak_sessions) && finite_nonneg(r.served_fps) &&
                       std::all_of(r.occupancy.begin(), r.occupancy.end(), finite_nonneg);
  if (r.ticks <= 0) {
    rec.violation = "fluid: no tick";
  } else if (!mass_ok) {
    rec.violation = "fluid: negative or non-finite mass";
  } else if (!finite_nonneg(r.backlog_end)) {
    rec.violation = "fluid: negative backlog";
  }
}

class CityDay : public Workload {
 public:
  explicit CityDay(std::uint64_t root) : root_(root) { city_.seed = root; }

  void setup(SpanLog* spans) override {
    Span s(spans, "setup.configs", "bench");
    // Seeded pick of kCellsPerStratum cells per (archetype, diurnal phase)
    // stratum: the round's mix of cell costs is the same on every seed.
    std::map<std::pair<std::size_t, sim::Time>, std::vector<std::size_t>> strata;
    for (std::size_t idx = 0; idx < city_.cells(); ++idx) {
      const int cx = static_cast<int>(idx) % city_.grid_x;
      const int cy = static_cast<int>(idx) / city_.grid_x;
      const sim::Time phase = fluid::make_city_cell(city_, idx, 0).population.profile.phase;
      strata[{fluid::archetype_index(city_, cx, cy), phase}].push_back(idx);
    }
    sim::Rng pick(runner::derive_seed(root_, 0xC17F));
    cells_.clear();
    for (auto& [stratum, members] : strata) {
      std::shuffle(members.begin(), members.end(), pick.engine());
      const std::size_t n = std::min(kCellsPerStratum, members.size());
      cells_.insert(cells_.end(), members.begin(), members.begin() + static_cast<long>(n));
    }
    slots_.clear();
    slots_.resize(cells_.size());
    CellSlot warm;  // warm-up: one full-day cell of the first stratum
    run_cell(cells_.front(), warm, nullptr);
  }

  std::size_t ops() const override { return cells_.size(); }

  OpRecord run_op(std::size_t i, std::uint64_t seed, SpanLog* spans) override {
    (void)seed;  // a city cell's stream root is derive_seed(city seed, cell index)
    OpRecord rec;
    rec.kind = "city";
    CellSlot& slot = slots_[i];
    slot = CellSlot{};
    run_cell(cells_[i], slot, spans);
    check_cell(slot.outcome, rec);
    rec.counts["fluid.ticks"] = static_cast<double>(slot.outcome.r.ticks);
    rec.counts["fluid.frames"] = static_cast<double>(slot.outcome.r.frames);
    return rec;
  }

  std::optional<OpRecord> finish_round(SpanLog* spans) override {
    OpRecord rec;
    rec.kind = "city/export";
    obs::MetricsRegistry merged;
    {
      Span s(spans, "obs.merge", "obs");
      for (const CellSlot& c : slots_) merged.merge_from(c.registry);
    }
    std::ostringstream os;
    {
      Span s(spans, "obs.write_jsonl", "obs");
      obs::write_jsonl(merged, os);
    }
    export_ = os.str();
    check_export(export_, rec);
    rec.counts["obs.export_bytes"] = static_cast<double>(export_.size());
    return rec;
  }

  OpRecord corrupted(std::size_t i) const override {
    OpRecord rec;
    if (i >= cells_.size()) {
      check_export(export_ + "\n", rec);
      return rec;
    }
    fluid::CityCellOutcome o = slots_[i].outcome;
    o.r.backlog_end = -1.0;  // more frames served than offered
    check_cell(o, rec);
    return rec;
  }

 private:
  static void check_export(const std::string& text, OpRecord& rec) {
    rec.digest = Digest{}.s(text).value();
    if (text.empty()) rec.violation = "city: empty export";
  }

  void run_cell(std::size_t index, CellSlot& slot, SpanLog* spans) const {
    const std::uint64_t seed = runner::derive_seed(city_.seed, index);
    const std::string entity = fluid::make_city_cell(city_, index, seed).entity;
    slot.slo = std::make_unique<slo::SloTracker>(fluid::city_slo_config(city_, entity));
    if (!spans) {
      slot.outcome = fluid::run_city_cell(city_, index, seed, &slot.registry, slot.slo.get());
      return;
    }
    // Traced: run_city_cell's steps, one public call at a time.
    fluid::FluidConfig f = fluid::make_city_cell(city_, index, seed);
    f.metrics = &slot.registry;
    f.slo = slot.slo.get();
    fluid::CityCellOutcome& out = slot.outcome;
    out.index = index;
    out.cx = static_cast<int>(index) % city_.grid_x;
    out.cy = static_cast<int>(index) / city_.grid_x;
    const std::size_t slash = entity.rfind('/');
    out.archetype = slash == std::string::npos ? entity : entity.substr(slash + 1);
    const std::int64_t total_ticks = std::max<std::int64_t>(1, (f.duration + f.tick - 1) / f.tick);
    fluid::FluidCell cell(std::move(f));
    {
      Span s(spans, "fluid.step", "fluid");
      for (std::int64_t t = 0; t < total_ticks; ++t) cell.step();
    }
    {
      Span s(spans, "fluid.finish", "fluid");
      out.r = cell.finish();
    }
    Span s(spans, "obs.publish_city_gauges", "obs");
    obs::MetricsRegistry& m = slot.registry;
    slot.slo->publish(m);
    m.gauge("city.peak_sessions", entity).set(out.r.peak_sessions);
    m.gauge("city.knee_sessions", entity).set(out.r.knee_sessions);
    m.gauge("city.p50_ms", entity).set(out.r.p50_ms);
    m.gauge("city.p99_ms", entity).set(out.r.p99_ms);
    m.gauge("city.miss_rate", entity).set(out.r.miss_rate);
    m.gauge("city.served_fps", entity).set(out.r.served_fps);
    m.gauge("city.rejected", entity).set(static_cast<double>(out.r.rejected));
    m.gauge("city.first_breach_s", entity)
        .set(out.r.first_breach < 0 ? -1.0 : sim::to_seconds(out.r.first_breach));
  }

  std::uint64_t root_;
  fluid::CityConfig city_;
  std::vector<std::size_t> cells_;
  std::vector<CellSlot> slots_;
  std::string export_;
};

}  // namespace

std::unique_ptr<Workload> make_city_day(std::uint64_t root) {
  return std::make_unique<CityDay>(root);
}

}  // namespace arbench
