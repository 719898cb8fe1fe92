// arnet::fluid — mean-field cell model, packet cross-validation, city grid
// sharding, and the rng-discipline of per-cell seed streams.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/check/rng_audit.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/fluid/city.hpp"
#include "arnet/fluid/fluid.hpp"
#include "arnet/fluid/validate.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/slo/slo.hpp"

using namespace arnet;
using sim::seconds;

// ------------------------------------------------ per-cell diurnal profiles

TEST(DiurnalProfile, SlotsWrapAndPhaseShifts) {
  fleet::DiurnalProfile d;
  EXPECT_FALSE(d.active());  // empty curve = legacy fields stay in charge
  d.curve = {0.5, 2.0};
  d.period = seconds(10);
  ASSERT_TRUE(d.active());
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(2)), 0.5);
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(7)), 2.0);
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(12)), 0.5);  // wraps
  EXPECT_DOUBLE_EQ(d.peak(), 2.0);

  d.phase = seconds(5);  // this cell's clock runs half a period ahead
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(0)), 2.0);
  d.phase = -seconds(5);  // and behind: negative phases wrap, never index < 0
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(d.multiplier(seconds(7)), 0.5);
}

TEST(DiurnalProfile, PeakFloorsAtOneForThinning) {
  // Lewis-Shedler thins from base * peak; a curve entirely below 1.0 must
  // not shrink the majorizing rate below the base.
  fleet::DiurnalProfile d;
  d.curve = {0.2, 0.4};
  EXPECT_DOUBLE_EQ(d.peak(), 1.0);
}

TEST(Population, CellLocalProfileOverridesLegacyFields) {
  sim::Simulator s;
  fleet::PopulationConfig cfg;
  cfg.base_arrivals_per_s = 10.0;
  cfg.diurnal = {0.5, 2.0};  // legacy shape, would give 5 / 20
  cfg.diurnal_period = seconds(10);
  cfg.profile.curve = {3.0, 1.0};  // cell-local profile wins
  cfg.profile.period = seconds(20);
  fleet::PopulationModel p(s, cfg, 1);
  EXPECT_DOUBLE_EQ(p.diurnal_multiplier(seconds(2)), 3.0);
  EXPECT_DOUBLE_EQ(p.diurnal_multiplier(seconds(12)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(2)), 30.0);
}

TEST(Population, InactiveProfileIsBitIdenticalToLegacy) {
  // Single-cell (no profile) behavior must not move: same seed, same config
  // modulo the inactive profile member, same arrival stream.
  sim::Simulator s1, s2;
  fleet::PopulationConfig legacy;
  legacy.base_arrivals_per_s = 8.0;
  legacy.diurnal = {0.5, 2.0, 1.0};
  legacy.diurnal_period = seconds(30);
  fleet::PopulationConfig with_default = legacy;  // profile present, inactive
  with_default.profile = fleet::DiurnalProfile{};
  fleet::PopulationModel a(s1, legacy, 42), b(s2, with_default, 42);
  std::vector<sim::Time> ta, tb;
  a.set_session_callback([&](const fleet::SessionSpec&) { ta.push_back(s1.now()); });
  b.set_session_callback([&](const fleet::SessionSpec&) { tb.push_back(s2.now()); });
  a.start();
  b.start();
  s1.run_until(seconds(60));
  s2.run_until(seconds(60));
  a.stop();
  b.stop();
  ASSERT_GT(ta.size(), 100u);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]) << i;
}

TEST(Population, PhaseStaggersIdenticalCurves) {
  sim::Simulator s;
  fleet::PopulationConfig cfg;
  cfg.base_arrivals_per_s = 1.0;
  cfg.profile.curve = {1.0, 2.0, 3.0, 4.0};
  cfg.profile.period = seconds(40);
  fleet::PopulationConfig shifted = cfg;
  shifted.profile.phase = seconds(10);  // one slot ahead
  fleet::PopulationModel a(s, cfg, 3), b(s, shifted, 3);
  for (int slot = 0; slot < 4; ++slot) {
    const sim::Time t = seconds(5 + 10 * slot);
    EXPECT_DOUBLE_EQ(b.diurnal_multiplier(t),
                     a.diurnal_multiplier(t + seconds(10)));
  }
}

// ------------------------------------------------------- SLO batch feeding

TEST(SloBatch, ObserveBatchMatchesPerFrameLoop) {
  slo::SloConfig cfg;
  cfg.deadline_ms = 75.0;
  slo::SloTracker loop(cfg), batch(cfg);
  const int kGood = 137, kMiss = 9;
  for (sim::Time t : {seconds(1), seconds(2), seconds(7)}) {
    for (int i = 0; i < kGood; ++i) loop.observe(t, 10.0);
    for (int i = 0; i < kMiss; ++i) loop.observe(t, 200.0);
    batch.observe_batch(t, kGood, kMiss);
    EXPECT_EQ(batch.good(), loop.good());
    EXPECT_EQ(batch.miss(), loop.miss());
    EXPECT_DOUBLE_EQ(batch.burn_fast(), loop.burn_fast());
    EXPECT_DOUBLE_EQ(batch.burn_slow(), loop.burn_slow());
    EXPECT_EQ(batch.state(), loop.state());
  }
}

TEST(SloBatch, EmptyBatchIsANoOp) {
  slo::SloTracker t((slo::SloConfig()));
  t.observe_batch(seconds(1), 0, 0);
  EXPECT_EQ(t.good(), 0);
  EXPECT_EQ(t.miss(), 0);
  EXPECT_EQ(t.burn_samples().size(), 0u);
}

TEST(SloBatch, BatchOverloadTripsFastBurn) {
  slo::SloConfig cfg;
  cfg.min_samples = 20;
  slo::SloTracker t(cfg);
  t.observe_batch(seconds(1), 50, 0);
  EXPECT_EQ(t.state(), slo::AlertState::kOk);
  t.observe_batch(seconds(2), 10, 90);  // 90% miss of a 1% budget
  EXPECT_EQ(t.state(), slo::AlertState::kFastBurn);
  EXPECT_EQ(t.alert_episodes(), 1u);
}

// ------------------------------------------- rng discipline across the city

TEST(RngAudit, ShardedCellStreamsAreCollisionFree) {
  // The city contract: per-cell subpopulations draw from
  // derive_seed(city_seed, cell_index) streams. An active auditor across a
  // whole grid's worth of populations must stay clean.
  check::RngAuditor auditor;
  {
    check::ScopedRngAudit scope(auditor);
    sim::Simulator s;
    fleet::PopulationConfig cfg;
    cfg.base_arrivals_per_s = 1.0;
    // Streams register with the auditor at Rng construction; collisions are
    // detected on registration, before any draw happens.
    std::vector<std::unique_ptr<fleet::PopulationModel>> pops;
    for (std::uint64_t cell = 0; cell < 64; ++cell) {
      pops.push_back(std::make_unique<fleet::PopulationModel>(
          s, cfg, runner::derive_seed(1, cell)));
    }
  }
  EXPECT_TRUE(auditor.clean()) << auditor.findings().size() << " findings";
}

TEST(RngAudit, SharedCellSeedIsCaughtAsCollision) {
  // The bug class the satellite exists for: two "independent" cells built
  // from the same root seed share every stream. The auditor must name it.
  check::RngAuditor auditor;
  {
    check::ScopedRngAudit scope(auditor);
    sim::Simulator s;
    fleet::PopulationConfig cfg;
    cfg.base_arrivals_per_s = 1.0;
    fleet::PopulationModel cell_a(s, cfg, runner::derive_seed(1, 7));
    fleet::PopulationModel cell_b(s, cfg, runner::derive_seed(1, 7));  // oops
  }
  EXPECT_FALSE(auditor.clean());
  bool saw_collision = false;
  for (const check::RngAuditor::Finding& f : auditor.findings()) {
    if (f.kind == check::RngAuditor::Violation::kSeedCollision) saw_collision = true;
  }
  EXPECT_TRUE(saw_collision);
}

// ------------------------------------------------------- fluid-cell physics

namespace {

fluid::FluidConfig quiet_cell() {
  fluid::FluidConfig f;
  f.seed = 9;
  f.population.base_arrivals_per_s = 0.5;
  f.population.mean_lifetime_s = 60.0;
  f.duration = seconds(30);
  return f;
}

}  // namespace

TEST(Fluid, LowLoadCellFollowsLittlesLaw) {
  fluid::FluidCell cell(quiet_cell());
  const fluid::FluidResult r = cell.run();
  // N(t) = a*L*(1 - e^{-t/L}) -> 30 * (1 - e^{-0.5}) at the horizon.
  const double expect_n = 0.5 * 60.0 * (1.0 - std::exp(-30.0 / 60.0));
  EXPECT_NEAR(r.peak_sessions, expect_n, 0.5);
  EXPECT_LT(r.p99_ms, 75.0);
  EXPECT_LT(r.miss_rate, 1e-9);
  EXPECT_LT(r.backlog_end, 1.0);
  EXPECT_EQ(r.first_breach, -1);
  EXPECT_GT(r.knee_sessions, 0.0);
  EXPECT_GT(r.frames, 0);
  // Open loop, no admission: everything that arrives is admitted.
  EXPECT_EQ(r.arrivals, r.admitted);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(Fluid, RunIsDeterministic) {
  fluid::FluidCell a(quiet_cell()), b(quiet_cell());
  const fluid::FluidResult ra = a.run(), rb = b.run();
  EXPECT_EQ(ra.p99_ms, rb.p99_ms);
  EXPECT_EQ(ra.served_fps, rb.served_fps);
  EXPECT_EQ(ra.peak_sessions, rb.peak_sessions);
  ASSERT_EQ(ra.occupancy.size(), rb.occupancy.size());
  for (std::size_t i = 0; i < ra.occupancy.size(); ++i) {
    EXPECT_EQ(ra.occupancy[i], rb.occupancy[i]);
  }
}

TEST(Fluid, StepIsExposedForTheMicrobench) {
  fluid::FluidCell cell(quiet_cell());
  for (int i = 0; i < 10; ++i) cell.step();
  EXPECT_EQ(cell.now(), sim::milliseconds(1000));
  EXPECT_GT(cell.sessions(), 0.0);
  const fluid::FluidResult r = cell.finish();
  EXPECT_EQ(r.ticks, 10);
}

TEST(Fluid, OverloadBreachesBudgetAndAdmissionBoundsIt) {
  fluid::FluidConfig open = quiet_cell();
  open.population.base_arrivals_per_s = 10.0;  // ~600 offered vs ~94 knee
  open.duration = seconds(60);
  fluid::FluidResult r_open = fluid::FluidCell(open).run();
  EXPECT_GE(r_open.first_breach, 0);
  EXPECT_GT(r_open.p99_ms, 75.0);
  EXPECT_GT(r_open.miss_rate, 0.05);

  fluid::FluidConfig gated = open;
  gated.admission.enabled = true;
  fluid::FluidResult r_gate = fluid::FluidCell(gated).run();
  EXPECT_GT(r_gate.rejected, 0u);
  EXPECT_LT(r_gate.p99_ms, r_open.p99_ms);
}

TEST(Fluid, PublishesInstrumentsUnderEntity) {
  obs::MetricsRegistry reg;
  slo::SloConfig sc;
  sc.entity = "cell-under-test";
  slo::SloTracker slo(sc);
  fluid::FluidConfig f = quiet_cell();
  f.metrics = &reg;
  f.slo = &slo;
  f.entity = "cell-under-test";
  const fluid::FluidResult r = fluid::FluidCell(f).run();
  EXPECT_EQ(slo.good() + slo.miss(), r.frames);
  std::ostringstream os;
  obs::write_jsonl(reg, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("fluid.served"), std::string::npos);
  EXPECT_NE(out.find("fluid.m2p_ms"), std::string::npos);
  EXPECT_NE(out.find("cell-under-test"), std::string::npos);
}

// ------------------------------------------- packet cross-validation bands

// The tentpole contract: across 25-200 users the fluid model tracks the
// packet model within pinned tolerance bands. 25/50 sit below the ~94-user
// knee where both models are arrival-dominated; 100 straddles the knee (the
// mean-field approximation is weakest at the critical point, hence the wider
// band); 200 is deeply saturated where the backlog integral governs both.
// Bands were set from measured deltas (see EXPERIMENTS.md E18) with ~2x
// headroom; a regression that doubles the disagreement fails loudly.
namespace {

struct Band {
  double users;
  double p99_pct;
  double goodput_pct;
};

}  // namespace

TEST(FluidValidate, TracksPacketModelWithinBands) {
  const Band bands[] = {
      {25, 30.0, 12.0},
      {50, 30.0, 12.0},
      {100, 45.0, 20.0},
      {200, 45.0, 20.0},
  };
  for (const Band& b : bands) {
    const fluid::ValidationRow row =
        fluid::run_validation_level(b.users, seconds(20), 11);
    EXPECT_LE(row.p99_delta_pct, b.p99_pct)
        << b.users << " users: fluid p99 " << row.fluid.p99_ms << " vs packet "
        << row.packet.p99_ms;
    EXPECT_LE(row.goodput_delta_pct, b.goodput_pct)
        << b.users << " users: fluid fps " << row.fluid.served_fps
        << " vs packet " << row.packet.served_fps;
  }
}

TEST(FluidValidate, ConfigMirrorsPacketCell) {
  fleet::CellConfig cell;
  cell.name = "u100";
  cell.offered_users = 100;
  cell.admit = true;
  const fluid::FluidConfig f = fluid::fluid_cell_config(cell, 5);
  EXPECT_TRUE(f.admission.enabled);
  EXPECT_EQ(f.entity, "u100/fluid");
  EXPECT_EQ(f.duration, cell.duration);
}

// ------------------------------------------------------------- city grid

TEST(City, ArchetypeAssignmentIsDeterministic) {
  fluid::CityConfig city;  // 20x20 defaults
  EXPECT_EQ(fluid::archetype_index(city, 10, 10), 0u);  // downtown core
  // The ring between the core and the fabric is commercial.
  EXPECT_EQ(fluid::archetype_index(city, 10, 6), 1u);
  // Outside: hashed residential/nightlife/transit mix, stable per position.
  for (int cx = 0; cx < city.grid_x; ++cx) {
    for (int cy = 0; cy < city.grid_y; ++cy) {
      const std::size_t a = fluid::archetype_index(city, cx, cy);
      EXPECT_LT(a, 5u);
      EXPECT_EQ(a, fluid::archetype_index(city, cx, cy));
    }
  }
}

TEST(City, CellConfigCarriesStaggeredProfiles) {
  fluid::CityConfig city;
  const fluid::FluidConfig c0 = fluid::make_city_cell(city, 0, 100);
  const fluid::FluidConfig c1 = fluid::make_city_cell(city, 1, 101);
  EXPECT_TRUE(c0.population.profile.active());
  EXPECT_EQ(c0.population.profile.period, city.day);
  EXPECT_NE(c0.population.profile.phase, c1.population.profile.phase);
  EXPECT_EQ(c0.entity.rfind("cell:00,00/", 0), 0u);
  EXPECT_EQ(c0.duration, city.day);
}

namespace {

fluid::CityConfig tiny_city() {
  fluid::CityConfig city;
  city.grid_x = 2;
  city.grid_y = 2;
  city.day = seconds(600);
  city.tick = sim::milliseconds(500);
  city.mean_lifetime_s = 60.0;
  return city;
}

// The scale_city merge, in miniature: per-cell registries and SLO trackers
// indexed by run, merged in cell order after the pool drains.
std::pair<std::string, std::string> run_city_merged(int jobs) {
  const fluid::CityConfig city = tiny_city();
  runner::SweepTelemetry telemetry(city.cells());
  runner::ExperimentRunner::Config pc;
  pc.jobs = jobs;
  pc.root_seed = city.seed;
  runner::ExperimentRunner pool(pc);
  const obs::MetricsRegistry merged = pool.run_merged(city.cells(), [&](runner::RunContext& ctx) {
    const std::string entity =
        fluid::make_city_cell(city, ctx.run_index, ctx.seed).entity;
    telemetry.attach_slo(ctx.run_index, fluid::city_slo_config(city, entity));
    fluid::run_city_cell(city, ctx.run_index, ctx.seed, &ctx.metrics,
                         telemetry.slo(ctx.run_index));
  });
  std::ostringstream mo;
  obs::write_jsonl(merged, mo);
  std::ostringstream so;
  telemetry.write_slo(so);
  return {mo.str(), so.str()};
}

}  // namespace

TEST(City, SerialAndParallelShardsAreByteIdentical) {
  const auto serial = run_city_merged(1);
  const auto parallel = run_city_merged(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_NE(serial.first.find("city.p99_ms"), std::string::npos);
  EXPECT_NE(serial.second.find("arnet-slo-v1"), std::string::npos);
}

TEST(City, CellGaugesCoverTheGrid) {
  const fluid::CityConfig city = tiny_city();
  obs::MetricsRegistry reg;
  const fluid::CityCellOutcome out =
      fluid::run_city_cell(city, 3, runner::derive_seed(city.seed, 3), &reg);
  EXPECT_EQ(out.cx, 1);
  EXPECT_EQ(out.cy, 1);
  EXPECT_GT(out.r.peak_sessions, 0.0);
  std::ostringstream os;
  obs::write_jsonl(reg, os);
  EXPECT_NE(os.str().find("city.peak_sessions"), std::string::npos);
  EXPECT_NE(os.str().find("city.first_breach_s"), std::string::npos);
}
