// arnet::fluid — mean-field cell model, packet cross-validation, city grid
// sharding, and the rng-discipline of per-cell seed streams.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
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
#include "golden.hpp"

using namespace arnet;
using sim::seconds;

// ------------------------------------------------ per-cell diurnal profiles

TEST(DiurnalProfile, SlotsWrapAndPhaseShifts) {
  fleet::DiurnalProfile d;
  EXPECT_FALSE(d.active());  // empty curve = flat
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
  cfg.profile.curve = {3.0, 1.0};
  cfg.profile.period = seconds(20);
  fleet::PopulationModel p(s, cfg, 1);
  EXPECT_DOUBLE_EQ(cfg.profile.multiplier(seconds(2)), 3.0);
  EXPECT_DOUBLE_EQ(cfg.profile.multiplier(seconds(12)), 1.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(2)), 30.0);
}

TEST(Population, PhaseStaggersIdenticalCurves) {
  fleet::PopulationConfig cfg;
  cfg.base_arrivals_per_s = 1.0;
  cfg.profile.curve = {1.0, 2.0, 3.0, 4.0};
  cfg.profile.period = seconds(40);
  fleet::PopulationConfig shifted = cfg;
  shifted.profile.phase = seconds(10);  // one slot ahead
  for (int slot = 0; slot < 4; ++slot) {
    const sim::Time t = seconds(5 + 10 * slot);
    EXPECT_DOUBLE_EQ(shifted.profile.multiplier(t), cfg.profile.multiplier(t + seconds(10)));
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
    const trace::Telemetry t =
        telemetry.attach_slo(ctx.run_index, fluid::city_slo_config(city, entity));
    fluid::run_city_cell(city, ctx.run_index, ctx.seed, &ctx.metrics, t.slo);
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

// ------------------------------------------------------------ city goldens

namespace {

using golden::fnv1a_word;
using golden::kFnvBasis;

/// Every FluidResult field of one full-day city cell, plus a digest of the
/// occupancy vector and of the admission log's (decision, projection)
/// sequence.
struct CellGolden {
  std::size_t index;
  const char* archetype;
  std::uint64_t arrivals, admitted, downgraded, rejected;
  std::int64_t frames, misses;
  double mean_ms, min_ms, max_ms, p50_ms, p90_ms, p99_ms, miss_rate, served_fps;
  double peak_sessions, knee_sessions;
  sim::Time first_breach;
  double backlog_end;
  std::int64_t ticks;
  double sim_seconds;
  std::size_t occupancy_slots;
  std::uint64_t occupancy_fnv;
  std::size_t log_size;
  std::uint64_t log_fnv;
};

/// Renders a golden as its own initializer (doubles as hex-float literals),
/// so string equality is bit equality and a failure prints the new row.
std::string render(const CellGolden& g) {
  std::string s;
  char buf[64];
  auto u = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%llu, ", static_cast<unsigned long long>(v));
    s += buf;
  };
  auto i = [&](std::int64_t v) {
    std::snprintf(buf, sizeof buf, "%lld, ", static_cast<long long>(v));
    s += buf;
  };
  auto d = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a, ", v);
    s += buf;
  };
  auto x = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ", static_cast<unsigned long long>(v));
    s += buf;
  };
  s += "{";
  u(g.index);
  s += std::string("\"") + g.archetype + "\", ";
  u(g.arrivals), u(g.admitted), u(g.downgraded), u(g.rejected);
  i(g.frames), i(g.misses);
  d(g.mean_ms), d(g.min_ms), d(g.max_ms), d(g.p50_ms), d(g.p90_ms), d(g.p99_ms);
  d(g.miss_rate), d(g.served_fps), d(g.peak_sessions), d(g.knee_sessions);
  i(g.first_breach), d(g.backlog_end), i(g.ticks), d(g.sim_seconds);
  u(g.occupancy_slots), x(g.occupancy_fnv), u(g.log_size), x(g.log_fnv);
  s.resize(s.size() - 2);
  return s + "}";
}

CellGolden observe_city_cell(const fluid::CityConfig& city, std::size_t index,
                             const char* archetype) {
  const fluid::FluidConfig f =
      fluid::make_city_cell(city, index, runner::derive_seed(city.seed, index));
  EXPECT_EQ(f.entity.substr(f.entity.rfind('/') + 1), archetype);
  fluid::FluidCell cell(f);
  const fluid::FluidResult r = cell.run();
  std::uint64_t occ = kFnvBasis;
  for (double v : r.occupancy) occ = fnv1a_word(occ, std::bit_cast<std::uint64_t>(v));
  std::uint64_t log = kFnvBasis;
  for (const fleet::AdmissionLogEntry& e : cell.admission().log()) {
    log = fnv1a_word(log, static_cast<std::uint64_t>(e.decision));
    log = fnv1a_word(log, std::bit_cast<std::uint64_t>(e.projected_p99_ms));
  }
  return CellGolden{index,        archetype,       r.arrivals,      r.admitted,
                    r.downgraded, r.rejected,      r.frames,        r.misses,
                    r.mean_ms,    r.min_ms,        r.max_ms,        r.p50_ms,
                    r.p90_ms,     r.p99_ms,        r.miss_rate,     r.served_fps,
                    r.peak_sessions, r.knee_sessions, r.first_breach, r.backlog_end,
                    r.ticks,      r.sim_seconds,   r.occupancy.size(), occ,
                    cell.admission().log().size(), log};
}

}  // namespace

// One full-day cell per archetype of the default 20x20 city at seed 1, every
// output pinned bit for bit. Recorded at commit a9674e8 (before the cached
// p99 projection, the one-pass admission stencil and the hoisted per-cell
// constants), so any change to the stepper's or the controller's arithmetic
// shows up here. The two admission cells (core, nightlife) also pin the
// admission log: cell 168 rejects 13,235 sessions, so its log digest pins
// the projected p99 of every one of its 86,400 ticks.
TEST(City, ArchetypeCellGoldens) {
  const CellGolden goldens[] = {
      {168, "core", 72270, 57064, 1971, 13235, 1042189879, 569515,
       0x1.1a0bdd94cfc79p+5, 0x1.3c81b586feb69p+4, 0x1.3b5ad61cf155ep+6,
       0x1.e266666666667p+4, 0x1.e2ccccccccccdp+5, 0x1.fep+5,
       0x1.1e80a9bd94c4p-11, 0x1.78f3101a4184bp+13, 0x1.a87782a25da62p+9, 0x1.a87782a25da62p+9,
       32413000000000, 0x0p+0, 86400, 0x1.518p+16, 96, 0x444495bd4f3bcf2fULL,
       86400, 0x560e1cd34ba67401ULL},
      {127, "commercial", 42816, 42816, 0, 0, 768672249, 182832995,
       0x1.00b43790d2ee6p+14, 0x1.3c81dec7d681p+4, 0x1.0237b2158ac02p+17,
       0x1.ea66666666667p+4, 0x1.d4cp+15, 0x1.d4cp+15,
       0x1.e720d585b695dp-3, 0x1.16055b3ecdd04p+13, 0x1.1ffff98677eebp+9, 0x1.1a312d78613b1p+9,
       40212000000000, 0x0p+0, 86400, 0x1.518p+16, 96, 0xb6d0d1746cc598cbULL,
       0, 0xcbf29ce484222325ULL},
      {3, "residential", 32682, 32682, 0, 0, 579464351, 221744141,
       0x1.680981c4d7bbcp+18, 0x1.3c8c5fe257176p+4, 0x1.a10b761936cbcp+20,
       0x1.bap+5, 0x1.d4cp+15, 0x1.d4cp+15,
       0x1.87dae0f3802b9p-2, 0x1.a32c3690d6f9ap+12, 0x1.03ef6b5fd0893p+9, 0x1.a7bc0fc103234p+8,
       68915000000000, 0x1.f81e67c67b2c2p+21, 86400, 0x1.518p+16, 96, 0xc9b44532b24c30a0ULL,
       0, 0xcbf29ce484222325ULL},
      {0, "nightlife", 42336, 38909, 3427, 0, 721912428, 0,
       0x1.1b61d041daa9cp+5, 0x1.3ca02f666956p+4, 0x1.2b7901e7dd58dp+6,
       0x1.e266666666667p+4, 0x1.dd33333333334p+5, 0x1.07ccccccccccdp+6,
       0x0p+0, 0x1.051bbe4c3a832p+13, 0x1.33fff4aeec87cp+9, 0x1.33fff4aeec87cp+9,
       -1, 0x0p+0, 86400, 0x1.518p+16, 96, 0x716ad6fc9a17c0baULL,
       86400, 0x69b665798c3b794aULL},
      {2, "transit", 32899, 32899, 0, 0, 590887407, 242795007,
       0x1.58e99c381f37dp+18, 0x1.3c8026bed8bc3p+4, 0x1.b878fb701a2c6p+20,
       0x1.cap+5, 0x1.d4cp+15, 0x1.d4cp+15,
       0x1.a4c2b0ce955d3p-2, 0x1.ab6f9806e32edp+12, 0x1.40a341157b7e8p+9, 0x1.7a2db11e157e4p+8,
       26605000000000, 0x0p+0, 86400, 0x1.518p+16, 96, 0xb3b6412376d32192ULL,
       0, 0xcbf29ce484222325ULL},
  };
  const fluid::CityConfig city;
  for (const CellGolden& g : goldens) {
    EXPECT_EQ(render(observe_city_cell(city, g.index, g.archetype)), render(g));
  }
}
