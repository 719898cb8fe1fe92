// Tests for the transport-shootout cell runner: frame accounting invariants
// across every transport x network cell, and byte-identical results whether
// cells run serially or fanned across an ExperimentRunner pool (the property
// the CI smoke sweep checks end to end on the bench binary's artifacts),
// and observers that see every frame exactly once without perturbing it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arnet/core/shootout.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::core {
namespace {

std::vector<ShootoutCellConfig> small_grid(sim::Time duration) {
  std::vector<ShootoutCellConfig> cells;
  for (ShootoutNetwork n :
       {ShootoutNetwork::kWifi, ShootoutNetwork::kLte, ShootoutNetwork::kNr5g}) {
    for (ShootoutTransport t :
         {ShootoutTransport::kArtp, ShootoutTransport::kReno, ShootoutTransport::kCubic,
          ShootoutTransport::kBbr, ShootoutTransport::kQuicLite}) {
      ShootoutCellConfig c;
      c.transport = t;
      c.network = n;
      c.duration = duration;
      cells.push_back(c);
    }
  }
  return cells;
}

void expect_identical(const ShootoutCellResult& a, const ShootoutCellResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.frames_sent, b.frames_sent) << a.name;
  EXPECT_EQ(a.frames_on_time, b.frames_on_time) << a.name;
  EXPECT_EQ(a.frames_late, b.frames_late) << a.name;
  EXPECT_EQ(a.frames_incomplete, b.frames_incomplete) << a.name;
  EXPECT_EQ(a.sim_events, b.sim_events) << a.name;
  // Bitwise-equal doubles, not approximate: the bench JSON is diffed by CI.
  EXPECT_EQ(a.hit_ratio, b.hit_ratio) << a.name;
  EXPECT_EQ(a.p50_ms, b.p50_ms) << a.name;
  EXPECT_EQ(a.p99_ms, b.p99_ms) << a.name;
  EXPECT_EQ(a.goodput_mbps, b.goodput_mbps) << a.name;
}

TEST(Shootout, CellIsDeterministicPerSeed) {
  ShootoutCellConfig cfg;
  cfg.transport = ShootoutTransport::kBbr;
  cfg.network = ShootoutNetwork::kNr5g;
  cfg.duration = sim::seconds(3);
  ShootoutCellResult a = run_shootout_cell(cfg, 9);
  ShootoutCellResult b = run_shootout_cell(cfg, 9);
  expect_identical(a, b);
  EXPECT_GT(a.frames_sent, 0);
}

TEST(Shootout, AllCellsAccountForEveryFrame) {
  for (const ShootoutCellConfig& cfg : small_grid(sim::seconds(3))) {
    ShootoutCellResult r = run_shootout_cell(cfg, 4);
    EXPECT_EQ(r.frames_sent, 90) << r.name;  // 30 fps x 3 s
    EXPECT_EQ(r.frames_on_time + r.frames_late + r.frames_incomplete, r.frames_sent)
        << r.name;
    EXPECT_GE(r.frames_on_time, 0) << r.name;
    EXPECT_GE(r.hit_ratio, 0.0) << r.name;
    EXPECT_LE(r.hit_ratio, 1.0) << r.name;
    EXPECT_GT(r.sim_events, 0) << r.name;
    // Somebody must deliver *something* in every cell: even the worst
    // transport/network pairing moves a few frames in 3 s.
    EXPECT_GT(r.frames_on_time + r.frames_late, 0) << r.name;
  }
}

TEST(Shootout, SerialAndParallelPoolsAgreeExactly) {
  const std::vector<ShootoutCellConfig> cells = small_grid(sim::seconds(2));

  auto sweep = [&](int jobs) {
    runner::ExperimentRunner::Config pc;
    pc.jobs = jobs;
    pc.root_seed = 1;
    runner::ExperimentRunner pool(pc);
    std::vector<ShootoutCellResult> out(cells.size());
    pool.for_each(cells.size(), [&](runner::RunContext& ctx) {
      out[ctx.run_index] = run_shootout_cell(cells[ctx.run_index], ctx.seed);
    });
    return out;
  };

  std::vector<ShootoutCellResult> serial = sweep(1);
  std::vector<ShootoutCellResult> parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

// The telemetry stream sees every submitted frame exactly once, whatever
// the cell, the seed or the observer set: the SLO tracker's good count is
// the on-time count, good + miss is the frames sent (shed and still-buffered
// frames are misses), and attaching observers changes nothing the cell
// reports.
TEST(Shootout, TelemetryCountsEveryFrameOnce) {
  for (std::uint64_t seed : {1ULL, 7ULL, 90210ULL}) {
    for (const ShootoutCellConfig& cfg : small_grid(ShootoutCellConfig{}.duration)) {
      const ShootoutCellResult dark = run_shootout_cell(cfg, seed);
      for (bool full : {false, true}) {
        SCOPED_TRACE(cfg.name() + " seed " + std::to_string(seed) +
                     (full ? " full bundle" : " SLO only"));
        slo::SloConfig lc;
        lc.entity = cfg.name();
        lc.deadline_ms = sim::to_milliseconds(cfg.deadline);
        slo::SloTracker slo(lc);
        trace::Tracer tracer;
        tracer.set_sink_only(true);
        trace::TailSampler sampler(trace::SamplerConfig{});
        trace::Telemetry t;
        t.slo = &slo;
        if (full) {
          t.tracer = &tracer;
          t.sampler = &sampler;
        }
        const ShootoutCellResult r = run_shootout_cell(cfg, seed, t);
        expect_identical(dark, r);
        EXPECT_EQ(slo.good(), r.frames_on_time);
        EXPECT_EQ(slo.good() + slo.miss(), r.frames_sent);
        if (full) {
          EXPECT_EQ(sampler.stats().frames_seen, static_cast<std::uint64_t>(r.frames_sent));
        }
      }
    }
  }
}

}  // namespace
}  // namespace arnet::core
