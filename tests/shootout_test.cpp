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
#include "golden.hpp"

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

using golden::Row;

std::string render(const ShootoutCellResult& r) {
  return Row{}
      .s(r.name).i(r.frames_sent).i(r.frames_on_time).i(r.frames_late).i(r.frames_incomplete)
      .d(r.hit_ratio).d(r.mean_ms).d(r.p50_ms).d(r.p90_ms).d(r.p99_ms).d(r.min_ms).d(r.max_ms)
      .d(r.goodput_mbps).d(r.sim_seconds)
      .str();
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

// The 15-cell grid at 5 s, seed 7, run once for both golden tests below.
const std::vector<ShootoutCellResult>& golden_grid() {
  static const std::vector<ShootoutCellResult> results = [] {
    std::vector<ShootoutCellResult> out;
    for (const ShootoutCellConfig& cfg : small_grid(sim::seconds(5))) {
      out.push_back(run_shootout_cell(cfg, 7));
    }
    return out;
  }();
  return results;
}

// Every outcome field of the golden grid. Recorded at commit 06c5a9a,
// before the shootout scored frames through sim::FrameLedger; any change to
// how a frame is counted or summarized shows up here.
TEST(Shootout, CellResultGoldens) {
  const char* const rows[] = {
      "ARTP/WiFi 150 150 0 0 0x1p+0 0x1.f40a26aa38ce6p+3 0x1.b399e30014f8bp+3 "
      "0x1.321bfc4a68d9dp+4 0x1.34d0baff6fe22p+5 0x1.48ef36ef8056p+3 0x1.42f26b723ee1cp+5 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "Reno/WiFi 150 150 0 0 0x1p+0 0x1.04963024a79b7p+4 0x1.b55556084a516p+3 0x1.9p+4 "
      "0x1.9p+4 0x1.4aaaac1094a2cp+3 0x1.9000010c6f7a1p+4 0x1.ccccccccccccdp+2 0x1.4p+2",
      "CUBIC/WiFi 150 150 0 0 0x1p+0 0x1.04963024a79b7p+4 0x1.b55556084a516p+3 0x1.9p+4 "
      "0x1.9p+4 0x1.4aaaac1094a2cp+3 0x1.9000010c6f7a1p+4 0x1.ccccccccccccdp+2 0x1.4p+2",
      "BBR/WiFi 150 150 0 0 0x1p+0 0x1.f147aecb041f1p+3 0x1.655556084a516p+3 0x1.9p+4 "
      "0x1.9p+4 0x1.4aaaac1094a2cp+3 0x1.9000010c6f7a1p+4 0x1.ccccccccccccdp+2 0x1.4p+2",
      "QUIC-lite/WiFi 150 150 0 0 0x1p+0 0x1.6e81f05372fep+3 0x1.4aeb1c432ca58p+3 "
      "0x1.b5af9873ffac2p+3 0x1.b5af9873ffac2p+3 0x1.4aeb1c432ca58p+3 0x1.b5af9873ffac2p+3 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "ARTP/LTE 150 0 7 143 0x0p+0 0x1.3f14f065399bbp+7 0x1.0b5fe260b2c84p+7 "
      "0x1.fdab3079448fap+7 0x1.65e8bd667d626p+8 0x1.41b9068986fcep+6 0x1.715ca515ce9e6p+8 "
      "0x1.5810624dd2f1ap-2 0x1.4p+2",
      "Reno/LTE 150 0 150 0 0x0p+0 0x1.ce62fca1985d9p+7 0x1.15p+8 0x1.91aaaab042529p+8 "
      "0x1.ad570a404ac8dp+8 0x1.a2aaab042528bp+5 0x1.ae55556084a51p+8 0x1.ccccccccccccdp+2 "
      "0x1.4p+2",
      "CUBIC/LTE 150 0 150 0 0x0p+0 0x1.d7369d0ed2646p+7 0x1.1c000008637bdp+8 "
      "0x1.91aaaab042529p+8 0x1.ad570a404ac8dp+8 0x1.a2aaab042528bp+5 0x1.ae55556084a51p+8 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "BBR/LTE 150 0 150 0 0x0p+0 0x1.9cd70a48d937fp+7 0x1.de000010c6f7ap+7 "
      "0x1.6f111111a03b8p+8 0x1.85340dacbbe04p+8 0x1.a2aaab042528bp+5 0x1.8b55556084a51p+8 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "QUIC-lite/LTE 150 0 150 0 0x0p+0 0x1.a3ffec24ba2cep+6 0x1.1d965e8922531p+6 "
      "0x1.9d984d551d68cp+7 0x1.c89ed1c7de508p+7 0x1.a182ce4649907p+5 0x1.d31489b0ee49fp+7 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "ARTP/5G-NR 150 44 5 101 0x1.2c5f92c5f92c6p-2 0x1.c446a9ed18754p+4 0x1.346c258d5842bp+4 "
      "0x1.929306a2b1713p+5 0x1.987b21d740432p+6 0x1.36c0fcb4f1e4bp+3 0x1.a20fb9bed30fp+6 "
      "0x1.2d0e560418937p+1 0x1.4p+2",
      "Reno/5G-NR 150 121 29 0 0x1.9d0369d0369dp-1 0x1.b64b183ff61d2p+4 0x1.eaaaac1094a2cp+2 "
      "0x1.bccccccccccccp+6 0x1.fe111132d8447p+6 0x1.6aaaac1094a2cp+2 0x1.02p+7 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "CUBIC/5G-NR 150 121 29 0 0x1.9d0369d0369dp-1 0x1.b64b183ff61d2p+4 0x1.eaaaac1094a2cp+2 "
      "0x1.bccccccccccccp+6 0x1.fe111132d8447p+6 0x1.6aaaac1094a2cp+2 0x1.02p+7 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "BBR/5G-NR 150 58 92 0 0x1.8bf258bf258bfp-2 0x1.be851ebe06352p+8 0x1.212aaab042529p+8 "
      "0x1.12d999999999ap+10 0x1.3536d3a11c9acp+10 0x1.9555582129457p+2 0x1.36d5555821294p+10 "
      "0x1.ccccccccccccdp+2 0x1.4p+2",
      "QUIC-lite/5G-NR 150 121 29 0 0x1.9d0369d0369dp-1 0x1.cffcb4dc6b259p+4 "
      "0x1.3dac083126e98p+3 0x1.bc68a2d806bcap+6 0x1.ffe02b5d25f5dp+6 0x1.1ba8f7db6e504p+3 "
      "0x1.02307485e3da3p+7 0x1.ccccccccccccdp+2 0x1.4p+2",
  };
  const std::vector<ShootoutCellResult>& results = golden_grid();
  ASSERT_EQ(results.size(), std::size(rows));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(render(results[i]), rows[i]);
  }
}

// Simulator events each golden cell dispatches: pure work, kept apart from
// the outcomes above so that a change which only removes work re-records
// these counts and no outcome.
TEST(Shootout, CellWorkCountGoldens) {
  const std::int64_t events[] = {
      6641,  15920, 15920, 16246, 9344,   // WiFi
      1725,  15382, 15433, 15289, 8717,   // LTE
      3291,  15545, 15548, 16669, 11200,  // 5G NR
  };
  const std::vector<ShootoutCellResult>& results = golden_grid();
  ASSERT_EQ(results.size(), std::size(events));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sim_events, events[i]) << results[i].name;
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
        lc.deadline_ms = sim::to_milliseconds(kShootoutDeadline);
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
