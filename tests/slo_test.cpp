// SLO engine tests: windowed burn-rate math, the alert state machine and
// its hysteresis band, cold-start gating, idle-window expiry, the alert
// callback contract, export determinism, and the bounded log accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arnet/obs/registry.hpp"
#include "arnet/sim/time.hpp"
#include "arnet/slo/slo.hpp"

namespace arnet {
namespace {

using sim::milliseconds;
using sim::seconds;

// A small objective for readable arithmetic: 10 ms deadline, 90% target
// (error budget 0.1), 1 s fast window in 10 slots, 10 s slow window.
slo::SloConfig small_cfg() {
  slo::SloConfig cfg;
  cfg.deadline_ms = 10.0;
  cfg.objective = 0.9;
  cfg.fast_window = seconds(1);
  cfg.slow_window = seconds(10);
  cfg.slots_per_fast_window = 10;
  cfg.min_samples = 10;
  cfg.entity = "test";
  return cfg;
}

// Feed `good` on-time and `miss` late frames, interleaved, all inside one
// fast window starting at `t0`.
void feed(slo::SloTracker& t, sim::Time t0, int good, int miss) {
  const int total = good + miss;
  for (int i = 0; i < total; ++i) {
    const sim::Time at = t0 + i * (seconds(1) / (total + 1));
    if (i < miss) {
      t.observe(at, 20.0);  // past the 10 ms deadline
    } else {
      t.observe(at, 1.0);
    }
  }
}

TEST(SloBurn, BurnIsMissRateOverErrorBudget) {
  slo::SloTracker t(small_cfg());
  feed(t, 0, 15, 5);  // miss rate 0.25, budget 0.1 -> burn 2.5
  EXPECT_NEAR(t.burn_fast(), 2.5, 1e-9);
  EXPECT_NEAR(t.burn_slow(), 2.5, 1e-9);  // same frames fill both windows
  EXPECT_EQ(t.good(), 15);
  EXPECT_EQ(t.miss(), 5);
}

TEST(SloBurn, ObserveClassifiesAgainstDeadline) {
  slo::SloTracker t(small_cfg());
  t.observe(0, 10.0);  // exactly on deadline: good (miss iff strictly over)
  t.observe(1, 10.001);
  EXPECT_EQ(t.good(), 1);
  EXPECT_EQ(t.miss(), 1);
  t.observe_miss(2);
  EXPECT_EQ(t.miss(), 2);
}

TEST(SloBurn, MinSamplesGatesColdStart) {
  auto cfg = small_cfg();  // min_samples = 10
  cfg.fast_burn_threshold = 8.0;
  slo::SloTracker t(cfg);
  for (int i = 0; i < 9; ++i) t.observe_miss(milliseconds(i));
  // 9/9 missed, but the window is below min_samples: no burn, no alert.
  EXPECT_NEAR(t.burn_fast(), 0.0, 1e-9);
  EXPECT_EQ(t.state(), slo::AlertState::kOk);
  t.observe_miss(milliseconds(9));  // 10th sample arms the window
  EXPECT_NEAR(t.burn_fast(), 10.0, 1e-9);
  EXPECT_EQ(t.state(), slo::AlertState::kFastBurn);
}

TEST(SloAlert, EntersFastBurnThenClearsWithHysteresis) {
  auto cfg = small_cfg();
  cfg.fast_burn_threshold = 5.0;
  cfg.slow_burn_threshold = 5.0;
  slo::SloTracker t(cfg);

  // 10 miss + 10 good inside one fast window: burn 5.0 -> enter fast-burn.
  for (int i = 0; i < 10; ++i) t.observe_miss(milliseconds(i * 40));
  for (int i = 0; i < 10; ++i) t.observe(milliseconds(400 + i * 40), 1.0);
  EXPECT_EQ(t.state(), slo::AlertState::kFastBurn);
  ASSERT_EQ(t.alerts().size(), 1u);
  EXPECT_EQ(t.alerts()[0].state, slo::AlertState::kFastBurn);

  // 13 healthy frames in the same window pull burn to ~3.0 — inside the
  // hysteresis band (2.5, 5.0) — so the alert must hold without flapping.
  for (int i = 0; i < 13; ++i) t.observe(milliseconds(800 + i * 10), 1.0);
  EXPECT_EQ(t.state(), slo::AlertState::kFastBurn);
  EXPECT_EQ(t.alerts().size(), 1u);

  // 50 more healthy frames push burn below half the threshold: clears.
  for (int i = 0; i < 50; ++i) t.observe(milliseconds(930 + i), 1.0);
  EXPECT_EQ(t.state(), slo::AlertState::kOk);
}

TEST(SloAlert, SustainedDriftTripsSlowBurnWithoutFastBurn) {
  auto cfg = small_cfg();
  cfg.fast_burn_threshold = 14.4;  // fast never trips at 50% miss
  cfg.slow_burn_threshold = 4.0;
  slo::SloTracker t(cfg);
  for (int w = 0; w < 8; ++w) feed(t, seconds(w), 10, 10);  // burn 5 sustained
  EXPECT_EQ(t.state(), slo::AlertState::kSlowBurn);
  EXPECT_NEAR(t.burn_slow(), 5.0, 1e-9);
}

TEST(SloAlert, IdleGapLongerThanWheelForgetsHistory) {
  slo::SloTracker t(small_cfg());
  feed(t, 0, 0, 20);  // 100% miss -> burning
  EXPECT_GT(t.burn_fast(), 0.0);
  // An idle gap longer than the slow window wipes the wheel: the first
  // frame of the new era sees empty windows (and min_samples gating).
  t.observe(seconds(30), 1.0);
  EXPECT_NEAR(t.burn_fast(), 0.0, 1e-9);
  EXPECT_NEAR(t.burn_slow(), 0.0, 1e-9);
  // Totals survive the wipe — they are run-lifetime accounting.
  EXPECT_EQ(t.miss(), 20);
  EXPECT_EQ(t.good(), 1);
}

TEST(SloAlert, CallbackFiresOncePerEpisodeNeverOnClear) {
  auto cfg = small_cfg();
  cfg.fast_burn_threshold = 5.0;
  slo::SloTracker t(cfg);
  std::vector<slo::AlertEvent> fired;
  t.set_alert_callback([&](const slo::AlertEvent& e) { fired.push_back(e); });

  feed(t, 0, 0, 20);            // enter fast-burn: one callback
  feed(t, seconds(20), 50, 0);  // long gap + healthy: clears silently
  EXPECT_EQ(t.state(), slo::AlertState::kOk);
  feed(t, seconds(40), 0, 20);  // second episode

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].state, slo::AlertState::kFastBurn);
  EXPECT_EQ(fired[1].state, slo::AlertState::kFastBurn);
  EXPECT_EQ(t.alert_episodes(), 2u);
  // The transition log also carries the clears; episodes counts entries only.
  EXPECT_GE(t.alerts().size(), 3u);
}

TEST(SloAlert, AlertLogBoundDropsButCounts) {
  auto cfg = small_cfg();
  cfg.fast_burn_threshold = 5.0;
  cfg.max_alerts = 2;
  slo::SloTracker t(cfg);
  // 30 s cycles: each gap exceeds the 10 s slow window, so every episode
  // starts from a wiped wheel and cleanly enters then clears.
  for (int w = 0; w < 6; ++w) {
    feed(t, seconds(30 * w), 0, 20);        // enter
    feed(t, seconds(30 * w + 15), 50, 0);   // clear
  }
  EXPECT_EQ(t.alerts().size(), 2u);
  EXPECT_GT(t.alerts_dropped(), 0u);
  EXPECT_EQ(t.alert_episodes(), 6u);  // episodes keep counting past the bound
}

TEST(SloBurn, TimelineSamplesOncePerSlotBoundary) {
  slo::SloTracker t(small_cfg());
  feed(t, 0, 20, 0);  // 20 frames inside one fast window: 10 slots crossed
  const std::size_t n = t.burn_samples().size();
  EXPECT_GT(n, 0u);
  EXPECT_LE(n, 20u);
  // Sample times are strictly increasing slot starts.
  for (std::size_t i = 1; i < t.burn_samples().size(); ++i) {
    EXPECT_LT(t.burn_samples()[i - 1].time, t.burn_samples()[i].time);
  }
}

TEST(SloExport, ByteIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    slo::SloTracker a(small_cfg());
    auto cfg_b = small_cfg();
    cfg_b.entity = "cell-b";
    slo::SloTracker b(cfg_b);
    feed(a, 0, 17, 3);
    feed(b, 0, 0, 25);
    std::ostringstream os;
    slo::write_slo_jsonl({&a, &b}, os);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"schema\":\"arnet-slo-v1\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"objective\""), std::string::npos);
  EXPECT_NE(first.find("\"entity\":\"cell-b\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"end\",\"objectives\":2"), std::string::npos);
}

TEST(SloObs, PublishExportsGauges) {
  slo::SloTracker t(small_cfg());
  feed(t, 0, 15, 5);
  obs::MetricsRegistry reg;
  t.publish(reg);
  EXPECT_NEAR(reg.gauge("slo.burn_fast", "test").value(), 2.5, 1e-9);
  EXPECT_NEAR(reg.gauge("slo.burn_slow", "test").value(), 2.5, 1e-9);
}

}  // namespace
}  // namespace arnet
