#include "arnet/core/qoe.hpp"

#include <algorithm>
#include <cmath>

#include "arnet/check/assert.hpp"

namespace arnet::core {

namespace {

/// Smooth score in [0,1]: ~1 below `good`, ~0 above `bad`.
double logistic_score(double value, double good, double bad) {
  double mid = 0.5 * (good + bad);
  double scale = (bad - good) / 6.0;  // ~±3 sigmoid widths across the band
  return 1.0 / (1.0 + std::exp((value - mid) / std::max(scale, 1e-9)));
}

}  // namespace

double qoe_mos(const QoeInputs& in) {
  // Latency: 20 ms (Abrash) -> 250 ms (telemetry-class, dead for AR).
  double latency_score = logistic_score(in.median_latency_ms, 20.0, 250.0);
  // Jitter proxy: a p95 far above the median breaks the virtual layer's
  // stability even when the median is fine. Band is wider than the latency
  // one: prediction/tracking hides occasional slow refreshes (paper §III-B
  // cites motion prediction hiding latency).
  double spread = std::max(in.p95_latency_ms - in.median_latency_ms, 0.0);
  double jitter_score = logistic_score(spread, 25.0, 400.0);
  // Deadline misses: occasional (<2 %) invisible, frequent (>40 %) fatal.
  double miss_score = logistic_score(in.miss_rate * 100.0, 2.0, 40.0);
  // Result rate vs the camera rate: stale augmentations drift.
  double rate = in.target_fps > 0 ? std::clamp(in.result_rate_hz / in.target_fps, 0.0, 1.0)
                                  : 1.0;
  double rate_score = rate * rate;  // dropping half the frames hurts more than half

  double composite = latency_score * jitter_score * miss_score * rate_score;
  double mos = 1.0 + 4.0 * composite;
  // MOS is on the 1..5 ACR scale by construction; NaN inputs (e.g. an empty
  // latency sample set divided through) would otherwise propagate into every
  // table that reports QoE.
  ARNET_CHECK(mos >= 1.0 && mos <= 5.0, "QoE MOS ", mos,
              " outside [1,5] — check inputs (median=", in.median_latency_ms,
              "ms, p95=", in.p95_latency_ms, "ms, miss=", in.miss_rate, ")");
  return mos;
}

QoeInputs qoe_inputs(const mar::OffloadStats& stats, double duration_s, double target_fps) {
  QoeInputs in;
  in.median_latency_ms = stats.latency_ms.median();
  in.p95_latency_ms = stats.latency_ms.percentile(0.95);
  in.miss_rate = stats.miss_rate();
  in.result_rate_hz = duration_s > 0 ? static_cast<double>(stats.results) / duration_s : 0.0;
  in.target_fps = target_fps;
  return in;
}

const char* qoe_grade(double mos) {
  if (mos >= 4.3) return "excellent";
  if (mos >= 3.5) return "good";
  if (mos >= 2.5) return "fair";
  if (mos >= 1.7) return "poor";
  return "bad";
}

}  // namespace arnet::core
