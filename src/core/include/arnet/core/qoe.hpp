#pragma once

#include "arnet/mar/offload.hpp"

namespace arnet::core {

/// Inputs of the MOS-style quality-of-experience estimate.
struct QoeInputs {
  double median_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double miss_rate = 0.0;       ///< fraction of results over the deadline
  double result_rate_hz = 0.0;  ///< recognition results per second
  double target_fps = 30.0;
};

/// Mean-opinion-score-like QoE in [1, 5], anchored on the latency numbers
/// the paper collects (§III-B): <=20 ms is Abrash's seamless-AR bound
/// (~excellent), 75 ms is the working interactive budget (~fair at the
/// edge of it), 250 ms is telemetry-class (unusable for AR). Penalties for
/// deadline misses, jitter (p95/median spread), and starved frame rates
/// compose multiplicatively — any single failure ruins the experience,
/// matching how users grade AR.
double qoe_mos(const QoeInputs& in);

/// Convenience: derive the inputs from a finished offloading session.
QoeInputs qoe_inputs(const mar::OffloadStats& stats, double duration_s,
                     double target_fps = 30.0);

const char* qoe_grade(double mos);  ///< "excellent" .. "bad"

}  // namespace arnet::core
