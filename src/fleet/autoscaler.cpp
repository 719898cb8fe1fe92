#include "arnet/fleet/autoscaler.hpp"

namespace arnet::fleet {

namespace {

/// Windowed mean lane utilization thresholds (see AutoscalerConfig).
constexpr double kScaleOutUtil = 0.75;
constexpr double kScaleInUtil = 0.25;

}  // namespace

ScaleAction Autoscaler::evaluate(sim::Time now, double utilization,
                                 std::size_t active_servers) {
  if (!cfg_.enabled) return ScaleAction::kNone;
  if (utilization >= kScaleOutUtil) {
    ++above_streak_;
    below_streak_ = 0;
  } else if (utilization <= kScaleInUtil) {
    ++below_streak_;
    above_streak_ = 0;
  } else {
    above_streak_ = below_streak_ = 0;
  }
  const bool cooled = !acted_once_ || now - last_action_ >= cfg_.cooldown;
  if (!cooled) return ScaleAction::kNone;
  if (above_streak_ >= cfg_.sustain_ticks && active_servers < cfg_.max_servers) {
    above_streak_ = 0;
    acted_once_ = true;
    last_action_ = now;
    return ScaleAction::kOut;
  }
  if (below_streak_ >= cfg_.sustain_ticks && active_servers > cfg_.min_servers) {
    below_streak_ = 0;
    acted_once_ = true;
    last_action_ = now;
    return ScaleAction::kIn;
  }
  return ScaleAction::kNone;
}

}  // namespace arnet::fleet
