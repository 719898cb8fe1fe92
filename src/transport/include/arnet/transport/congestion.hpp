#pragma once

#include <algorithm>

#include "arnet/sim/time.hpp"

namespace arnet::transport {

/// Feedback digest handed to the rate controller once per feedback epoch.
struct CcFeedback {
  sim::Time owd = 0;            ///< latest one-way delay sample
  sim::Time min_owd = 0;        ///< lowest one-way delay seen on the path
  double loss_fraction = 0.0;   ///< losses during the epoch
};

/// ARTP's per-path rate controller (paper §VI-B: "a sudden rise of delay or
/// jitter should be treated as a congestion indication, with immediate
/// reaction"). The protocol cannot shrink a window of queued real-time data,
/// so the controller outputs an allowed *send rate* that the degradation
/// machinery honors.
///
/// AIMD on rate: additive increase while the standing queue delay
/// (owd - min_owd) stays below `kQueueThreshold`; multiplicative decrease
/// proportional to how far delay has risen, plus a loss response. Reacting to
/// delay keeps the uplink queue short so downloads sharing the bottleneck are
/// not harmed (the Fig. 3 pathology).
class DelayGradientController {
 public:
  static constexpr double kMinRateBps = 64e3;
  static constexpr double kMaxRateBps = 1e9;
  static constexpr sim::Time kQueueThreshold = sim::milliseconds(15);
  static constexpr double kIncreaseBpsPerEpoch = 200e3;
  static constexpr double kDecreaseFactor = 0.85;
  static constexpr double kLossDecreaseFactor = 0.7;
  static constexpr double kLossTolerance = 0.02;  ///< losses below this are noise

  explicit DelayGradientController(double initial_rate_bps = 1e6) : rate_(initial_rate_bps) {}

  /// Digest one feedback epoch into the allowed sending rate.
  void on_feedback(const CcFeedback& fb) {
    sim::Time standing = fb.owd - fb.min_owd;
    // Loss is treated as congestion only when the queueing delay corroborates
    // it; random wireless loss with an empty queue is left to FEC/NACKs
    // rather than starving the flow (paper §VI-B/C trade-off).
    bool congestion_loss = fb.loss_fraction > kLossTolerance && standing > kQueueThreshold / 2;
    if (congestion_loss) {
      rate_ *= kLossDecreaseFactor;
    } else if (standing > kQueueThreshold) {
      // Scale the decrease with the delay excess, saturating at 2x threshold.
      double excess = std::min<double>(
          static_cast<double>(standing - kQueueThreshold) / static_cast<double>(kQueueThreshold),
          1.0);
      rate_ *= kDecreaseFactor - 0.15 * excess;
    } else {
      // Additive probe. Overshoot is bounded by the standing-delay response
      // above; capping against the receiver's observed rate would deadlock
      // an app-limited or shedding sender at its own (low) current rate.
      rate_ += kIncreaseBpsPerEpoch;
    }
    rate_ = std::clamp(rate_, kMinRateBps, kMaxRateBps);
  }

  double rate_bps() const { return rate_; }

 private:
  double rate_;
};

}  // namespace arnet::transport
