#pragma once

#include <cstddef>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::fleet {

/// The fleet samples windowed mean lane utilization every kAutoscaleTick;
/// the autoscaler scales out while it is at or above 0.75 and in while it is
/// at or below 0.25.
inline constexpr sim::Time kAutoscaleTick = sim::milliseconds(250);

struct AutoscalerConfig {
  bool enabled = false;
  std::size_t min_servers = 1;
  std::size_t max_servers = 8;
  /// Consecutive ticks the signal must hold before acting — transient
  /// spikes (one burst arrival) must not add capacity.
  int sustain_ticks = 3;
  /// Minimum spacing between consecutive scale actions.
  sim::Time cooldown = sim::seconds(1);
};

enum class ScaleAction { kNone, kOut, kIn };

struct ScaleEvent {
  sim::Time time = 0;
  ScaleAction action = ScaleAction::kNone;
  double utilization = 0.0;
  std::size_t servers_after = 0;
};

/// Threshold autoscaler as a pure state machine: the fleet feeds it one
/// utilization sample per tick and applies whatever action comes back. No
/// simulator or randomness inside, so the policy is unit-testable and
/// trivially deterministic.
class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerConfig cfg) : cfg_(cfg) {}

  /// One tick: windowed mean utilization of the active set, current active
  /// server count. Returns the action to apply now (the caller records it
  /// back via `applied`).
  ScaleAction evaluate(sim::Time now, double utilization, std::size_t active_servers);

  /// Record an applied action (for the event log; the cooldown clock is
  /// stamped by evaluate() when it returns the action).
  void applied(sim::Time now, ScaleAction action, double utilization,
               std::size_t servers_after) {
    events_.push_back(ScaleEvent{now, action, utilization, servers_after});
  }

  const std::vector<ScaleEvent>& events() const { return events_; }
  const AutoscalerConfig& config() const { return cfg_; }

 private:
  AutoscalerConfig cfg_;
  int above_streak_ = 0;
  int below_streak_ = 0;
  bool acted_once_ = false;
  sim::Time last_action_ = 0;
  std::vector<ScaleEvent> events_;
};

}  // namespace arnet::fleet
