#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::obs {
class MetricsRegistry;
}

namespace arnet::slo {

/// SLO alert states. `kFastBurn` means the short window is consuming error
/// budget so fast the objective dies within the fast horizon; `kSlowBurn`
/// is the sustained-drift signal over the long window. Fast takes priority.
enum class AlertState : std::uint8_t {
  kOk,
  kSlowBurn,
  kFastBurn,
};

const char* to_string(AlertState s);

/// One transition of the alert state machine (entering an alerting state or
/// clearing back to ok). The alert callback fires only on entering.
struct AlertEvent {
  sim::Time time = 0;
  AlertState state = AlertState::kOk;  ///< state entered
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

/// Periodic burn-rate sample, taken once per wheel slot so a report can draw
/// the fast/slow burn timelines without replaying the run.
struct BurnSample {
  sim::Time time = 0;  ///< slot start
  double fast = 0.0;
  double slow = 0.0;
  AlertState state = AlertState::kOk;
};

/// One frame-deadline objective: "at least `objective` of frames complete
/// within `deadline_ms`". Burn rate is the SRE definition: observed miss
/// rate over a window divided by the error budget (1 - objective) — burn 1.0
/// consumes the budget exactly at the sustainable rate, burn 14.4 exhausts a
/// 30-day budget in 50 hours (scaled here to simulation horizons).
struct SloConfig {
  double deadline_ms = 75.0;  ///< the motion-to-photon budget (Table II)
  double objective = 0.99;    ///< target on-time fraction
  /// Burn windows. Fast catches cliff outages (a cell tipping over its
  /// capacity knee); slow catches sustained drift that a short window
  /// forgives between bursts.
  sim::Time fast_window = sim::seconds(5);
  sim::Time slow_window = sim::seconds(60);
  /// Alerting burn rates. An alert clears only once its window's burn falls
  /// below half its threshold — the hysteresis band that stops the state
  /// machine from flapping while burn oscillates around the threshold.
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
  /// Wheel resolution: fast_window is split into this many slots; the slow
  /// window reuses the same slot width. More slots = finer expiry at the
  /// cost of a longer ring.
  int slots_per_fast_window = 10;
  /// A window with fewer completed frames than this never alerts (cold
  /// start / drained cell: one missed frame out of two is not burn 50).
  std::int64_t min_samples = 20;
  std::size_t max_alerts = 256;  ///< alert log bound
  std::string entity = "slo";    ///< export scope name
};

/// Deterministic windowed burn-rate tracker + alert state machine for one
/// objective (one cell, one session class). All state advances through
/// observe()/observe_miss() on simulation time only — no wall clock, no
/// randomness — so a tracker-attached run is bit-identical to a detached
/// one and serial/parallel sweeps export byte-identical SLO logs.
class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Feed one completed frame: missed iff latency_ms > deadline_ms.
  void observe(sim::Time now, double latency_ms);
  /// Feed a frame that never completed (counts as a miss).
  void observe_miss(sim::Time now);
  /// Feed an aggregate of frames completing at `now`: `good` on-time and
  /// `miss` late, all landing in one wheel slot with a single advance and a
  /// single alert evaluation. Window sums and totals end up exactly as if
  /// observe()/observe_miss() had been called good+miss times at the same
  /// timestamp; only intra-batch alert transitions are collapsed. This is
  /// what lets a fluid-mode cell report thousands of frames per tick at
  /// O(1) cost instead of per-frame events.
  void observe_batch(sim::Time now, std::int64_t good, std::int64_t miss);

  /// Fired on every transition *into* an alerting state (never on clear);
  /// the scenario layer wires this to FlightRecorder::dump so a burning
  /// cell leaves its trace timeline behind.
  void set_alert_callback(std::function<void(const AlertEvent&)> cb) {
    on_alert_ = std::move(cb);
  }

  AlertState state() const { return state_; }
  double burn_fast() const;
  double burn_slow() const;
  std::int64_t good() const { return total_good_; }
  std::int64_t miss() const { return total_miss_; }
  const SloConfig& config() const { return cfg_; }
  const std::vector<AlertEvent>& alerts() const { return alerts_; }
  std::uint64_t alerts_dropped() const { return alerts_dropped_; }
  /// The burn timeline, bounded at 4096 samples.
  const std::vector<BurnSample>& burn_samples() const { return burn_samples_; }
  /// Total transitions into an alerting state (clears not counted).
  std::uint64_t alert_episodes() const { return alert_episodes_; }

  /// Publish burn/state gauges under `config().entity` ("slo.burn_fast",
  /// "slo.burn_slow", "slo.state", "slo.alert_episodes").
  void publish(obs::MetricsRegistry& reg) const;

 private:
  struct Slot {
    std::int64_t good = 0;
    std::int64_t miss = 0;
  };

  void record(sim::Time now, bool missed);
  void advance(sim::Time now);
  void evaluate(sim::Time now);
  double burn_from(const Slot& window) const;
  void sample_burn(sim::Time slot_start);

  SloConfig cfg_;
  sim::Time slot_width_ = 1;
  std::size_t fast_slots_ = 1;        ///< slots covering the fast window
  std::vector<Slot> wheel_;           ///< ring covering the slow window
  std::int64_t cur_slot_ = -1;        ///< absolute slot index of wheel head
  /// Running window sums, maintained incrementally as slots expire so
  /// evaluate() never rescans the wheel: fast_ covers the last fast_slots_
  /// slots, slow_ the whole wheel.
  Slot fast_;
  Slot slow_;
  std::int64_t total_good_ = 0;
  std::int64_t total_miss_ = 0;
  AlertState state_ = AlertState::kOk;
  std::vector<AlertEvent> alerts_;
  std::uint64_t alerts_dropped_ = 0;
  std::uint64_t alert_episodes_ = 0;
  std::vector<BurnSample> burn_samples_;
  std::function<void(const AlertEvent&)> on_alert_;
};

/// `arnet-slo-v1` JSONL: a meta line, then per tracker one "objective"
/// summary line, its "alert" transitions, and its "burn" timeline samples,
/// closed by an "end" line. Deterministic given deterministic tracker
/// state (shortest-round-trip doubles, insertion order preserved).
void write_slo_jsonl(const std::vector<const SloTracker*>& trackers, std::ostream& os);

}  // namespace arnet::slo
