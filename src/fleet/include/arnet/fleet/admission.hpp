#pragma once

#include <cstdint>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::fleet {

enum class AdmissionDecision {
  kAdmit,      ///< full-quality session
  kDowngrade,  ///< admitted at reduced frame rate (graceful degradation)
  kReject,     ///< turned away
};

const char* to_string(AdmissionDecision d);

/// The controller rejects new sessions once the projected p99 exceeds
/// mar::kFrameDeadline and readmits only below 0.80 of it: the hysteresis
/// band that stops it flapping while p99 oscillates around the budget.
/// Between 0.90 of the deadline and the deadline it admits them degraded.
struct AdmissionConfig {
  /// Off = open loop: every session is admitted full-quality and nothing is
  /// logged. The capacity sweeps disable admission so the measured knee is a
  /// property of the serving path, not of the control loop reacting to it.
  bool enabled = true;
  bool allow_downgrade = true;
  /// Recent completed-frame latencies considered by the projection (>= 1).
  std::size_t window = 256;
  /// Admit unconditionally until this many samples exist (cold start).
  std::size_t min_samples = 32;
};

/// Per-decision log entry; the determinism tests compare these across runs.
struct AdmissionLogEntry {
  sim::Time time = 0;
  std::uint64_t session = 0;
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  double projected_p99_ms = 0.0;
};

/// Windowed-p99 admission control with hysteresis. The projection is the
/// p99 over the last `window` completed frame latencies — the live signal of
/// what the serving path currently delivers; a new session is only turned
/// away (or degraded) when that projection says its frames would blow the
/// deadline too. Purely reactive and deterministic: no randomness, state
/// advances only through observe()/decide().
///
/// The projection is exact (the same element a sort of the window would put
/// at index floor(0.99 * (n - 1))) but cached: that element is the k-th
/// largest with k = n - floor(0.99 * (n - 1)), and k never exceeds its value
/// at the full window (4 at the default 256). The ring is split into
/// kBlock-slot blocks, each keeping a descending list of its k largest
/// samples. A query rescans only the blocks written since the previous query
/// and takes the k-th largest of the merged lists: each of the window's k
/// largest samples is among the k largest of its own block.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg);

  /// Feed one completed frame's end-to-end latency. O(1).
  void observe_latency_ms(double ms) {
    latencies_[next_slot_] = ms;
    if (++next_slot_ == cfg_.window) next_slot_ = 0;
    if (filled_ < cfg_.window) ++filled_;
    ++unqueried_;
  }

  AdmissionDecision decide(sim::Time now, std::uint64_t session);

  /// p99 over the current window (0 until any sample exists).
  double projected_p99_ms() const;

  bool overloaded() const { return overloaded_; }
  const std::vector<AdmissionLogEntry>& log() const { return log_; }

 private:
  static constexpr std::size_t kBlock = 32;  ///< ring slots per cached block

  void rescan_block(std::size_t block) const;

  AdmissionConfig cfg_;
  std::vector<double> latencies_;  ///< ring of recent latencies (window slots)
  std::size_t next_slot_ = 0;
  std::size_t filled_ = 0;  ///< slots holding a sample (saturates at window)
  std::size_t top_k_ = 1;   ///< k at the full window: the per-block list length
  bool overloaded_ = false;
  std::vector<AdmissionLogEntry> log_;
  /// Query cache, refreshed lazily by projected_p99_ms(): per block a
  /// descending list of its top_k_ largest samples (top_[b * top_k_ ...],
  /// top_len_[b] of them valid).
  mutable std::vector<double> top_;
  mutable std::vector<std::size_t> top_len_;
  mutable std::vector<double> merged_;  ///< merge buffer, top_k_ entries
  mutable std::size_t unqueried_ = 0;  ///< samples observed since the last query
  mutable double p99_ = 0.0;  ///< projection as of the last query
};

}  // namespace arnet::fleet
