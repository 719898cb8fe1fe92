#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "arnet/check/rng_audit.hpp"

namespace arnet::sim {

/// SplitMix64 finalizer over (root_seed, run_index): every run of a sweep
/// gets a statistically independent seed, and run k's seed depends only on
/// the root and k — never on how many workers executed the sweep or in what
/// order. This is what makes `--jobs N` output bit-identical to serial runs,
/// and it is how a model splits one seed into independent streams.
inline std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t run_index) {
  // SplitMix64 (Steele/Lea/Flood): advance the state by the golden-gamma
  // once per index, then finalize. run_index + 1 keeps run 0 from collapsing
  // onto the raw root.
  std::uint64_t z = root_seed + 0x9E3779B97F4A7C15ULL * (run_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Deterministic random stream.
///
/// Every stochastic component takes an `Rng` (or forks a substream from one)
/// so whole-scenario runs are reproducible from a single seed.
///
/// When a check::RngAuditor is active (ScopedRngAudit), construction
/// registers the stream and every draw through the named helpers reports to
/// it, so seed collisions and cross-thread draws surface as findings. With
/// no auditor active `audit_id_` stays 0 and the draw path is one predicted
/// branch. Copying an Rng duplicates the engine state *and* the stream id:
/// the copy's draws are attributed to the original stream, which is exactly
/// the attribution you want when hunting an accidental copy. Draws through
/// the raw engine() escape hatch are not audited.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {
    if (auto* a = check::active_rng_auditor()) {
      audit_id_ = a->on_register(seed);
    }
  }

  /// Derive an independent substream; `label` decorrelates components that
  /// fork from the same parent.
  Rng fork(std::string_view label) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (char c : label) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;
    }
    touch_();
    Rng child(h ^ engine_());
    if (audit_id_ != 0 && child.audit_id_ != 0) {
      if (auto* a = check::active_rng_auditor()) {
        a->on_fork(audit_id_, child.audit_id_, label);
      }
    }
    return child;
  }

  double uniform() {
    touch_();
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  double uniform(double lo, double hi) {
    touch_();
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    touch_();
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  bool bernoulli(double p) {
    touch_();
    return std::bernoulli_distribution(p)(engine_);
  }

  double exponential(double mean) {
    touch_();
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  double normal(double mean, double stddev) {
    touch_();
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Normal truncated below at `lo` (delays must not go negative).
  double normal_at_least(double mean, double stddev, double lo) {
    double v = normal(mean, stddev);
    return v < lo ? lo : v;
  }

  std::uint64_t next_u64() {
    touch_();
    return engine_();
  }

  std::mt19937_64& engine() { return engine_; }

  /// Auditor stream id; 0 when constructed with no auditor active.
  std::uint32_t audit_stream() const { return audit_id_; }

 private:
  void touch_() {
    if (audit_id_ != 0) {
      if (auto* a = check::active_rng_auditor()) {
        a->on_draw(audit_id_);
      }
    }
  }

  std::mt19937_64 engine_;
  std::uint32_t audit_id_ = 0;
};

}  // namespace arnet::sim
