#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace arnet::obs {

/// Identity of one metric instance: what is measured plus which entity it
/// belongs to. Entities are stable string keys ("flow:3", "link:uplink",
/// "queue:ap", "node:edge", "sta:2") so a registry dump groups naturally and
/// merges deterministically.
struct MetricId {
  std::string name;    ///< measurement, e.g. "tcp.cwnd" or "queue.sojourn_ms"
  std::string entity;  ///< owner, e.g. "flow:1"

  bool operator<(const MetricId& o) const {
    if (name != o.name) return name < o.name;
    return entity < o.entity;
  }
  bool operator==(const MetricId& o) const {
    return name == o.name && entity == o.entity;
  }
};

/// Monotonic event/byte counter.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }
  void merge(const Counter& o) { value_ += o.value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-value instrument (utilization, congestion level, MOS...).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    set_ = true;
  }
  double value() const { return value_; }
  bool has_value() const { return set_; }
  /// Merge keeps the other side's value when it has one (documented
  /// latest-wins; counters and histograms carry the associative state).
  void merge(const Gauge& o) {
    if (o.set_) {
      value_ = o.value_;
      set_ = true;
    }
  }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// A bucket's representative retained trace: the metrics-to-traces join.
/// When the tail sampler keeps a frame, its latency bucket remembers the
/// trace id so a report can deep-link "p99 bucket" straight to a concrete
/// per-frame timeline. Merge keeps the larger value (ties: lower trace id)
/// — an associative, commutative rule, so cross-shard merges agree no
/// matter the merge order.
struct Exemplar {
  std::uint32_t trace_id = 0;
  double value = 0.0;
};

/// Log-bucketed histogram for positive, latency-like values (ns, ms, bytes).
///
/// Buckets are geometric: kBucketsPerDecade per decade over [1, 10^kDecades),
/// so any reported quantile is within one bucket width — a relative error of
/// 10^(1/kBucketsPerDecade) - 1 ≈ 15% — of the exact sample quantile, while
/// the whole instrument is a fixed few hundred integers. Two histograms with
/// the same layout merge by adding bucket counts, which makes per-entity
/// registries aggregatable across runs, shards, or time windows.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kDecades = 12;
  /// Bucket 0 is the underflow bucket (v < 1, including non-positives);
  /// the last bucket absorbs overflow.
  static constexpr int kBucketCount = kBucketsPerDecade * kDecades + 2;

  void record(double v);
  /// Record with a trace exemplar: `trace_id` 0 behaves exactly like the
  /// plain overload (untraced), otherwise the value's bucket may adopt it
  /// as its representative (keep-max-value rule; see Exemplar).
  void record(double v, std::uint32_t trace_id);

  std::int64_t count() const { return count_; }
  double sum() const { return count_ ? sum_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Quantile estimate, `p` in [0, 1]: linear interpolation inside the
  /// containing bucket, clamped to the exact observed [min, max].
  double percentile(double p) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }

  void merge(const Histogram& o);

  /// Sparse view of the occupied buckets, for export: (index, count) pairs.
  std::vector<std::pair<int, std::int64_t>> nonzero_buckets() const;

  /// Rebuild state from exported parts (importer side of the JSONL
  /// round-trip); merges into whatever is already recorded.
  void restore(const std::vector<std::pair<int, std::int64_t>>& buckets, double sum,
               double min_v, double max_v);

  /// Occupied exemplar slots, keyed by bucket index (sparse; ordered for
  /// deterministic export).
  const std::map<int, Exemplar>& exemplars() const { return exemplars_; }

  /// Importer-side exemplar merge (same keep-max rule as record/merge).
  void note_exemplar(int bucket, std::uint32_t trace_id, double value);

  /// Lower edge of bucket `i` (the value-domain boundary used for
  /// interpolation); exposed for tests.
  static double bucket_lower(int i);

  /// Bucket index of value `v`: 0 for underflow (v < 1, NaN), then
  /// kBucketsPerDecade log buckets per decade, clamped at the last bucket.
  static int bucket_of(double v);

 private:

  std::vector<std::int64_t> counts_;  ///< lazily sized to kBucketCount
  std::map<int, Exemplar> exemplars_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace arnet::obs
