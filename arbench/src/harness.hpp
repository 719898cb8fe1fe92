// Shared pieces of the arnet end-to-end benchmark: host clock, result
// digests, span log, and the workload interface the arbench binary runs.
//
// Everything here measures from *outside* the library: spans wrap public
// calls made by the benchmark's own code, and counts are read from public
// results, accessors, or a benchmark-owned trace::TraceSink.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace arbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// FNV-1a over the fields of one op's simulated outcome. Doubles are hashed
/// by bit pattern, so any change to a simulated number changes the digest.
/// Work counts (simulator events, fluid ticks) stay out of it: doing the same
/// thing with less work is not a different outcome. The arbench binary pins
/// those counts per seed instead, round against round.
class Digest {
 public:
  Digest& u(std::uint64_t v);
  Digest& i(std::int64_t v) { return u(static_cast<std::uint64_t>(v)); }
  Digest& f(double v);
  Digest& s(std::string_view v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Exact work counts and simulated tallies of one op, keyed by metric name
/// ("sim.events", "fleet.frames", ...). Summed per round by the arbench binary.
using Counts = std::map<std::string, double>;

/// What one op returns to the arbench binary.
struct OpRecord {
  std::string kind;        ///< op category, e.g. "shootout/artp/wifi"
  std::uint64_t digest = 0;
  std::string violation;   ///< first conservation check that failed ("" = held)
  Counts counts;
  // Filled by the arbench binary.
  double ms = 0.0;         ///< host wall time of the op
  double end_ms = 0.0;     ///< op end, relative to the round start
  std::size_t worker = 0;  ///< runner worker that executed the op
};

/// One span: a public call made by the benchmark, timed on the host clock.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  std::int64_t op = -1;   ///< op index within the round, -1 for set-up
  int round = 0;
};

/// In-memory span store for serial traced rounds (not thread-safe; traced
/// rounds never fan out). Written out once, when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_op(std::int64_t op, int round) {
    op_ = op;
    round_ = round;
  }
  int open(const char* name, const char* layer);
  void close(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Per layer: {total span time, self time}. Self time is a span's duration
  /// minus the part its child spans cover.
  std::map<std::string, std::pair<double, double>> layer_times() const;
  /// Durations of every span called `name`.
  std::vector<double> durations(std::string_view name) const;
  void write_jsonl(std::ostream& os, const std::string& workload) const;

 private:
  Clock::time_point origin_;
  std::int64_t op_ = -1;
  int round_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `log` is null (untraced rounds).
class Span {
 public:
  Span(SpanLog* log, const char* name, const char* layer)
      : log_(log), id_(log ? log->open(name, layer) : -1) {}
  ~Span() {
    if (log_) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// One benchmark workload: a fixed sweep of ops ("a round") whose inputs are
/// a pure function of the root seed. The arbench binary repeats rounds, serially and
/// through runner::ExperimentRunner, and checks every op's output.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of a round (configs, object database, frames) and
  /// runs one warm-up op per op kind. Repeatable: each call starts afresh.
  virtual void setup(SpanLog* spans) = 0;
  virtual std::size_t ops() const = 0;
  /// Runs op `i` with its per-op seed. Safe to call concurrently for
  /// distinct `i`. A non-null `spans` marks a traced round: the op records
  /// spans and attaches the workload's counting observers.
  virtual OpRecord run_op(std::size_t i, std::uint64_t seed, SpanLog* spans) = 0;
  /// Serial post-sweep step of a round (registry merge, exports), counted
  /// as one more op. nullopt when the workload has none.
  virtual std::optional<OpRecord> finish_round(SpanLog* spans) {
    (void)spans;
    return std::nullopt;
  }
  /// Digest and conservation verdict of op `i`'s last result after a
  /// deliberate corruption: the self-check that the output checks bite.
  virtual OpRecord corrupted(std::size_t i) const = 0;
};

std::unique_ptr<Workload> make_packet_sessions(std::uint64_t root);
std::unique_ptr<Workload> make_fleet_serving(std::uint64_t root);
std::unique_ptr<Workload> make_city_day(std::uint64_t root);
std::unique_ptr<Workload> make_vision_recognition(std::uint64_t root);

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
double median(std::vector<double> v);
/// The highest order statistic with at least `beyond` samples above it
/// (the largest value when there are not that many), and never below the
/// median: with fewer than 2 * beyond + 1 samples the tail is the median.
double tail(std::vector<double> v, std::size_t beyond = 10);

}  // namespace arbench
