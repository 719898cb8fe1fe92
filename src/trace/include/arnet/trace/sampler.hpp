#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::trace {

/// Tail-based sampling policy knobs. The seed feeds only the healthy-frame
/// reservoir (callers derive it from their run seed, e.g. via
/// sim::derive_seed) — anomaly retention is rule-based and needs no
/// randomness.
struct SamplerConfig {
  std::uint64_t seed = 1;
  /// Healthy exemplar frames kept via seeded reservoir sampling (Algorithm
  /// R): a uniform sample of the un-anomalous population, so a report can
  /// show what a *normal* frame's timeline looks like next to the tails.
  std::size_t reservoir_capacity = 16;
  /// Total spans retained across all frames — the bound that lets tracing
  /// survive city-scale runs. Lower-value retention classes are evicted to
  /// make room for higher-value ones; see TailSampler class comment.
  std::size_t span_budget = 8192;
  /// Per-frame span cap; excess spans are dropped and counted as truncated.
  std::size_t max_spans_per_frame = 64;
  /// Bound on the admission-anomaly note log (rejects/downgrades carry no
  /// trace context, so they are retained as notes, not span sets).
  std::size_t note_capacity = 1024;
  /// Completed frames slower than this are retained as "outlier" even when
  /// they made their deadline (callers track it to the live p99 projection).
  /// 0 disables the rule.
  double outlier_threshold_ms = 0.0;
};

/// Tail-based trace sampler: buffers every traced frame's spans while the
/// frame is in flight and decides retention only *after* the frame
/// completes — when its outcome is known. Retention verdicts, by priority:
///
///   "miss"      the frame completed past its deadline (kFrameMiss)
///   "drop"      the frame saw a kDrop/kShed span (data died with a reason)
///   "outlier"   completed above the current outlier threshold (live p99)
///   "reservoir" healthy frame kept by the seeded reservoir
///
/// Everything else is forgotten at completion. The retained set lives under
/// `span_budget` total spans: admitting a frame evicts strictly
/// lower-priority retained frames (oldest first) until it fits, and is
/// rejected (counted, never partially kept) when no such victims remain —
/// so a properly budgeted run keeps every deadline miss in full.
///
/// In-flight frames live in a 4096-slot table direct-mapped by trace id: a
/// frame still in flight after 4096 newer traces were minted is displaced by
/// the new one (counted in pending_evicted).
///
/// Determinism: driven exclusively by the tracer's record stream plus a
/// private seeded Rng; never touches the simulator. Attaching a sampler is
/// fingerprint-neutral, and equal (config, event stream) pairs produce
/// byte-identical exports.
class TailSampler : public TraceSink {
 public:
  struct RetainedFrame {
    std::uint32_t trace_id = 0;
    const char* verdict = "";  ///< "miss" | "drop" | "outlier" | "reservoir"
    sim::Time first_time = 0;  ///< first span (kFrameCapture) time
    sim::Time last_time = 0;   ///< completion span time
    std::int64_t latency_ns = 0;
    std::uint32_t truncated = 0;  ///< spans dropped by max_spans_per_frame
    std::vector<TraceEvent> spans;
  };

  /// Traceless anomaly (admission reject/downgrade): no span set to retain,
  /// but the report still wants the event on the timeline.
  struct Note {
    sim::Time time = 0;
    std::uint64_t uid = 0;
    const char* reason = "";
  };

  struct Stats {
    std::uint64_t frames_seen = 0;     ///< completed traced frames observed
    std::uint64_t retained_miss = 0;
    std::uint64_t retained_drop = 0;
    std::uint64_t retained_outlier = 0;
    std::uint64_t retained_reservoir = 0;
    std::uint64_t evicted = 0;          ///< retained frames later evicted
    std::uint64_t budget_rejected = 0;  ///< retention refused: no room
    std::uint64_t truncated_spans = 0;  ///< spans over the per-frame cap
    std::uint64_t pending_evicted = 0;  ///< in-flight frames dropped
    std::uint64_t notes_dropped = 0;
  };

  explicit TailSampler(SamplerConfig cfg);

  TailSampler(const TailSampler&) = delete;
  TailSampler& operator=(const TailSampler&) = delete;

  void on_event(const TraceEvent& e) override;

  /// Record a traceless anomaly (admission reject/downgrade).
  void note(std::uint64_t uid, const char* reason, sim::Time t);

  /// Callers update this as their live tail estimate moves (the fleet feeds
  /// its admission controller's projected p99).
  void set_outlier_threshold_ms(double ms) { outlier_ms_ = ms; }
  double outlier_threshold_ms() const { return outlier_ms_; }

  bool retained(std::uint32_t trace_id) const {
    return retained_.find(trace_id) != retained_.end();
  }
  /// Retained frames in trace-id order (== frame mint order).
  const std::map<std::uint32_t, RetainedFrame>& retained_frames() const {
    return retained_;
  }
  const std::vector<Note>& notes() const { return notes_; }
  const Stats& stats() const { return stats_; }
  const SamplerConfig& config() const { return cfg_; }
  std::size_t spans_used() const { return spans_used_; }
  std::size_t retained_count() const { return retained_.size(); }

 private:
  /// One in-flight frame. Slots live in a direct-mapped table indexed by
  /// the low bits of `trace_id` so the per-event path is an array index.
  /// `trace_id == 0` marks a free slot. Span storage is NOT inline: trace
  /// ids increase monotonically, so consecutive frames sweep the table and
  /// an inline buffer would regrow from scratch in every slot. Instead the
  /// spans go to a chain of fixed-size chunks in one contiguous arena,
  /// recycled through a free list sized by the spans *concurrently* held by
  /// in-flight frames. A fleet frame's ~4 spans fit its first chunk; longer
  /// frames chain more chunks up to max_spans_per_frame. The append path is
  /// an index computation and one 48-byte store, plus a chunk link every
  /// kChunkSpans spans — no vector header chase, no capacity branch that
  /// allocates in steady state — which keeps the sampler inside the
  /// telemetry overhead budget (see DESIGN.md §14).
  static constexpr std::uint32_t kChunkSpans = 8;
  static constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;
  struct Pending {
    std::uint32_t trace_id = 0;
    std::uint32_t head = kNoChunk;  ///< first chunk of the span chain
    std::uint32_t tail = kNoChunk;  ///< chunk the next span goes to
    std::uint32_t count = 0;        ///< spans written to the chain
    sim::Time first_time = 0;
    std::uint32_t truncated = 0;
    bool dropped = false;  ///< saw kDrop/kShed under this trace
  };

  std::uint32_t acquire_chunk();
  void release_chain(Pending& p);
  void finalize(Pending& p, const TraceEvent& completion);
  /// Evict lower-priority retained frames until `need` more spans fit the
  /// budget; false (counted as budget_rejected) when they cannot.
  bool make_room(int priority, std::size_t need);
  bool evict_one(int below_priority);

  SamplerConfig cfg_;
  sim::Rng rng_;
  double outlier_ms_;
  std::vector<Pending> pending_;  ///< direct-mapped by trace id
  /// Span arena backing the chains (see Pending): chunk c occupies
  /// [c * kChunkSpans, (c+1) * kChunkSpans), and chunk_next_[c] links it to
  /// the frame's next chunk. Its high-water mark is the peak number of
  /// chunks concurrently held by in-flight traced frames.
  std::vector<TraceEvent> arena_;
  std::vector<std::uint32_t> chunk_next_;
  std::vector<std::uint32_t> free_chunks_;
  std::map<std::uint32_t, RetainedFrame> retained_;
  /// Admit-order indexes per retention class, maintained incrementally so
  /// the hot paths stay O(1): reservoir replacement needs the j-th member
  /// by admit order, eviction needs the oldest member of the lowest class.
  /// Misses (priority 3) are never victims, so they carry no index.
  std::vector<std::uint32_t> reservoir_;  ///< priority-0 members, admit order
  std::deque<std::uint32_t> outliers_;    ///< priority-1 members, admit order
  std::deque<std::uint32_t> drops_;       ///< priority-2 members, admit order
  std::uint64_t healthy_seen_ = 0;  ///< reservoir stream position
  std::size_t spans_used_ = 0;
  std::vector<Note> notes_;
  Stats stats_;
};

/// `arnet-sample-v1` JSONL. A file is one header, then per run (one sampler,
/// e.g. one sweep cell) a "run" summary line followed by its retained
/// "frame" lines each with their "span" lines and the run's "note" lines,
/// closed by one "end" line. `tracer` resolves span entity ids to names;
/// `scope` tags every line so multi-cell files stay greppable.
void write_samples_header(std::ostream& os);
void append_samples_run(const TailSampler& sampler, const Tracer& tracer,
                        const std::string& scope, std::ostream& os);
void write_samples_end(std::ostream& os, std::size_t runs);

}  // namespace arnet::trace
