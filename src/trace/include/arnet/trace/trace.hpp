#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::trace {

class SimProfiler;

/// Causal identity carried by a packet / message / frame through the stack.
/// `trace_id` names the causal chain (one per MAR frame in the offload
/// pipeline); `span_id` is a monotonically increasing sub-identifier minted
/// whenever a new hop of work starts under the same trace. A zero trace_id
/// means "untraced": every recording site must treat that as a no-op tag,
/// never as trace 0.
struct TraceContext {
  std::uint32_t trace_id = 0;
  std::uint32_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// Typed span/point events. Pairing rules (used by the Perfetto exporter to
/// synthesize duration spans; everything else exports as an instant):
///   kEnqueue      opens a "queued" span, closed by kDequeue/kTxStart/kDrop
///                 (or by kDispatch in the fleet serving layer)
///   kTxStart      opens a "flight" span, closed by kRx/kDrop
///   kComputeStart opens a "compute" span, closed by kComputeDone
///   kFrameCapture opens a "frame" span, closed by kFrameDone/kFrameMiss
///   kBatchStart   opens a "batch" span, closed by kBatchDone
enum class EventKind : std::uint8_t {
  kFrameCapture,  ///< MAR frame captured on the device (uid = frame id)
  kEnqueue,       ///< entered a queue / staging buffer
  kDequeue,       ///< left a queue without hitting the wire yet
  kTxStart,       ///< serialization onto the wire began
  kRx,            ///< arrived at the far end of a hop
  kDeliver,       ///< message-level delivery to the application
  kTx,            ///< transport emitted a chunk/segment (instant)
  kAck,           ///< acknowledgment / feedback processed
  kRetx,          ///< retransmission of previously sent data
  kFecRepair,     ///< chunk(s) rebuilt from parity
  kShed,          ///< transport discarded staged data (graceful degradation)
  kDrop,          ///< packet died in the network (reason attached)
  kComputeStart,  ///< vision/compute stage began
  kComputeDone,   ///< vision/compute stage finished
  kFrameDone,     ///< frame result available on the device
  kFrameMiss,     ///< frame result arrived but missed its deadline
  // Fleet serving layer (src/fleet): multi-user admission and batched
  // execution. `reason` on kAdmit carries the decision ("admit"/
  // "downgrade"/"reject"); kBatchStart/kBatchDone bracket one batch
  // execution (uid = batch id, size = batch occupancy).
  kAdmit,         ///< admission decision for a new session (instant)
  kDispatch,      ///< request left the service queue into a forming batch
  kBatchStart,    ///< batch execution began on a server lane
  kBatchDone,     ///< batch execution finished; results release
};

const char* to_string(EventKind k);

using EntityId = std::uint32_t;
inline constexpr EntityId kNoEntity = 0xFFFFFFFFu;

/// One recorded event. Fixed-size POD so a ring slot never allocates;
/// `reason` points at a static string literal (drop reason, shed cause) or is
/// null — exporters print its *content*, so output stays deterministic.
struct TraceEvent {
  sim::Time time = 0;
  std::uint64_t uid = 0;       ///< packet uid, message id, or frame id
  std::int64_t size = 0;       ///< bytes (or kind-specific magnitude)
  std::uint32_t trace_id = 0;
  std::uint32_t span_id = 0;
  EntityId entity = kNoEntity; ///< filled by Tracer::record
  EventKind kind = EventKind::kEnqueue;
  const char* reason = nullptr;
};

/// Everything the pcap-ng synthesizer needs about one wire emission, captured
/// by the link at serialization start. Plain fields only (no net:: types) so
/// the trace layer stays below arnet_net in the dependency order.
struct WireRecord {
  sim::Time time = 0;
  std::uint64_t uid = 0;
  std::uint32_t src = 0, dst = 0;
  std::uint16_t src_port = 0, dst_port = 0;
  std::int32_t size_bytes = 0;
  std::uint8_t tclass = 0, priority = 0;
  const char* app = nullptr;    ///< application payload type name
  std::uint32_t trace_id = 0;
  /// Transport framing: 0 = none/udp, 1 = tcp, 2 = artp.
  std::uint8_t proto = 0;
  // ARTP fields (proto == 2): kind 0 data / 1 parity / 2 feedback.
  std::uint8_t artp_kind = 0;
  std::uint64_t msg_id = 0;
  std::uint32_t chunk = 0, chunk_count = 0, frame_id = 0;
  // TCP fields (proto == 1).
  std::uint64_t seq = 0, ack = 0;
};

/// Fixed-capacity overwrite-oldest ring. O(1) memory regardless of run
/// length: the last `capacity` records survive, and `overflowed()` accounts
/// for everything evicted so exporters can say "N older events lost" instead
/// of silently truncating.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    slots_.reserve(capacity_);
  }

  /// Returns a reference to the stored slot so callers can stamp fields
  /// in place instead of copying the record twice.
  T& push(const T& v) {
    ++recorded_;
    if (slots_.size() < capacity_) {
      slots_.push_back(v);
      return slots_.back();
    }
    T& slot = slots_[head_];
    slot = v;
    if (++head_ == capacity_) head_ = 0;  // branch beats a div per record
    ++overflowed_;
    return slot;
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t overflowed() const { return overflowed_; }

  /// Visit oldest -> newest.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      f(slots_[(head_ + i) % slots_.size()]);
    }
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest slot once full
  std::uint64_t recorded_ = 0;
  std::uint64_t overflowed_ = 0;
  std::vector<T> slots_;
};

using EventRing = Ring<TraceEvent>;
using WireRing = Ring<WireRecord>;

/// Observer of the tracer's record stream (the tail sampler implements
/// this). Sinks see every event as it is recorded — including ones the
/// rings will later overwrite — and must obey the same determinism contract
/// as the Tracer itself: no simulator scheduling, no shared Rng, no
/// branching of simulation logic.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
};

/// Per-run causal tracing hub. Entities (links, transports, sessions, cells)
/// register once and record typed events into their own ring; packets carry a
/// TraceContext so events across entities join into per-frame timelines.
///
/// Determinism contract: recording never schedules simulator events, never
/// touches an Rng, and never branches simulation logic — a run with a Tracer
/// attached is bit-identical (same trace fingerprint) to one without. All
/// state is owned by the run that created it, so the runner thread-pool
/// fan-out needs no locks: one Tracer per run, like one Simulator per run.
class Tracer {
 public:
  struct Config {
    std::size_t ring_capacity = 1024;  ///< events retained per entity
  };
  /// Wire records retained (pcap).
  static constexpr std::size_t kWireCapacity = 8192;

  Tracer() : Tracer(Config{}) {}
  explicit Tracer(Config cfg) : cfg_(cfg), wire_(kWireCapacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Register a recording entity; ids are assigned in registration order
  /// (deterministic given deterministic construction order). Names need not
  /// be unique (e.g. several senders built from one config template).
  EntityId register_entity(std::string name) {
    auto id = static_cast<EntityId>(entities_.size());
    entities_.push_back(Entity{std::move(name), EventRing(cfg_.ring_capacity)});
    return id;
  }

  std::size_t entity_count() const { return entities_.size(); }
  const std::string& entity_name(EntityId id) const { return entities_.at(id).name; }
  const EventRing& ring(EntityId id) const { return entities_.at(id).ring; }
  const WireRing& wire() const { return wire_; }

  /// Mint a fresh trace id (one per MAR frame). Never returns 0.
  TraceContext new_trace() { return TraceContext{++last_trace_id_, ++last_span_id_}; }

  /// Mint a child span under an existing context.
  TraceContext child_span(TraceContext parent) {
    return TraceContext{parent.trace_id, ++last_span_id_};
  }

  void record(EntityId entity, const TraceEvent& e) {
    if (sink_only_) {
      if (sink_ == nullptr) return;
      TraceEvent forwarded = e;
      forwarded.entity = entity;
      sink_->on_event(forwarded);
      return;
    }
    TraceEvent& stored = entities_[entity].ring.push(e);
    stored.entity = entity;
    if (sink_) sink_->on_event(stored);
  }

  void record_wire(const WireRecord& w) {
    if (capture_wire_) wire_.push(w);
  }
  /// Wire capture (pcap synthesis) is opt-in, off by default: cycling the
  /// wire ring costs a cache-cold ~100 B store per transmitted packet, so
  /// only runs that actually export a capture should pay for it.
  void set_wire_capture(bool on) { capture_wire_ = on; }
  /// Sink-only mode, off by default: record() forwards events to the
  /// attached TraceSink and skips the per-entity rings entirely. This is
  /// the city-scale sampled operating point — the tail sampler's span
  /// budget *is* the retention store, so paying a second (ring) copy per
  /// event buys nothing. Ring-based exporters (Perfetto/pcap/flight) see no
  /// events in this mode; deep-dive runs keep it off. Sampled sweeps flip
  /// it right after set_sink.
  void set_sink_only(bool on) { sink_only_ = on; }
  bool sink_only() const { return sink_only_; }
  /// Call sites check this before *building* a WireRecord: assembling the
  /// ~100 B record is itself too expensive for non-capturing runs.
  bool wire_capture() const { return capture_wire_; }

  /// All surviving events of every ring, merged and sorted by (time, entity,
  /// ring order). Exporters consume this.
  std::vector<TraceEvent> collect() const;

  std::uint64_t total_recorded() const;
  std::uint64_t total_overflowed() const;

  /// Optional profiler piggybacked on the tracer so instrumented components
  /// need a single attachment point (see ProfScope in profiler.hpp).
  void set_profiler(SimProfiler* p) { profiler_ = p; }
  SimProfiler* profiler() const { return profiler_; }

  /// Optional record-stream observer (tail-based sampling). The sink sees
  /// events *after* they land in the ring; rings remain the always-on view.
  void set_sink(TraceSink* s) { sink_ = s; }
  TraceSink* sink() const { return sink_; }

 private:
  struct Entity {
    std::string name;
    EventRing ring;
  };

  Config cfg_;
  bool capture_wire_ = false;
  bool sink_only_ = false;
  std::vector<Entity> entities_;
  WireRing wire_;
  std::uint32_t last_trace_id_ = 0;
  std::uint32_t last_span_id_ = 0;
  SimProfiler* profiler_ = nullptr;
  TraceSink* sink_ = nullptr;
};

/// One component's recording handle: the tracer it records into and the
/// entity it registered as. Built from a null tracer (or defaulted) it is
/// inert, so a component holds one unconditionally and emits without
/// checking; the check it makes is the untraced fast path.
class Emitter {
 public:
  Emitter() = default;
  Emitter(Tracer* tracer, std::string name)
      : tracer_(tracer),
        entity_(tracer ? tracer->register_entity(std::move(name)) : kNoEntity) {}

  explicit operator bool() const { return tracer_ != nullptr; }
  Tracer* tracer() const { return tracer_; }

  void emit(sim::Time time, EventKind kind, TraceContext ctx, std::uint64_t uid,
            std::int64_t size, const char* reason = nullptr) const {
    if (tracer_ == nullptr) return;
    TraceEvent e;
    e.time = time;
    e.uid = uid;
    e.size = size;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.kind = kind;
    e.reason = reason;
    tracer_->record(entity_, e);
  }

  /// A completed frame's verdict, sized by its latency: kFrameMiss ("deadline") or kFrameDone.
  void verdict(sim::Time time, TraceContext ctx, std::uint64_t uid, sim::Time latency,
               bool missed) const {
    emit(time, missed ? EventKind::kFrameMiss : EventKind::kFrameDone, ctx, uid,
         static_cast<std::int64_t>(latency), missed ? "deadline" : nullptr);
  }

 private:
  Tracer* tracer_ = nullptr;
  EntityId entity_ = kNoEntity;
};

}  // namespace arnet::trace
