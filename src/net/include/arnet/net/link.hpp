#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arnet/net/loss.hpp"
#include "arnet/net/observer.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/net/packet_arena.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::net {

/// Unidirectional point-to-point link: output queue -> serializer at
/// `rate_bps` -> propagation pipe of `delay` -> optional loss -> sink.
///
/// `set_rate` may be called at any time (wireless models modulate capacity);
/// the new rate applies from the next packet serialization.
class Link {
 public:
  /// Hot-path strategy for the serializer/propagation pipeline. Both are
  /// behaviorally equivalent at the packet level; they differ in how many
  /// simulator events a packet costs.
  enum class TxPath : std::uint8_t {
    /// Two events per packet (tx-complete + arrival). In-flight packets are
    /// parked in a slab arena and closures capture a 4-byte slot, staying
    /// inside the simulator's inline callback buffer (no allocation per
    /// event). The exact reference the batched path is compared against,
    /// and its per-transmission fallback.
    kArena,
    /// kArena plus transmit batching: up to kBatchMax queued packets are
    /// dequeued together and their serialization timeline precomputed
    /// (back-to-back), costing one batch-complete event plus one arrival
    /// event per packet instead of two events per packet. Delivery
    /// times/order, drops, metrics totals and trace events are unchanged;
    /// the simulator-level event stream necessarily differs (fewer events).
    /// So does queue(): planned packets whose serialization has not started
    /// have left it, so an observer polling queue() sees up to
    /// kBatchMax - 1 fewer packets (WifiSharedMedium reads such a link as
    /// idle; DESIGN §13). Batching self-disables per transmission — falling
    /// back to kArena — whenever it could change behavior: time-dependent
    /// queue disciplines (AQM) or a configured loss model (per-packet RNG
    /// draw order).
    kArenaBatched,
  };

  struct Config {
    double rate_bps = 10e6;
    sim::Time delay = sim::milliseconds(1);
    std::size_t queue_packets = 100;          ///< used if `queue` is null
    std::unique_ptr<Queue> queue;             ///< custom discipline
    std::unique_ptr<LossModel> loss;          ///< null = lossless
    std::string name;
    TxPath tx_path = TxPath::kArenaBatched;
  };

  using Sink = std::function<void(Packet&&)>;

  /// Invoked for every packet the link kills, wherever it dies: queue
  /// discipline, loss model, or link-down flush/invalidation. Installed by
  /// Network to feed its NetworkObservers.
  using DropHook = std::function<void(const Packet&, DropReason)>;

  Link(sim::Simulator& sim, sim::Rng rng, Config cfg);

  /// Hand a packet to the link; drops according to the queue discipline.
  void send(Packet p);

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  void set_drop_hook(DropHook hook);

  /// Change the serialization rate. Applies from the next packet
  /// serialization; a batched transmit plan is unwound (not-yet-started
  /// packets return to the queue head) so they re-serialize at the new rate,
  /// exactly as un-batched operation would.
  void set_rate(double bps);

  /// Change the propagation delay. In-flight (already serialized) packets
  /// keep their old arrival times; the currently serializing packet and all
  /// queued ones use the new delay — same semantics as the un-batched path,
  /// where delay is sampled at serialization end.
  void set_delay(sim::Time d);

  /// Administratively disable the link (e.g. out of coverage); queued and
  /// in-flight packets are lost.
  void set_up(bool up);
  bool is_up() const { return up_; }

  double rate_bps() const { return cfg_.rate_bps; }
  sim::Time delay() const { return cfg_.delay; }
  const std::string& name() const { return cfg_.name; }

  const Queue& queue() const { return *queue_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  std::int64_t delivered_packets() const { return delivered_packets_; }
  std::int64_t lost_packets() const { return lost_packets_; }

  /// Observe this link under `entity` (e.g. "link:uplink"), replacing any
  /// earlier attachment; the observers must outlive the link. With a
  /// registry the link publishes per-packet queue sojourn
  /// ("queue.sojourn_ms" histogram), drops by reason ("link.drop.<reason>"
  /// counters), delivered bytes/packets counters, and a running
  /// "link.utilization" gauge (serialization busy-time / elapsed time).
  /// With a tracer it records the packet life cycle: kEnqueue on send,
  /// kTxStart when serialization begins (also a WireRecord for pcap export),
  /// kRx on delivery, kDrop with the reason string wherever the packet dies.
  /// Purely observational — no simulator events, no Rng draws — and it
  /// leaves transmit batching engaged: a batched packet's kTxStart carries
  /// its logical serialization start, so the recorded events match kArena's.
  void attach(const trace::Telemetry& telemetry, std::string entity);

 private:
  /// One packet of a precomputed batch timeline. `start`/`tx_end` are the
  /// logical serialization window (identical to when the un-batched link
  /// would have served it back-to-back); `arrival` its delivery time.
  struct BatchEntry {
    std::uint32_t slot;        ///< arena slot holding the packet
    bool stats_recorded;       ///< sojourn/busy-time already accounted
    sim::Time enqueued_at;     ///< for deferred sojourn accounting
    sim::Time start;
    sim::Time tx_end;
    sim::Time arrival;
    sim::EventHandle arrival_ev;
  };
  static constexpr std::size_t kBatchMax = 8;

  void start_transmission_if_idle();
  bool batch_eligible() const;
  void start_transmission_arena();
  void start_batch();
  /// Loss roll + arrival scheduling for the kArena path.
  void tx_complete_from_arena(std::uint32_t slot);
  /// Final delivery of an arena-parked packet (epoch already checked).
  void deliver_from_arena(std::uint32_t slot);
  /// Batch-complete event: account deferred stats, retire the plan, pump.
  void finish_batch();
  /// Record sojourn/busy-time/utilization for one batch entry using its
  /// logical serialization window (values identical to the un-batched path).
  void record_tx_stats(BatchEntry& e);
  /// Publish one serialization window [start, tx_end) of a packet queued at
  /// `enqueued_at` into the attached registry (no-op without one).
  void record_tx_stats(sim::Time enqueued_at, sim::Time start, sim::Time tx_end);
  /// Return not-yet-started batch entries (start > now) to the queue head
  /// and re-time the batch-complete event; called when rate or delay changes
  /// invalidate the precomputed timeline. No-op outside a batch.
  void unwind_future_batch_entries();
  /// Packets this link has committed to future serialization slots; counted
  /// against the queue capacity so batching admits exactly what un-batched
  /// operation would.
  std::size_t phantom_count() const;
  void install_queue_hook();
  /// Batched-path trace record: emits kTxStart (and the wire record) for a
  /// batch entry using the logical serialization start captured at plan
  /// time, called from the entry's arrival event while the packet is still
  /// in the arena. Keeps batched trace timestamps identical to un-batched.
  void record_batched_tx(std::uint32_t slot);
  void notify_drop(const Packet& p, DropReason r) {
    if (metrics_) {
      instruments_.drops[static_cast<std::size_t>(r)]
          .get(*metrics_,
               [&] { return obs::MetricId{std::string("link.drop.") + to_string(r), obs_entity_}; })
          .add();
    }
    trace_.emit(sim_.now(), trace::EventKind::kDrop, p.trace, p.uid, p.size_bytes, to_string(r));
    if (drop_hook_) drop_hook_(p, r);
  }

  sim::Simulator& sim_;
  sim::Rng rng_;
  Config cfg_;
  std::unique_ptr<Queue> queue_;
  Sink sink_;
  DropHook drop_hook_;
  bool transmitting_ = false;
  bool up_ = true;
  std::uint64_t epoch_ = 0;  ///< bumped on set_up(false) to void in-flight packets
  sim::Time last_arrival_ = 0;  ///< FIFO guard when delay shrinks mid-flight

  PacketArena arena_;                ///< in-flight packets
  std::vector<BatchEntry> batch_;    ///< active transmit plan (kArenaBatched)
  /// Logical serialization start per arena slot, written at batch-plan time
  /// when a tracer is attached (the arrival lambda stays at 20 captured
  /// bytes — inside the simulator's inline callback buffer).
  std::vector<sim::Time> batch_tx_start_;
  sim::EventHandle batch_done_;      ///< batch-complete event
  sim::Time batch_prev_arrival_ = 0; ///< last_arrival_ snapshot at batch start

  std::int64_t delivered_bytes_ = 0;
  std::int64_t delivered_packets_ = 0;
  std::int64_t lost_packets_ = 0;

  // Observability (attach): null when no registry is attached.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string obs_entity_;
  /// The link's instruments, each resolved on first touch.
  struct Instruments {
    std::array<obs::Handle<obs::Counter>, kDropReasonCount> drops;  ///< by DropReason
    obs::Handle<obs::Counter> delivered_bytes, delivered_packets;
    obs::Handle<obs::Histogram> sojourn;
    obs::Handle<obs::Gauge> utilization;
  } instruments_;
  sim::Time busy_time_ = 0;  ///< cumulative serialization time

  trace::Emitter trace_;  ///< inert until a tracer is attached
};

}  // namespace arnet::net
