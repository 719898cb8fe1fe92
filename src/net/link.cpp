#include "arnet/net/link.hpp"

#include <algorithm>
#include <utility>

#include "arnet/trace/profiler.hpp"

namespace arnet::net {
namespace {

/// Snapshot a packet at serialization start for pcap synthesis.
trace::WireRecord make_wire(const Packet& p, sim::Time now) {
  trace::WireRecord w;
  w.time = now;
  w.uid = p.uid;
  w.src = p.src;
  w.dst = p.dst;
  w.src_port = p.src_port;
  w.dst_port = p.dst_port;
  w.size_bytes = p.size_bytes;
  w.tclass = static_cast<std::uint8_t>(p.tclass);
  w.priority = static_cast<std::uint8_t>(p.priority);
  w.app = to_string(p.app);
  w.trace_id = p.trace.trace_id;
  if (const auto* artp = std::get_if<ArtpHeader>(&p.header)) {
    w.proto = 2;
    w.artp_kind = static_cast<std::uint8_t>(artp->kind);
    w.msg_id = artp->msg_id;
    w.chunk = artp->chunk;
    w.chunk_count = artp->chunk_count;
    w.frame_id = artp->frame_id;
  } else if (const auto* tcp = std::get_if<TcpHeader>(&p.header)) {
    w.proto = 1;
    w.seq = tcp->seq;
    w.ack = tcp->ack;
  }
  return w;
}

}  // namespace

Link::Link(sim::Simulator& sim, sim::Rng rng, Config cfg)
    : sim_(sim), rng_(std::move(rng)), cfg_(std::move(cfg)) {
  if (cfg_.queue) {
    queue_ = std::move(cfg_.queue);
  } else {
    queue_ = std::make_unique<DropTailQueue>(cfg_.queue_packets);
  }
  if (cfg_.tx_path == TxPath::kArenaBatched && !cfg_.loss && queue_->fifo_time_invariant()) {
    // Packets claimed by an active transmit plan but not yet at their logical
    // serialization start must still occupy queue capacity, or batching would
    // admit packets the un-batched link tail-drops.
    queue_->set_occupancy_supplement([this] { return phantom_count(); });
  }
}

void Link::attach(const trace::Telemetry& telemetry, std::string entity) {
  metrics_ = telemetry.metrics;
  instruments_ = {};
  trace_ = trace::Emitter(telemetry.tracer, entity);
  obs_entity_ = std::move(entity);
  install_queue_hook();
}

void Link::set_drop_hook(DropHook hook) {
  drop_hook_ = std::move(hook);
  install_queue_hook();
}

void Link::install_queue_hook() {
  // Route queue discards through notify_drop so the observer hook, the
  // "link.drop.<reason>" counter and the trace ring all see them with the
  // discipline's own reason (tail drop vs. AQM vs. shedding).
  queue_->set_drop_hook(
      (drop_hook_ || metrics_ || trace_)
          ? [this](const Packet& p, DropReason r) { notify_drop(p, r); }
          : Queue::DropHook{});
}

void Link::send(Packet p) {
  if (!up_) {
    ++lost_packets_;
    notify_drop(p, DropReason::kLinkDown);
    return;
  }
  trace_.emit(sim_.now(), trace::EventKind::kEnqueue, p.trace, p.uid, p.size_bytes);
  if (!queue_->enqueue(std::move(p), sim_.now())) return;  // tail drop
  start_transmission_if_idle();
}

void Link::set_rate(double bps) {
  if (bps == cfg_.rate_bps) return;
  cfg_.rate_bps = bps;
  // The new rate applies from the next serialization: packets a transmit
  // plan timed with the old rate but has not started go back to the queue.
  unwind_future_batch_entries();
}

void Link::set_delay(sim::Time d) {
  if (d == cfg_.delay) return;
  cfg_.delay = d;
  if (batch_.empty()) return;
  unwind_future_batch_entries();
  // The un-batched link samples the delay when serialization *ends*, so the
  // currently serializing packet gets the new value; already-propagating
  // packets keep their old arrival times.
  BatchEntry& e = batch_.back();
  const sim::Time now = sim_.now();
  if (e.tx_end > now) {
    const sim::Time prev = batch_.size() >= 2 ? batch_[batch_.size() - 2].arrival
                                              : batch_prev_arrival_;
    const sim::Time arrival = std::max(e.tx_end + cfg_.delay, prev);
    if (arrival != e.arrival) {
      sim_.cancel(e.arrival_ev);
      e.arrival = arrival;
      const std::uint64_t epoch = epoch_;
      e.arrival_ev = sim_.at(arrival, [this, epoch, slot = e.slot] {
        if (epoch != epoch_) {  // link went down while propagating
          Packet pkt = arena_.take(slot);
          notify_drop(pkt, DropReason::kLinkDown);
          return;
        }
        record_batched_tx(slot);
        deliver_from_arena(slot);
      });
      last_arrival_ = arrival;
    }
  }
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up) {
    const sim::Time now = sim_.now();
    if (!batch_.empty()) {
      sim_.cancel(batch_done_);
      batch_done_ = {};
      // Entries that reached their logical serialization start behave like
      // un-batched in-flight packets; the rest would still be queued,
      // so they are dropped ahead of the residual queue (FIFO flush order).
      std::size_t started = 0;
      while (started < batch_.size() && batch_[started].start <= now) ++started;
      // The FIFO guard only advances when a serialization completes, so the
      // plan's unfinished entries must not hold back packets sent after the
      // link comes back up.
      last_arrival_ = batch_prev_arrival_;
      for (std::size_t i = 0; i < started; ++i) {
        BatchEntry& e = batch_[i];
        record_tx_stats(e);  // it began serializing; kArena accounted it then
        record_batched_tx(e.slot);  // ... and traced its tx then, too
        if (e.tx_end > now) {
          // Mid-serialization: kArena reports this drop when the (stale
          // epoch) tx-complete event fires at tx_end, not counted as lost.
          sim_.cancel(e.arrival_ev);
          sim_.at(e.tx_end, [this, slot = e.slot] {
            Packet pkt = arena_.take(slot);
            notify_drop(pkt, DropReason::kLinkDown);
          });
        } else {
          // Propagating: its arrival event stays scheduled and the
          // stale-epoch check there reports the drop, exactly like kArena.
          last_arrival_ = e.arrival;
        }
      }
      for (std::size_t i = started; i < batch_.size(); ++i) {
        sim_.cancel(batch_[i].arrival_ev);
        ++lost_packets_;
        Packet pkt = arena_.take(batch_[i].slot);
        notify_drop(pkt, DropReason::kLinkDown);
      }
      batch_.clear();
    }
    // Flush the queue and invalidate in-flight serializations/deliveries.
    while (auto p = queue_->dequeue(now)) {
      ++lost_packets_;
      notify_drop(*p, DropReason::kLinkDown);
    }
    transmitting_ = false;
    ++epoch_;
  } else {
    start_transmission_if_idle();
  }
}

void Link::start_transmission_if_idle() {
  if (transmitting_ || !up_) return;
  if (batch_eligible()) {
    start_batch();
  } else {
    start_transmission_arena();
  }
}

bool Link::batch_eligible() const {
  // Batching must not change behavior: it needs a clock-free FIFO discipline
  // (AQM drop decisions depend on dequeue time) and no loss model (the RNG
  // draw happens per tx-complete event, and batching reorders event
  // structure). A tracer is fine: tx events are emitted at delivery (or at
  // link-down for entries that had started) with the logical serialization
  // start captured at plan time (record_batched_tx), so trace timestamps
  // match the un-batched path.
  return cfg_.tx_path == TxPath::kArenaBatched && !cfg_.loss &&
         queue_->fifo_time_invariant();
}

// ---------------------------------------------------------------- arena path
//
// Two events per packet: tx-complete, then arrival. The packet is parked in
// the slab arena so each closure captures {this, epoch, slot} — 20 bytes,
// inside the simulator's inline callback buffer, zero allocations.

void Link::start_transmission_arena() {
  trace::ProfScope prof(trace_.tracer(), "Link::tx");
  auto p = queue_->dequeue(sim_.now());
  if (!p) return;
  transmitting_ = true;
  trace_.emit(sim_.now(), trace::EventKind::kTxStart, p->trace, p->uid, p->size_bytes);
  if (trace_ && trace_.tracer()->wire_capture()) {
    trace_.tracer()->record_wire(make_wire(*p, sim_.now()));
  }
  const sim::Time tx = sim::transmission_delay(p->size_bytes, cfg_.rate_bps);
  record_tx_stats(p->enqueued_at, sim_.now(), sim_.now() + tx);
  const std::uint64_t epoch = epoch_;
  const std::uint32_t slot = arena_.acquire(std::move(*p));
  sim_.after(tx, [this, epoch, slot] {
    if (epoch != epoch_) {  // link went down mid-serialization
      Packet pkt = arena_.take(slot);
      notify_drop(pkt, DropReason::kLinkDown);
      return;
    }
    transmitting_ = false;
    tx_complete_from_arena(slot);
    start_transmission_if_idle();
  });
}

void Link::tx_complete_from_arena(std::uint32_t slot) {
  if (cfg_.loss && cfg_.loss->lose(rng_, arena_.at(slot))) {
    ++lost_packets_;
    Packet pkt = arena_.take(slot);
    notify_drop(pkt, DropReason::kRandomLoss);
    return;
  }
  const std::uint64_t epoch = epoch_;
  // A point-to-point pipe is FIFO: if the (mutable) propagation delay
  // shrank since the previous packet, do not let this one overtake it.
  const sim::Time arrival = std::max(sim_.now() + cfg_.delay, last_arrival_);
  last_arrival_ = arrival;
  sim_.at(arrival, [this, epoch, slot] {
    if (epoch != epoch_) {  // link went down while propagating
      Packet pkt = arena_.take(slot);
      notify_drop(pkt, DropReason::kLinkDown);
      return;
    }
    deliver_from_arena(slot);
  });
}

void Link::deliver_from_arena(std::uint32_t slot) {
  Packet pkt = arena_.take(slot);
  delivered_bytes_ += pkt.size_bytes;
  ++delivered_packets_;
  trace_.emit(sim_.now(), trace::EventKind::kRx, pkt.trace, pkt.uid, pkt.size_bytes);
  if (metrics_) {
    instruments_.delivered_bytes.get(*metrics_, "link.delivered_bytes", obs_entity_)
        .add(pkt.size_bytes);
    instruments_.delivered_packets.get(*metrics_, "link.delivered_packets", obs_entity_).add();
  }
  if (sink_) sink_(std::move(pkt));
}

// -------------------------------------------------------------- batched path
//
// Dequeue up to kBatchMax packets at once and precompute their back-to-back
// serialization timeline: the i-th packet's logical window is exactly when
// the un-batched link would have served it, so arrival times, drop decisions
// and metric values are unchanged. Cost drops from 2 events per packet to
// one arrival event per packet plus one batch-complete event.

void Link::start_batch() {
  const sim::Time now = sim_.now();
  batch_.clear();
  batch_prev_arrival_ = last_arrival_;
  sim::Time t = now;
  sim::Time prev_arrival = last_arrival_;
  const std::uint64_t epoch = epoch_;
  while (batch_.size() < kBatchMax) {
    auto p = queue_->dequeue(now);
    if (!p) break;
    BatchEntry e;
    e.stats_recorded = false;
    e.enqueued_at = p->enqueued_at;
    e.start = t;
    e.tx_end = t + sim::transmission_delay(p->size_bytes, cfg_.rate_bps);
    e.arrival = std::max(e.tx_end + cfg_.delay, prev_arrival);
    e.slot = arena_.acquire(std::move(*p));
    if (e.slot >= batch_tx_start_.size()) batch_tx_start_.resize(e.slot + 1, -1);
    batch_tx_start_[e.slot] = e.start;
    e.arrival_ev = sim_.at(e.arrival, [this, epoch, slot = e.slot] {
      if (epoch != epoch_) {  // link went down while propagating
        Packet pkt = arena_.take(slot);
        notify_drop(pkt, DropReason::kLinkDown);
        return;
      }
      record_batched_tx(slot);
      deliver_from_arena(slot);
    });
    prev_arrival = e.arrival;
    t = e.tx_end;
    batch_.push_back(e);
  }
  if (batch_.empty()) return;
  transmitting_ = true;
  last_arrival_ = prev_arrival;
  // The first packet starts serializing now, exactly like un-batched; the
  // others are accounted when their logical start has passed (batch end or
  // unwind) so an unwound packet is never double-counted.
  record_tx_stats(batch_.front());
  batch_done_ = sim_.at(batch_.back().tx_end, [this, epoch] {
    if (epoch != epoch_) return;  // defensive; set_up(false) cancels this
    finish_batch();
  });
}

void Link::finish_batch() {
  for (auto& e : batch_) record_tx_stats(e);
  batch_.clear();
  batch_done_ = {};
  transmitting_ = false;
  start_transmission_if_idle();
}

void Link::record_batched_tx(std::uint32_t slot) {
  if (!trace_ || slot >= batch_tx_start_.size()) return;
  const sim::Time start = batch_tx_start_[slot];
  if (start < 0) return;  // planned before the tracer attached
  batch_tx_start_[slot] = -1;  // each entry serializes (and records) once
  const Packet& p = arena_.at(slot);
  trace_.emit(start, trace::EventKind::kTxStart, p.trace, p.uid, p.size_bytes);
  if (trace_.tracer()->wire_capture()) trace_.tracer()->record_wire(make_wire(p, start));
}

void Link::record_tx_stats(BatchEntry& e) {
  if (e.stats_recorded) return;
  e.stats_recorded = true;
  record_tx_stats(e.enqueued_at, e.start, e.tx_end);
}

void Link::record_tx_stats(sim::Time enqueued_at, sim::Time start, sim::Time tx_end) {
  if (!metrics_) return;
  instruments_.sojourn.get(*metrics_, "queue.sojourn_ms", obs_entity_)
      .record(sim::to_milliseconds(start - enqueued_at));
  busy_time_ += tx_end - start;
  if (tx_end > 0) {  // utilization through this frame
    instruments_.utilization.get(*metrics_, "link.utilization", obs_entity_)
        .set(sim::to_seconds(busy_time_) / sim::to_seconds(tx_end));
  }
}

void Link::unwind_future_batch_entries() {
  if (batch_.empty()) return;
  const sim::Time now = sim_.now();
  // Walk from the back so requeue_front restores original FIFO order.
  while (!batch_.empty() && batch_.back().start > now) {
    BatchEntry& e = batch_.back();
    sim_.cancel(e.arrival_ev);
    queue_->requeue_front(arena_.take(e.slot));
    batch_.pop_back();
  }
  // The entry whose window contains `now` is never unwound, so the batch
  // cannot empty here.
  last_arrival_ = batch_.back().arrival;
  sim_.cancel(batch_done_);
  const std::uint64_t epoch = epoch_;
  batch_done_ = sim_.at(batch_.back().tx_end, [this, epoch] {
    if (epoch != epoch_) return;
    finish_batch();
  });
}

std::size_t Link::phantom_count() const {
  const sim::Time now = sim_.now();
  std::size_t n = 0;
  for (const auto& e : batch_) {
    if (e.start > now) ++n;
  }
  return n;
}

}  // namespace arnet::net
