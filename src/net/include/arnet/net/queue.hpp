#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "arnet/net/packet.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::net {

/// Buffering discipline attached to a link's sender side (paper §VI-H:
/// the uplink queue policy strongly shapes MAR latency).
class Queue {
 public:
  /// Invoked with every packet the discipline discards, at the moment it is
  /// discarded, along with *why* (tail drop vs. AQM control law vs. priority
  /// shedding). Installed by Link for drop accounting.
  using DropHook = std::function<void(const Packet&, DropReason)>;

  virtual ~Queue() = default;

  /// Returns false if the packet was dropped on arrival.
  virtual bool enqueue(Packet p, sim::Time now) = 0;

  /// Next packet to transmit, or nullopt if empty. AQM disciplines may drop
  /// internally during dequeue.
  virtual std::optional<Packet> dequeue(sim::Time now) = 0;

  virtual std::size_t packets() const = 0;
  virtual std::int64_t bytes() const = 0;

  /// Virtual so composite disciplines (FQ-CoDel) can propagate the hook to
  /// their inner queues.
  virtual void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// True when dequeue order and drop decisions depend only on the sequence
  /// of enqueues/dequeues, never on the clock. Such a discipline can be
  /// drained ahead of time by a batching serializer (Link) without changing
  /// which packet goes next or which gets dropped. AQM disciplines (CoDel)
  /// are time-dependent and must return false.
  virtual bool fifo_time_invariant() const { return false; }

  /// Extra occupancy charged against the capacity check on enqueue, beyond
  /// the packets the discipline physically holds. A batching Link registers
  /// a callback counting packets it has committed to future serialization
  /// slots but not yet started transmitting — in un-batched operation those
  /// would still be sitting in the queue, so they must still count, or
  /// batching would admit packets the un-batched link drops. Only meaningful
  /// for disciplines with fifo_time_invariant() == true; others ignore it.
  using OccupancySupplement = std::function<std::size_t()>;
  virtual void set_occupancy_supplement(OccupancySupplement s) { (void)s; }

  /// Put a packet back at the *head* of the queue (it will be the next
  /// dequeue), preserving its original enqueued_at. Used by a batching Link
  /// to unwind not-yet-started transmissions when the link's rate or delay
  /// changes mid-batch. Bypasses the capacity check: the packet was already
  /// admitted once (and counted via the occupancy supplement since). Only
  /// disciplines with fifo_time_invariant() == true support it.
  virtual void requeue_front(Packet&& p) { (void)p; }

  bool empty() const { return packets() == 0; }
  std::int64_t drops() const { return drops_; }

 protected:
  /// Count a drop without notifying (composite queues whose inner discipline
  /// already reported the packet).
  void count_drop() { ++drops_; }

  /// Count a drop and report the dying packet (and cause) to the hook.
  void drop(const Packet& p, DropReason reason) {
    ++drops_;
    if (drop_hook_) drop_hook_(p, reason);
  }

 private:
  std::int64_t drops_ = 0;
  DropHook drop_hook_;
};

/// FIFO with a packet-count capacity. Oversized instances model bufferbloat
/// (the "around 1000 packets" kernel uplink buffer of §VI-H).
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}

  bool enqueue(Packet p, sim::Time now) override;
  std::optional<Packet> dequeue(sim::Time now) override;
  std::size_t packets() const override { return q_.size(); }
  std::int64_t bytes() const override { return bytes_; }

  bool fifo_time_invariant() const override { return true; }
  void set_occupancy_supplement(OccupancySupplement s) override {
    supplement_ = std::move(s);
  }
  void requeue_front(Packet&& p) override {
    bytes_ += p.size_bytes;
    q_.push_front(std::move(p));
  }

 private:
  std::size_t capacity_;
  std::int64_t bytes_ = 0;
  std::deque<Packet> q_;
  OccupancySupplement supplement_;
};

/// CoDel AQM (RFC 8289): drops to keep the standing sojourn time near
/// `target`, entering a drop state whose rate increases as sqrt(count).
class CoDelQueue final : public Queue {
 public:
  struct Config {
    sim::Time target = sim::milliseconds(5);
    sim::Time interval = sim::milliseconds(100);
    std::size_t capacity_packets = 10000;
    /// Link MTU for the "standing queue of at least two full packets" exit
    /// condition (RFC 8289 §4.3). Must track the link's real MTU: with small
    /// frames (features, sensor batches, D2D) a hardcoded Ethernet MTU would
    /// exempt a permanently standing queue from AQM entirely.
    std::int32_t mtu_bytes = 1514;
  };

  CoDelQueue();
  explicit CoDelQueue(Config cfg) : cfg_(cfg) {}

  bool enqueue(Packet p, sim::Time now) override;
  std::optional<Packet> dequeue(sim::Time now) override;
  std::size_t packets() const override { return q_.size(); }
  std::int64_t bytes() const override { return bytes_; }

 private:
  std::optional<Packet> pop_front();
  bool should_drop(const Packet& p, sim::Time now);
  /// True when a drop spell ended less than one interval ago. drop_next_ == 0
  /// means the queue has never dropped, which must not count as "recent".
  bool recently_dropping(sim::Time now) const {
    return drop_next_ > 0 && now - drop_next_ < cfg_.interval;
  }

  Config cfg_;
  std::int64_t bytes_ = 0;
  std::deque<Packet> q_;
  // CoDel state machine.
  bool dropping_ = false;
  std::uint32_t count_ = 0;
  sim::Time first_above_time_ = 0;
  sim::Time drop_next_ = 0;
};

/// FQ-CoDel (RFC 8290, simplified): flows hashed into DRR buckets, each
/// running CoDel; new flows get priority credits.
class FqCoDelQueue final : public Queue {
 public:
  FqCoDelQueue();

  bool enqueue(Packet p, sim::Time now) override;
  std::optional<Packet> dequeue(sim::Time now) override;
  std::size_t packets() const override { return packets_; }
  std::int64_t bytes() const override { return bytes_; }

  /// Inner CoDel buckets drop both on enqueue and inside dequeue; they get
  /// the hook so AQM drops are reported exactly once.
  void set_drop_hook(DropHook hook) override;

 private:
  struct Bucket {
    std::unique_ptr<CoDelQueue> codel;
    std::int64_t deficit = 0;
    bool queued = false;  // present in new_/old_ lists
  };

  std::size_t bucket_of(const Packet& p) const;

  std::vector<Bucket> buckets_;
  std::deque<std::size_t> new_flows_;
  std::deque<std::size_t> old_flows_;
  std::size_t packets_ = 0;
  std::int64_t bytes_ = 0;
};

/// Deficit-round-robin weighted fair queue over traffic classes, the
/// mechanism behind RSVP-style per-flow guarantees (paper §V-A1: "the
/// possibility to provide QoS guarantees on specific AR applications could
/// be a commercial argument for mobile broadband operators"). A class with
/// weight w is guaranteed w / sum(w) of the link whenever it is backlogged,
/// regardless of how hard other classes push.
class WeightedFairQueue final : public Queue {
 public:
  struct ClassConfig {
    double weight = 1.0;
    std::size_t capacity_packets = 500;
  };

  /// `classify` maps a packet to a class index [0, classes.size()).
  using Classifier = std::function<std::size_t(const Packet&)>;

  WeightedFairQueue(std::vector<ClassConfig> classes, Classifier classify);

  bool enqueue(Packet p, sim::Time now) override;
  std::optional<Packet> dequeue(sim::Time now) override;
  std::size_t packets() const override { return packets_; }
  std::int64_t bytes() const override { return bytes_; }

  std::int64_t class_dequeued_bytes(std::size_t cls) const {
    return classes_[cls].dequeued_bytes;
  }

  /// Classifier for the common case: one reserved class for a given flow id
  /// (class 0), everything else best-effort (class 1).
  static Classifier reserve_flow(FlowId flow);

 private:
  struct Class {
    ClassConfig cfg;
    std::deque<Packet> q;
    double deficit = 0.0;
    bool in_visit = false;
    std::int64_t dequeued_bytes = 0;
  };

  std::vector<Class> classes_;
  Classifier classify_;
  std::size_t rr_ = 0;
  std::size_t packets_ = 0;
  std::int64_t bytes_ = 0;
  double quantum_base_ = 1514.0;
};

}  // namespace arnet::net
