#include "arnet/net/queue.hpp"

#include <cmath>

namespace arnet::net {

// ---------------------------------------------------------------- DropTail

bool DropTailQueue::enqueue(Packet p, sim::Time now) {
  // The supplement counts packets a batching Link has claimed for future
  // serialization slots; un-batched they would still occupy this queue.
  if (q_.size() + (supplement_ ? supplement_() : 0) >= capacity_) {
    drop(p, DropReason::kQueue);
    return false;
  }
  p.enqueued_at = now;
  bytes_ += p.size_bytes;
  q_.push_back(std::move(p));
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(sim::Time /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

// ------------------------------------------------------------------- CoDel

CoDelQueue::CoDelQueue() : CoDelQueue(Config{}) {}

bool CoDelQueue::enqueue(Packet p, sim::Time now) {
  if (q_.size() >= cfg_.capacity_packets) {
    drop(p, DropReason::kQueue);
    return false;
  }
  p.enqueued_at = now;
  bytes_ += p.size_bytes;
  q_.push_back(std::move(p));
  return true;
}

std::optional<Packet> CoDelQueue::pop_front() {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

bool CoDelQueue::should_drop(const Packet& p, sim::Time now) {
  sim::Time sojourn = now - p.enqueued_at;
  if (sojourn < cfg_.target || bytes_ < 2 * cfg_.mtu_bytes) {
    first_above_time_ = 0;
    return false;
  }
  if (first_above_time_ == 0) {
    first_above_time_ = now + cfg_.interval;
    return false;
  }
  return now >= first_above_time_;
}

std::optional<Packet> CoDelQueue::dequeue(sim::Time now) {
  auto p = pop_front();
  if (!p) {
    dropping_ = false;
    return std::nullopt;
  }
  bool above = should_drop(*p, now);
  if (dropping_) {
    if (!above) {
      dropping_ = false;
    } else if (now >= drop_next_) {
      // Drop and re-dequeue, tightening the control interval.
      while (p && now >= drop_next_ && dropping_) {
        drop(*p, DropReason::kAqm);
        ++count_;
        p = pop_front();
        if (!p) {
          dropping_ = false;
          break;
        }
        if (!should_drop(*p, now)) {
          dropping_ = false;
        } else {
          drop_next_ += static_cast<sim::Time>(
              static_cast<double>(cfg_.interval) / std::sqrt(static_cast<double>(count_)));
        }
      }
    }
  } else if (above && (recently_dropping(now) || now - first_above_time_ >= cfg_.interval)) {
    // Enter dropping state.
    drop(*p, DropReason::kAqm);
    ++count_;
    p = pop_front();
    dropping_ = true;
    // Control-law memory: restart from a higher rate if we were dropping
    // recently. drop_next_ == 0 means "never dropped" — at cold start the
    // raw `now - drop_next_ < interval` test would read as "recently
    // dropping" and seed the first spell with stale-looking memory.
    if (recently_dropping(now)) {
      count_ = count_ > 2 ? count_ - 2 : 1;
    } else {
      count_ = 1;
    }
    drop_next_ = now + static_cast<sim::Time>(
        static_cast<double>(cfg_.interval) / std::sqrt(static_cast<double>(count_)));
  }
  return p;
}

// ---------------------------------------------------------------- FQ-CoDel

namespace {

/// Flow buckets, each a default CoDel queue, and the DRR quantum.
constexpr std::size_t kFqBuckets = 64;
constexpr std::int64_t kFqQuantumBytes = 1514;

}  // namespace

FqCoDelQueue::FqCoDelQueue() : buckets_(kFqBuckets) {
  for (auto& b : buckets_) b.codel = std::make_unique<CoDelQueue>();
}

void FqCoDelQueue::set_drop_hook(DropHook hook) {
  // The composite's own counter still ticks via count_drop(); the packets
  // themselves are reported by the bucket that discards them.
  for (auto& b : buckets_) b.codel->set_drop_hook(hook);
}

std::size_t FqCoDelQueue::bucket_of(const Packet& p) const {
  // Flow hash over the 5-tuple-ish identity.
  std::uint64_t h = p.flow * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
  h ^= (static_cast<std::uint64_t>(p.src_port) << 16) | p.dst_port;
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<std::size_t>(h % buckets_.size());
}

bool FqCoDelQueue::enqueue(Packet p, sim::Time now) {
  std::size_t idx = bucket_of(p);
  Bucket& b = buckets_[idx];
  std::int64_t sz = p.size_bytes;
  if (!b.codel->enqueue(std::move(p), now)) {
    count_drop();
    return false;
  }
  ++packets_;
  bytes_ += sz;
  if (!b.queued) {
    b.queued = true;
    b.deficit = kFqQuantumBytes;
    new_flows_.push_back(idx);
  }
  return true;
}

std::optional<Packet> FqCoDelQueue::dequeue(sim::Time now) {
  for (int guard = 0; guard < 4 * static_cast<int>(buckets_.size()) + 8; ++guard) {
    std::deque<std::size_t>* list = !new_flows_.empty() ? &new_flows_ : &old_flows_;
    if (list->empty()) return std::nullopt;
    std::size_t idx = list->front();
    Bucket& b = buckets_[idx];
    if (b.deficit <= 0) {
      b.deficit += kFqQuantumBytes;
      list->pop_front();
      old_flows_.push_back(idx);
      continue;
    }
    std::size_t before = b.codel->packets();
    auto p = b.codel->dequeue(now);
    std::size_t after = b.codel->packets();
    if (!p) {
      // Either the bucket was empty or CoDel dropped everything it held.
      packets_ -= before;
      b.queued = false;
      list->pop_front();
      continue;
    }
    // `before - after` covers the returned packet plus AQM-internal drops.
    packets_ -= (before - after);
    bytes_ = 0;
    for (const auto& bb : buckets_) bytes_ += bb.codel->bytes();
    b.deficit -= p->size_bytes;
    if (b.codel->empty()) {
      b.queued = false;
      list->pop_front();
    }
    return p;
  }
  return std::nullopt;
}

// -------------------------------------------------- Weighted fair (DRR)

WeightedFairQueue::WeightedFairQueue(std::vector<ClassConfig> classes, Classifier classify)
    : classify_(std::move(classify)) {
  for (auto& c : classes) classes_.push_back(Class{c, {}, 0.0, false, 0});
}

WeightedFairQueue::Classifier WeightedFairQueue::reserve_flow(FlowId flow) {
  return [flow](const Packet& p) -> std::size_t { return p.flow == flow ? 0 : 1; };
}

bool WeightedFairQueue::enqueue(Packet p, sim::Time now) {
  std::size_t cls = std::min(classify_(p), classes_.size() - 1);
  Class& c = classes_[cls];
  if (c.q.size() >= c.cfg.capacity_packets) {
    drop(p, DropReason::kQueue);
    return false;
  }
  p.enqueued_at = now;
  bytes_ += p.size_bytes;
  ++packets_;
  c.q.push_back(std::move(p));
  return true;
}

std::optional<Packet> WeightedFairQueue::dequeue(sim::Time /*now*/) {
  if (packets_ == 0) return std::nullopt;
  // DRR: a visit credits the class's quantum exactly once; the class then
  // sends while its deficit lasts (possibly across several dequeue calls)
  // and yields the round-robin token when the deficit runs out.
  for (std::size_t guard = 0; guard < 8 * classes_.size() + 8; ++guard) {
    Class& c = classes_[rr_];
    if (c.q.empty()) {
      c.deficit = 0.0;
      c.in_visit = false;
      rr_ = (rr_ + 1) % classes_.size();
      continue;
    }
    if (!c.in_visit) {
      c.deficit += quantum_base_ * c.cfg.weight;
      c.in_visit = true;
    }
    if (c.deficit >= c.q.front().size_bytes) {
      Packet p = std::move(c.q.front());
      c.q.pop_front();
      c.deficit -= p.size_bytes;
      c.dequeued_bytes += p.size_bytes;
      bytes_ -= p.size_bytes;
      --packets_;
      return p;
    }
    c.in_visit = false;  // visit over; keep the residual deficit
    rr_ = (rr_ + 1) % classes_.size();
  }
  return std::nullopt;
}

}  // namespace arnet::net
