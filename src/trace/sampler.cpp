#include "arnet/trace/sampler.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "arnet/obs/export.hpp"

namespace arnet::trace {

namespace {

constexpr const char* kVerdictMiss = "miss";
constexpr const char* kVerdictDrop = "drop";
constexpr const char* kVerdictOutlier = "outlier";
constexpr const char* kVerdictReservoir = "reservoir";

/// Slots of the in-flight table (a power of two).
constexpr std::uint32_t kPendingSlots = 4096;

}  // namespace

TailSampler::TailSampler(SamplerConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), outlier_ms_(cfg.outlier_threshold_ms), pending_(kPendingSlots) {}

std::uint32_t TailSampler::acquire_chunk() {
  if (!free_chunks_.empty()) {
    const std::uint32_t c = free_chunks_.back();
    free_chunks_.pop_back();
    chunk_next_[c] = kNoChunk;
    return c;
  }
  const auto c = static_cast<std::uint32_t>(chunk_next_.size());
  chunk_next_.push_back(kNoChunk);
  arena_.resize(arena_.size() + kChunkSpans);
  return c;
}

void TailSampler::release_chain(Pending& p) {
  for (std::uint32_t c = p.head; c != kNoChunk; c = chunk_next_[c]) free_chunks_.push_back(c);
  p.head = p.tail = kNoChunk;
}

void TailSampler::on_event(const TraceEvent& e) {
  if (e.trace_id == 0) return;  // untraced: same no-op contract as the rings
  Pending& p = pending_[e.trace_id & (kPendingSlots - 1)];
  if (p.trace_id != e.trace_id) {
    // Slot miss: a new frame, or a straggler for one that already completed.
    // Opening events are kFrameCapture in practice, so the straggler check
    // (a map lookup) stays off the common path.
    if (e.kind != EventKind::kFrameCapture &&
        retained_.find(e.trace_id) != retained_.end()) {
      return;
    }
    // A displaced stale frame's chain returns to the free list first.
    if (p.trace_id != 0) ++stats_.pending_evicted;
    release_chain(p);
    p.head = p.tail = acquire_chunk();
    p.trace_id = e.trace_id;
    p.first_time = e.time;
    p.count = 0;
    p.truncated = 0;
    p.dropped = false;
  }
  if (e.kind == EventKind::kDrop || e.kind == EventKind::kShed) p.dropped = true;
  if (p.count < cfg_.max_spans_per_frame) {
    const std::uint32_t at = p.count++ % kChunkSpans;
    if (at == 0 && p.count > 1) {
      const std::uint32_t next = acquire_chunk();
      chunk_next_[p.tail] = next;
      p.tail = next;
    }
    arena_[static_cast<std::size_t>(p.tail) * kChunkSpans + at] = e;
  } else {
    ++p.truncated;
    ++stats_.truncated_spans;
  }
  if (e.kind == EventKind::kFrameDone || e.kind == EventKind::kFrameMiss) {
    finalize(p, e);
  }
}

void TailSampler::finalize(Pending& p, const TraceEvent& completion) {
  ++stats_.frames_seen;
  const std::uint32_t trace_id = p.trace_id;
  p.trace_id = 0;  // the slot is free either way; its buffer returns below

  // Decide the verdict before building anything: the common case (healthy
  // frame, reservoir full, not selected) must not allocate.
  // Priority: miss 3, drop 2, outlier 1, reservoir 0.
  const char* verdict;
  int priority;
  std::uint64_t* retained_counter;
  if (completion.kind == EventKind::kFrameMiss) {
    verdict = kVerdictMiss;
    priority = 3;
    retained_counter = &stats_.retained_miss;
  } else if (p.dropped) {
    verdict = kVerdictDrop;
    priority = 2;
    retained_counter = &stats_.retained_drop;
  } else if (outlier_ms_ > 0.0 &&
             sim::to_milliseconds(static_cast<sim::Time>(completion.time - p.first_time)) >
                 outlier_ms_) {
    verdict = kVerdictOutlier;
    priority = 1;
    retained_counter = &stats_.retained_outlier;
  } else {
    // Healthy frame: seeded reservoir (Algorithm R). The reservoir
    // population is the retained frames with verdict "reservoir"; budget
    // evictions shrink it, which simply reopens slots for later healthy
    // frames.
    ++healthy_seen_;
    if (reservoir_.size() >= cfg_.reservoir_capacity) {
      if (cfg_.reservoir_capacity == 0) {
        release_chain(p);
        return;
      }
      const std::int64_t j =
          rng_.uniform_int(1, static_cast<std::int64_t>(healthy_seen_));
      if (j > static_cast<std::int64_t>(cfg_.reservoir_capacity)) {
        release_chain(p);
        return;
      }
      // Replace slot j (1-based, admit order) with the new frame.
      const std::uint32_t victim = reservoir_[static_cast<std::size_t>(j - 1)];
      auto vit = retained_.find(victim);
      spans_used_ -= vit->second.spans.size();
      retained_.erase(vit);
      reservoir_.erase(reservoir_.begin() + (j - 1));
      ++stats_.evicted;
    }
    verdict = kVerdictReservoir;
    priority = 0;
    retained_counter = &stats_.retained_reservoir;
  }

  // Make room before copying anything: a frame the budget refuses costs
  // no allocation.
  if (!make_room(priority, p.count)) {
    release_chain(p);
    return;
  }
  RetainedFrame f;
  f.trace_id = trace_id;
  f.verdict = verdict;
  f.first_time = p.first_time;
  f.last_time = completion.time;
  f.latency_ns = completion.time - p.first_time;
  f.truncated = p.truncated;
  // Retention is the rare path: only here do the spans leave the arena.
  f.spans.reserve(p.count);
  std::uint32_t left = p.count;
  for (std::uint32_t c = p.head; left > 0; c = chunk_next_[c]) {
    const std::uint32_t n = std::min(left, kChunkSpans);
    const auto first = arena_.begin() + static_cast<std::ptrdiff_t>(c) * kChunkSpans;
    f.spans.insert(f.spans.end(), first, first + n);
    left -= n;
  }
  release_chain(p);
  spans_used_ += f.spans.size();
  retained_.emplace(trace_id, std::move(f));
  switch (priority) {
    case 0: reservoir_.push_back(trace_id); break;
    case 1: outliers_.push_back(trace_id); break;
    case 2: drops_.push_back(trace_id); break;
    default: break;  // misses are never victims: no index needed
  }
  ++*retained_counter;
}

bool TailSampler::evict_one(int below_priority) {
  // Lowest priority first, then oldest admit order within it — the class
  // indexes keep this O(1) instead of a scan over every retained frame.
  auto kill = [this](std::uint32_t tid) {
    auto it = retained_.find(tid);
    spans_used_ -= it->second.spans.size();
    retained_.erase(it);
    ++stats_.evicted;
  };
  if (below_priority > 0 && !reservoir_.empty()) {
    kill(reservoir_.front());
    reservoir_.erase(reservoir_.begin());
    return true;
  }
  if (below_priority > 1 && !outliers_.empty()) {
    kill(outliers_.front());
    outliers_.pop_front();
    return true;
  }
  if (below_priority > 2 && !drops_.empty()) {
    kill(drops_.front());
    drops_.pop_front();
    return true;
  }
  return false;
}

bool TailSampler::make_room(int priority, std::size_t need) {
  if (need > cfg_.span_budget) {
    ++stats_.budget_rejected;
    return false;
  }
  while (spans_used_ + need > cfg_.span_budget) {
    if (!evict_one(priority)) {
      ++stats_.budget_rejected;
      return false;
    }
  }
  return true;
}

void TailSampler::note(std::uint64_t uid, const char* reason, sim::Time t) {
  if (notes_.size() >= cfg_.note_capacity) {
    ++stats_.notes_dropped;
    return;
  }
  Note n;
  n.time = t;
  n.uid = uid;
  n.reason = reason ? reason : "";
  notes_.push_back(n);
}

// ------------------------------------------------------------------ export

void write_samples_header(std::ostream& os) {
  os << "{\"kind\":\"meta\",\"schema\":\"arnet-sample-v1\"}\n";
}

void append_samples_run(const TailSampler& sampler, const Tracer& tracer,
                        const std::string& scope, std::ostream& os) {
  const TailSampler::Stats& st = sampler.stats();
  const std::string scope_json = obs::json_escape(scope);
  os << "{\"kind\":\"run\",\"scope\":\"" << scope_json
     << "\",\"frames_seen\":" << st.frames_seen
     << ",\"retained\":" << sampler.retained_count()
     << ",\"miss\":" << st.retained_miss << ",\"drop\":" << st.retained_drop
     << ",\"outlier\":" << st.retained_outlier
     << ",\"reservoir\":" << st.retained_reservoir
     << ",\"evicted\":" << st.evicted
     << ",\"budget_rejected\":" << st.budget_rejected
     << ",\"truncated_spans\":" << st.truncated_spans
     << ",\"pending_evicted\":" << st.pending_evicted
     << ",\"spans\":" << sampler.spans_used()
     << ",\"span_budget\":" << sampler.config().span_budget
     << ",\"notes\":" << sampler.notes().size() << "}\n";
  // Entity names as JSON, escaped once per run on first use: a run retains
  // far more spans than it names entities.
  std::vector<std::string> entity_json(tracer.entity_count());
  std::vector<bool> escaped(tracer.entity_count(), false);
  auto entity = [&](EntityId id) -> std::string_view {
    if (id >= entity_json.size()) return {};
    if (!escaped[id]) {
      entity_json[id] = obs::json_escape(tracer.entity_name(id));
      escaped[id] = true;
    }
    return entity_json[id];
  };
  for (const auto& [tid, f] : sampler.retained_frames()) {
    os << "{\"kind\":\"frame\",\"scope\":\"" << scope_json << "\",\"trace\":" << tid
       << ",\"verdict\":\"" << f.verdict << "\",\"t0_ns\":" << f.first_time
       << ",\"t1_ns\":" << f.last_time << ",\"latency_ns\":" << f.latency_ns
       << ",\"spans\":" << f.spans.size() << ",\"truncated\":" << f.truncated
       << "}\n";
    for (const TraceEvent& e : f.spans) {
      os << "{\"kind\":\"span\",\"scope\":\"" << scope_json << "\",\"trace\":" << tid
         << ",\"t_ns\":" << e.time << ",\"entity\":\"" << entity(e.entity)
         << "\",\"event\":\"" << to_string(e.kind) << "\",\"span\":" << e.span_id
         << ",\"uid\":" << e.uid << ",\"size\":" << e.size;
      if (e.reason) os << ",\"reason\":\"" << obs::json_escape(e.reason) << "\"";
      os << "}\n";
    }
  }
  for (const TailSampler::Note& n : sampler.notes()) {
    os << "{\"kind\":\"note\",\"scope\":\"" << scope_json << "\",\"t_ns\":" << n.time
       << ",\"uid\":" << n.uid << ",\"reason\":\"" << obs::json_escape(n.reason) << "\"}\n";
  }
}

void write_samples_end(std::ostream& os, std::size_t runs) {
  os << "{\"kind\":\"end\",\"runs\":" << runs << "}\n";
}

}  // namespace arnet::trace
