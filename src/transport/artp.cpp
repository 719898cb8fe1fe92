#include "arnet/transport/artp.hpp"

#include "arnet/check/assert.hpp"
#include "arnet/trace/profiler.hpp"

#include <algorithm>
#include <cassert>

namespace arnet::transport {

using net::ArtpHeader;
using net::Packet;

namespace {
constexpr sim::Time kNeverStale = sim::kNever;
constexpr std::int32_t kMtuPayload = 1300;
constexpr sim::Time kDefaultStaleAfter = sim::milliseconds(60);
constexpr std::int32_t kFeedbackBytes = 60;
constexpr sim::Time kExpiry = sim::milliseconds(250);
// Window of the per-path min-OWD estimate, at the receiver and mirrored at
// the sender. It must be windowed: an all-time minimum turns any later
// base-delay increase (handover, reroute) into a phantom standing queue that
// pins the controller at its floor rate (see windowed_filter.hpp).
constexpr sim::Time kMinOwdWindow = sim::seconds(10);

bool droppable(net::Priority p) {
  return p == net::Priority::kMediumNoDelay || p == net::Priority::kLowest;
}
}  // namespace

// ---------------------------------------------------------------- ArtpSender

ArtpSender::ArtpSender(net::Network& net, net::NodeId local, net::Port local_port,
                       net::NodeId remote, net::Port remote_port, net::FlowId flow,
                       ArtpSenderConfig cfg, std::vector<ArtpPathConfig> paths)
    : net_(net),
      local_(local),
      remote_(remote),
      local_port_(local_port),
      remote_port_(remote_port),
      flow_(flow),
      cfg_(cfg),
      pace_timer_(net.sim(), [this] { pace_tick(); }) {
  if (paths.empty()) {
    paths.push_back(ArtpPathConfig{});  // single default-routed path
  }
  std::uint8_t id = 0;
  for (auto& pc : paths) {
    Path p;
    p.controller = DelayGradientController(pc.initial_rate_bps);
    p.cfg = std::move(pc);
    p.id = id++;
    p.min_owd.set_window(kMinOwdWindow);
    paths_.push_back(std::move(p));
  }
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
  net_.node(local_).bind(local_port_, [this](Packet&& p) { on_packet(std::move(p)); });
  pace_timer_.arm(cfg_.pace_interval);
}

ArtpSender::~ArtpSender() { net_.node(local_).unbind(local_port_); }

double ArtpSender::allowed_rate_bps() const {
  double r = 0.0;
  for (const auto& p : paths_) {
    if (path_up(&p - paths_.data())) r += p.controller.rate_bps();
  }
  return r;
}

bool ArtpSender::path_up(std::size_t i) const {
  const Path& p = paths_[i];
  return p.cfg.first_hop == nullptr || p.cfg.first_hop->is_up();
}

std::uint64_t ArtpSender::send_message(const ArtpMessageSpec& spec) {
  std::uint64_t id = next_msg_id_++;
  auto count = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, (spec.bytes + kMtuPayload - 1) / kMtuPayload));
  sim::Time stale = spec.stale_after;
  if (stale == 0) stale = droppable(spec.priority) ? kDefaultStaleAfter : kNeverStale;

  std::int64_t remaining = std::max<std::int64_t>(spec.bytes, 1);
  std::vector<Chunk> staged;
  staged.reserve(static_cast<std::size_t>(count));
  std::uint32_t cseq = 0;
  CriticalMsg* critical_record = nullptr;
  if (spec.tclass == net::TrafficClass::kCriticalData) {
    cseq = next_critical_seq_++;
    critical_record = &critical_sent_[cseq];
    critical_record->last_wire_activity = net_.sim().now();
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    Chunk c;
    c.msg_id = id;
    c.critical_seq = cseq;
    c.index = i;
    c.count = count;
    c.payload = static_cast<std::int32_t>(std::min<std::int64_t>(remaining, kMtuPayload));
    remaining -= c.payload;
    c.tclass = spec.tclass;
    c.priority = spec.priority;
    c.app = spec.app;
    c.frame_id = spec.frame_id;
    c.sub_priority = spec.sub_priority;
    c.submitted_at = net_.sim().now();
    c.stale_after = stale;
    c.trace = spec.trace;
    if (critical_record) critical_record->chunks.push_back(c);
    backlog_bytes_ += c.payload;
    staged.push_back(std::move(c));
  }

  trace_.emit(net_.sim().now(), trace::EventKind::kEnqueue, spec.trace, id, spec.bytes);

  // Insert the whole message before the first queued message of strictly
  // lower importance (greater sub_priority), never splitting a message:
  // insertion points are message boundaries (index == 0) only.
  auto& dest_band = bands_[static_cast<std::size_t>(spec.priority)];
  auto insert_at = dest_band.end();
  for (auto it = dest_band.begin(); it != dest_band.end(); ++it) {
    if (it->index == 0 && !it->retransmission && it->sub_priority > spec.sub_priority) {
      insert_at = it;
      break;
    }
  }
  dest_band.insert(insert_at, std::make_move_iterator(staged.begin()),
                   std::make_move_iterator(staged.end()));

  if (spec.priority == net::Priority::kHighest) {
    // "Should neither be discarded nor delayed": bypass the pacer.
    auto& band = bands_[0];
    while (!band.empty()) {
      Chunk c = std::move(band.front());
      band.pop_front();
      bool dup = false;
      Path* path = pick_path(c, dup);
      if (!path) path = first_up_path();
      if (!path) {
        // No connectivity at all; leave it staged for the pacer.
        band.push_front(std::move(c));
        break;
      }
      backlog_bytes_ -= c.payload;
      transmit(c, *path);
      if (dup) {
        if (Path* other = lowest_owd_up_path(path); other) transmit(c, *other);
      }
    }
  }
  return id;
}

ArtpSender::Path* ArtpSender::first_up_path() {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (path_up(i)) return &paths_[i];
  }
  return nullptr;
}

ArtpSender::Path* ArtpSender::lowest_owd_up_path(const Path* exclude) {
  Path* best = nullptr;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (!path_up(i) || &paths_[i] == exclude) continue;
    Path& p = paths_[i];
    if (!best || (p.saw_feedback && (!best->saw_feedback || p.last_owd < best->last_owd))) {
      best = &p;
    }
  }
  return best;
}

ArtpSender::Path* ArtpSender::pick_path(const Chunk& c, bool& duplicate_on_secondary) {
  duplicate_on_secondary = false;
  std::size_t up_count = 0;
  for (std::size_t i = 0; i < paths_.size(); ++i) up_count += path_up(i) ? 1 : 0;
  if (up_count == 0) return nullptr;

  bool critical = c.tclass == net::TrafficClass::kCriticalData;
  if (cfg_.duplicate_critical_on_two_paths && critical && up_count >= 2 &&
      cfg_.policy != MultipathPolicy::kSingle) {
    duplicate_on_secondary = true;
  }

  switch (cfg_.policy) {
    case MultipathPolicy::kSingle:
      return &paths_[0];  // even if down: models a naive single-homed client
    case MultipathPolicy::kHandoverOnly:
      return first_up_path();
    case MultipathPolicy::kPreferred: {
      if (path_up(0) && (paths_[0].budget_bytes > 0 || c.priority == net::Priority::kHighest)) {
        return &paths_[0];
      }
      // Overflow / failover to the next live path.
      for (std::size_t i = 1; i < paths_.size(); ++i) {
        if (path_up(i)) return &paths_[i];
      }
      return path_up(0) ? &paths_[0] : nullptr;
    }
    case MultipathPolicy::kAggregate: {
      if (c.priority == net::Priority::kHighest || critical) return lowest_owd_up_path();
      Path* best = nullptr;
      for (std::size_t i = 0; i < paths_.size(); ++i) {
        if (!path_up(i)) continue;
        if (!best || paths_[i].budget_bytes > best->budget_bytes) best = &paths_[i];
      }
      return best;
    }
  }
  return nullptr;
}

void ArtpSender::update_congestion_level() {
  int before = congestion_level_;
  double rate = allowed_rate_bps();
  if (rate <= 0) {
    congestion_level_ = 3;
  } else {
    sim::Time backlog_time = sim::from_seconds(static_cast<double>(backlog_bytes_) * 8.0 / rate);
    if (backlog_time < cfg_.shed_backlog_threshold) {
      congestion_level_ = 0;
    } else if (backlog_time < 2 * cfg_.shed_backlog_threshold) {
      congestion_level_ = 1;
    } else if (backlog_time < 4 * cfg_.shed_backlog_threshold) {
      congestion_level_ = 2;
    } else {
      congestion_level_ = 3;
    }
  }
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.congestion_level.get(*m, "artp.congestion_level", cfg_.entity)
        .set(static_cast<double>(congestion_level_));
    if (congestion_level_ > before) {
      instruments_.degradations.get(*m, "artp.degradation_events", cfg_.entity).add();
    }
  }
}

void ArtpSender::shed_front_message(std::deque<Chunk>& q) {
  std::uint64_t msg = q.front().msg_id;
  trace_.emit(net_.sim().now(), trace::EventKind::kShed, q.front().trace, msg, 0,
              congestion_level_ >= 2 ? "congestion" : "stale");
  while (!q.empty() && q.front().msg_id == msg) {
    backlog_bytes_ -= q.front().payload;
    shed_bytes_ += q.front().payload;
    q.pop_front();
  }
  ++shed_messages_;
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.shed.get(*m, "artp.shed_messages", cfg_.entity).add();
  }
  // Shedding must never double-subtract a chunk: a negative backlog would
  // silently disable graceful degradation (it gates on backlog thresholds).
  ARNET_ASSERT(backlog_bytes_ >= 0, "ARTP backlog went negative (", backlog_bytes_,
               " bytes) after shedding message ", msg);
}

void ArtpSender::restage_critical(std::uint32_t cseq, std::uint32_t only_chunk,
                                  bool whole_message) {
  auto it = critical_sent_.find(cseq);
  if (it == critical_sent_.end()) return;
  sim::Time now = net_.sim().now();
  // Back off: at most one re-stage per quarter critical_rto per message, so
  // repeated NACKs across feedback epochs don't multiply traffic while
  // recovery still fits interactive budgets (paper §VI-C).
  if (now - it->second.last_wire_activity < cfg_.critical_rto / 4) return;
  for (const Chunk& orig : it->second.chunks) {
    if (!whole_message && orig.index != only_chunk) continue;
    Chunk c = orig;
    c.retransmission = true;
    c.submitted_at = now;
    backlog_bytes_ += c.payload;
    bands_[band_of(c)].push_front(std::move(c));
    ++retransmitted_chunks_;
  }
  it->second.last_wire_activity = now;
}

void ArtpSender::check_critical_tail() {
  sim::Time now = net_.sim().now();
  for (auto& [cseq, msg] : critical_sent_) {
    if (msg.fully_sent && now - msg.last_wire_activity > cfg_.critical_rto) {
      restage_critical(cseq, 0, /*whole_message=*/true);
    }
  }
}

void ArtpSender::pace_tick() {
  trace::ProfScope prof(cfg_.telemetry.tracer, "ArtpSender::pace_tick");
  sim::Time now = net_.sim().now();
  check_critical_tail();
  double dt = sim::to_seconds(cfg_.pace_interval);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    Path& p = paths_[i];
    if (!path_up(i)) {
      p.budget_bytes = 0;
      continue;
    }
    double per_tick = p.controller.rate_bps() * dt / 8.0;
    p.budget_bytes = std::min(p.budget_bytes + per_tick, 2.0 * per_tick);
  }
  update_congestion_level();

  // Drain strict-priority. Band 0 ignores budgets (never delayed); lower
  // bands stop as soon as no permissible path has budget.
  for (std::size_t band = 0; band < 4; ++band) {
    auto& q = bands_[band];
    while (!q.empty()) {
      Chunk& head = q.front();
      // Shed rules: stale droppable messages always; whole droppable bands
      // under escalating congestion (paper Fig. 4's graceful degradation).
      // Decisions are taken at message boundaries only — a partially sent
      // message is always finished, since a message missing chunks is dead
      // weight on the wire.
      bool shed = false;
      if (droppable(head.priority) && head.index == 0) {
        if (head.stale_after != kNeverStale && now - head.submitted_at > head.stale_after) {
          shed = true;
        } else if (head.priority == net::Priority::kLowest && congestion_level_ >= 2) {
          shed = true;
        } else if (head.priority == net::Priority::kMediumNoDelay && congestion_level_ >= 3) {
          shed = true;
        }
      }
      if (shed) {
        shed_front_message(q);
        continue;
      }

      bool dup = false;
      Path* path = pick_path(head, dup);
      if (!path) break;
      if (band != 0 && path->budget_bytes <= 0) {
        // Try any other up path with budget under aggregate policy.
        if (cfg_.policy == MultipathPolicy::kAggregate) {
          path = nullptr;
          for (std::size_t i = 0; i < paths_.size(); ++i) {
            if (path_up(i) && paths_[i].budget_bytes > 0) {
              path = &paths_[i];
              break;
            }
          }
        } else {
          path = nullptr;
        }
      }
      if (!path) break;

      Chunk c = std::move(q.front());
      q.pop_front();
      backlog_bytes_ -= c.payload;
      transmit(c, *path);
      if (dup) {
        if (Path* other = lowest_owd_up_path(path); other) transmit(c, *other);
      }
    }
    if (band != 0 && !q.empty()) break;  // strict priority: lower bands wait
  }

  if (qos_cb_) {
    ArtpQosReport r;
    r.allowed_rate_bps = allowed_rate_bps();
    r.backlog_bytes = backlog_bytes_;
    r.congestion_level = congestion_level_;
    Path* best = lowest_owd_up_path();
    r.min_path_owd = best && best->saw_feedback ? best->last_owd : 0;
    qos_cb_(r);
  }
  pace_timer_.arm(cfg_.pace_interval);
}

void ArtpSender::note_sent(const Chunk& c, std::int32_t wire_bytes) {
  if (auto* m = cfg_.telemetry.metrics) {
    const std::size_t band = band_of(c);
    instruments_.band_sent[band]
        .get(*m,
             [&] {
               return obs::MetricId{"artp.sent_bytes",
                                    cfg_.entity + "/band:" + std::to_string(band)};
             })
        .add(wire_bytes);
  }
}

void ArtpSender::transmit(const Chunk& c, Path& path) {
  Packet p;
  p.flow = flow_;
  p.src = local_;
  p.dst = remote_;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.size_bytes = c.payload + cfg_.header_bytes;
  p.tclass = c.tclass;
  p.priority = c.priority;
  p.app = c.app;

  ArtpHeader h;
  h.kind = ArtpHeader::Kind::kData;
  h.msg_id = c.msg_id;
  h.chunk = c.index;
  h.chunk_count = c.count;
  h.frame_id = c.frame_id;
  h.critical_seq = c.critical_seq;
  h.path_id = path.id;
  h.path_seq = path.next_path_seq++;
  h.sent_at = net_.sim().now();
  h.msg_submitted_at = c.submitted_at;
  p.header = h;
  p.trace = c.trace;

  trace_.emit(net_.sim().now(),
              c.retransmission ? trace::EventKind::kRetx : trace::EventKind::kTx, c.trace,
              c.msg_id, p.size_bytes);

  path.budget_bytes -= p.size_bytes;
  path.sent_bytes += p.size_bytes;
  sent_bytes_ += p.size_bytes;
  note_sent(c, p.size_bytes);

  if (path.cfg.first_hop) {
    p.src = local_;
    net_.send_via(*path.cfg.first_hop, std::move(p));
  } else {
    net_.node(local_).send(std::move(p));
  }

  if (c.critical_seq != 0) {
    if (auto it = critical_sent_.find(c.critical_seq); it != critical_sent_.end()) {
      it->second.last_wire_activity = net_.sim().now();
      if (c.index + 1 == c.count) it->second.fully_sent = true;
    }
  }

  // Per-message FEC: after the last data chunk of a protected message,
  // append parity chunks sized to the largest chunk.
  if (c.tclass == net::TrafficClass::kBestEffortLossRecovery && !c.retransmission &&
      cfg_.fec_parity > 0 && c.index + 1 == c.count) {
    for (std::uint32_t i = 0; i < cfg_.fec_parity; ++i) {
      Packet fp;
      fp.flow = flow_;
      fp.src = local_;
      fp.dst = remote_;
      fp.src_port = local_port_;
      fp.dst_port = remote_port_;
      // Parity chunks match the largest data chunk of the message.
      fp.size_bytes = (c.count > 1 ? kMtuPayload : c.payload) + cfg_.header_bytes;
      fp.tclass = c.tclass;
      fp.priority = c.priority;
      fp.app = c.app;
      ArtpHeader fh;
      fh.kind = ArtpHeader::Kind::kParity;
      fh.msg_id = c.msg_id;
      fh.chunk = i;
      fh.chunk_count = c.count;
      fh.frame_id = c.frame_id;
      fh.path_id = path.id;
      fh.path_seq = path.next_path_seq++;
      fh.sent_at = net_.sim().now();
      fh.msg_submitted_at = c.submitted_at;
      fp.header = fh;
      fp.trace = c.trace;
      trace_.emit(net_.sim().now(), trace::EventKind::kTx, c.trace, c.msg_id, fp.size_bytes,
                  "fec-parity");
      path.budget_bytes -= fp.size_bytes;
      path.sent_bytes += fp.size_bytes;
      sent_bytes_ += fp.size_bytes;
      note_sent(c, fp.size_bytes);
      if (path.cfg.first_hop) {
        net_.send_via(*path.cfg.first_hop, std::move(fp));
      } else {
        net_.node(local_).send(std::move(fp));
      }
    }
  }
}

void ArtpSender::on_packet(Packet&& p) {
  const auto* h = std::get_if<ArtpHeader>(&p.header);
  if (!h || h->kind != ArtpHeader::Kind::kFeedback) return;
  on_feedback(*h);
}

void ArtpSender::on_feedback(const ArtpHeader& h) {
  if (h.path_id >= paths_.size()) return;
  trace_.emit(net_.sim().now(), trace::EventKind::kAck, trace::TraceContext{},
              h.fb_highest_seen, static_cast<std::int64_t>(h.fb_nacks.size()));
  Path& path = paths_[h.path_id];
  path.last_owd = h.fb_owd;
  path.min_owd.update(h.fb_min_owd, net_.sim().now());
  path.saw_feedback = true;

  CcFeedback fb;
  fb.owd = h.fb_owd;
  fb.min_owd = h.fb_min_owd;
  fb.loss_fraction = h.fb_loss_fraction;
  path.controller.on_feedback(fb);

  // Prune bookkeeping covered by the receiver's in-order critical watermark.
  if (h.fb_highest_seen > 0) {
    critical_sent_.erase(critical_sent_.begin(),
                         critical_sent_.upper_bound(static_cast<std::uint32_t>(h.fb_highest_seen)));
  }

  // Chunk NACKs: the receiver saw part of the message and names the holes.
  // ArtpNack::msg_id carries the critical_seq for critical messages.
  for (const auto& nack : h.fb_nacks) {
    restage_critical(static_cast<std::uint32_t>(nack.msg_id), nack.chunk,
                     /*whole_message=*/false);
  }
  // Full-loss NACKs: a critical_seq gap with no surviving packet.
  for (std::uint32_t cseq : h.fb_missing_critical) {
    restage_critical(cseq, 0, /*whole_message=*/true);
  }
}

// -------------------------------------------------------------- ArtpReceiver

ArtpReceiver::ArtpReceiver(net::Network& net, net::NodeId local, net::Port local_port)
    : ArtpReceiver(net, local, local_port, Config{}) {}

ArtpReceiver::ArtpReceiver(net::Network& net, net::NodeId local, net::Port local_port, Config cfg)
    : net_(net),
      local_(local),
      local_port_(local_port),
      cfg_(cfg),
      feedback_timer_(net.sim(), [this] { feedback_tick(); }) {
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
  net_.node(local_).bind(local_port_, [this](Packet&& p) { on_packet(std::move(p)); });
  feedback_timer_.arm(cfg_.feedback_interval);
}

ArtpReceiver::~ArtpReceiver() { net_.node(local_).unbind(local_port_); }

void ArtpReceiver::on_packet(Packet&& p) {
  const auto* h = std::get_if<ArtpHeader>(&p.header);
  if (!h || h->kind == ArtpHeader::Kind::kFeedback) return;
  sim::Time now = net_.sim().now();
  peer_ = {p.src, p.src_port, p.flow};

  auto [ps_it, ps_new] = path_state_.try_emplace(h->path_id);
  PathState& ps = ps_it->second;
  if (ps_new) ps.min_owd.set_window(kMinOwdWindow);
  ps.active = true;
  // `highest_seq` is the next expected per-path wire sequence; any jump
  // counts the skipped packets as losses (paths are FIFO in simulation).
  if (h->path_seq >= ps.highest_seq) {
    ps.lost_in_epoch += static_cast<std::int64_t>(h->path_seq - ps.highest_seq);
    ps.highest_seq = h->path_seq + 1;
  }
  ++ps.received_in_epoch;
  ps.last_owd = now - h->sent_at;
  ps.min_owd.update(ps.last_owd, now);

  // Critical-sequence gap tracking: any arrival of cseq X reveals every
  // unseen cseq below it (full-loss detection, independent of chunk state).
  if (h->critical_seq != 0) {
    missing_critical_since_.erase(h->critical_seq);
    if (h->critical_seq > highest_critical_seen_) {
      for (std::uint32_t c = std::max(highest_critical_seen_ + 1, next_critical_seq_);
           c < h->critical_seq; ++c) {
        missing_critical_since_.emplace(c, now);
      }
      highest_critical_seen_ = h->critical_seq;
    }
  }

  auto [it, inserted] = pending_.try_emplace(h->msg_id);
  PendingMsg& m = it->second;
  if (inserted) {
    m.critical_seq = h->critical_seq;
    m.chunk_count = h->chunk_count;
    m.have.assign(h->chunk_count, false);
    m.tclass = p.tclass;
    m.priority = p.priority;
    m.app = p.app;
    m.frame_id = h->frame_id;
    m.submitted_at = h->msg_submitted_at;
    m.first_arrival = now;
  }
  if (!m.trace.active() && p.trace.active()) m.trace = p.trace;
  if (m.delivered) return;  // duplicate of an already-delivered message

  if (h->kind == ArtpHeader::Kind::kData) {
    if (h->chunk < m.have.size() && !m.have[h->chunk]) {
      m.have[h->chunk] = true;
      ++m.have_count;
      m.bytes += p.size_bytes - 30;
    }
  } else {  // parity
    ++m.parity_seen;
  }

  // FEC recovery: enough parity to rebuild every missing data chunk.
  if (m.have_count < m.chunk_count && m.have_count + m.parity_seen >= m.chunk_count) {
    std::uint32_t recovered = m.chunk_count - m.have_count;
    m.have.assign(m.chunk_count, true);
    m.have_count = m.chunk_count;
    m.fec_recovered = true;
    fec_recoveries_ += recovered;
    trace_.emit(net_.sim().now(), trace::EventKind::kFecRepair, m.trace, h->msg_id, recovered);
  }

  try_deliver(h->msg_id);
}

void ArtpReceiver::try_deliver(std::uint64_t msg_id) {
  auto it = pending_.find(msg_id);
  if (it == pending_.end()) return;
  PendingMsg& m = it->second;
  if (m.delivered || m.have_count < m.chunk_count) return;
  m.delivered = true;

  ArtpDelivery d;
  d.msg_id = msg_id;
  d.frame_id = m.frame_id;
  d.tclass = m.tclass;
  d.priority = m.priority;
  d.app = m.app;
  d.bytes = m.bytes;
  d.submitted_at = m.submitted_at;
  d.completed_at = net_.sim().now();
  d.complete = true;
  d.fec_recovered = m.fec_recovered;
  d.completeness = 1.0;
  d.trace = m.trace;

  // The (delivered) entry is retained until expiry as a tombstone so that
  // late duplicates (multipath duplication, spurious retransmits) cannot
  // re-deliver the message.
  m.have.clear();
  m.have.shrink_to_fit();

  if (m.tclass == net::TrafficClass::kCriticalData) {
    // A message behind the watermark was already delivered in the past
    // (late duplicates after tombstone GC); emplacing it would wedge the
    // in-order flush.
    if (m.critical_seq >= next_critical_seq_) {
      critical_ready_.emplace(m.critical_seq, std::move(d));
      flush_critical_in_order();
    }
  } else {
    ++delivered_messages_;
    note_delivery(d);
    if (message_cb_) message_cb_(d);
  }
}

void ArtpReceiver::note_delivery(const ArtpDelivery& d) {
  trace_.emit(net_.sim().now(), trace::EventKind::kDeliver, d.trace, d.msg_id, d.bytes,
              d.fec_recovered ? "fec-recovered" : nullptr);
  obs::MetricsRegistry* m = cfg_.telemetry.metrics;
  if (!m) return;
  const double latency_ms = sim::to_milliseconds(d.latency());
  instruments_.delivered.get(*m, "artp.delivered_messages", cfg_.entity).add();
  instruments_.goodput[static_cast<std::size_t>(d.app)]
      .get(*m,
           [&] {
             return obs::MetricId{"artp.goodput_bytes",
                                  cfg_.entity + "/app:" + net::to_string(d.app)};
           })
      .add(d.bytes);
  instruments_.latency.get(*m, "artp.msg_latency_ms", cfg_.entity).record(latency_ms);
  // Per-band end-to-end delay: lets per-priority latency be compared against
  // the per-band bytes the sender publishes (and against trace timelines).
  const auto band = static_cast<std::size_t>(d.priority);
  instruments_.band_delay[band]
      .get(*m,
           [&] {
             return obs::MetricId{"artp.band_delay_ms",
                                  cfg_.entity + "/band:" + std::to_string(band)};
           })
      .record(latency_ms);
}

void ArtpReceiver::flush_critical_in_order() {
  // Deliver completed critical messages strictly in critical_seq order; a
  // hole (lost or still in flight) blocks everything behind it.
  while (!critical_ready_.empty() && critical_ready_.begin()->first == next_critical_seq_) {
    auto ready = critical_ready_.begin();
    ++delivered_messages_;
    ++next_critical_seq_;
    note_delivery(ready->second);
    if (message_cb_) message_cb_(ready->second);
    critical_ready_.erase(ready);
  }
}

void ArtpReceiver::expire_stale(sim::Time now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingMsg& m = it->second;
    if (m.delivered) {
      // Garbage-collect tombstones once late duplicates are implausible.
      if (now - m.first_arrival > kExpiry) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    if (m.tclass != net::TrafficClass::kCriticalData && now - m.first_arrival > kExpiry) {
      ArtpDelivery d;
      d.msg_id = it->first;
      d.frame_id = m.frame_id;
      d.tclass = m.tclass;
      d.priority = m.priority;
      d.app = m.app;
      d.bytes = m.bytes;
      d.submitted_at = m.submitted_at;
      d.completed_at = now;
      d.complete = false;
      d.completeness = m.chunk_count ? static_cast<double>(m.have_count) / m.chunk_count : 0.0;
      d.trace = m.trace;
      trace_.emit(net_.sim().now(), trace::EventKind::kDeliver, m.trace, it->first, m.bytes,
                  "expired");
      ++expired_messages_;
      it = pending_.erase(it);
      if (message_cb_) message_cb_(d);
    } else {
      ++it;
    }
  }
}

void ArtpReceiver::feedback_tick() {
  trace::ProfScope prof(cfg_.telemetry.tracer, "ArtpReceiver::feedback_tick");
  sim::Time now = net_.sim().now();
  expire_stale(now);
  if (peer_) {
    auto [peer_node, peer_port, flow] = *peer_;

    // Collect NACKs (attached to the first feedback packet only, so
    // retransmissions are not duplicated). Chunk NACKs name holes in
    // partially received critical messages (by critical_seq); full-loss
    // NACKs name critical_seq gaps where nothing survived.
    std::vector<net::ArtpNack> nacks;
    for (const auto& [id, m] : pending_) {
      if (m.tclass != net::TrafficClass::kCriticalData || m.delivered) continue;
      if (now - m.first_arrival < cfg_.feedback_interval / 2) continue;
      for (std::uint32_t i = 0; i < m.chunk_count && nacks.size() < 64; ++i) {
        if (!m.have[i]) nacks.push_back({m.critical_seq, i});
      }
    }
    std::vector<std::uint32_t> missing;
    for (const auto& [cseq, since] : missing_critical_since_) {
      if (now - since >= cfg_.feedback_interval / 2 && missing.size() < 64) {
        missing.push_back(cseq);
      }
    }

    bool first = true;
    for (auto& [path_id, ps] : path_state_) {
      if (!ps.active) continue;
      Packet fb;
      fb.flow = flow;
      fb.src = local_;
      fb.dst = peer_node;
      fb.src_port = local_port_;
      fb.dst_port = peer_port;
      fb.size_bytes = kFeedbackBytes;
      fb.tclass = net::TrafficClass::kCriticalData;
      fb.priority = net::Priority::kHighest;
      ArtpHeader h;
      h.kind = ArtpHeader::Kind::kFeedback;
      h.path_id = path_id;
      h.fb_owd = ps.last_owd;
      ps.min_owd.expire(now);
      h.fb_min_owd = ps.min_owd.get_or(ps.last_owd);
      std::int64_t expected = ps.received_in_epoch + ps.lost_in_epoch;
      h.fb_loss_fraction =
          expected > 0 ? static_cast<double>(ps.lost_in_epoch) / static_cast<double>(expected)
                       : 0.0;
      h.fb_highest_seen = next_critical_seq_ - 1;
      if (first) {
        h.fb_nacks = nacks;
        h.fb_missing_critical = missing;
        first = false;
      }
      fb.header = std::move(h);
      net_.node(local_).send(std::move(fb));

      ps.received_in_epoch = 0;
      ps.lost_in_epoch = 0;
      ps.active = false;
    }
  }
  feedback_timer_.arm(cfg_.feedback_interval);
}

}  // namespace arnet::transport
