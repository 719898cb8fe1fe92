#include "arnet/transport/quic_lite.hpp"

#include <algorithm>

namespace arnet::transport {

using net::Packet;
using net::QuicHeader;

namespace {
constexpr std::int32_t kMtuPayload = 1200;  ///< fragment payload bytes
constexpr std::int32_t kHeaderBytes = 38;   ///< IP + UDP + QUIC short header
constexpr sim::Time kPaceInterval = sim::microseconds(200);
constexpr sim::Time kExpiry = sim::milliseconds(250);
constexpr sim::Time kSweepInterval = sim::milliseconds(10);
}  // namespace

// ------------------------------------------------------------ QuicLiteSender

QuicLiteSender::QuicLiteSender(net::Network& net, net::NodeId local, net::Port local_port,
                               net::NodeId remote, net::Port remote_port, net::FlowId flow)
    : net_(net),
      local_(local),
      remote_(remote),
      local_port_(local_port),
      remote_port_(remote_port),
      flow_(flow),
      pace_timer_(net.sim(), [this] { pace_tick(); }) {
  // Bound so ICMP-style errors or future receiver feedback have somewhere to
  // land; the transport itself is one-directional.
  net_.node(local_).bind(local_port_, [](Packet&&) {});
}

QuicLiteSender::~QuicLiteSender() { net_.node(local_).unbind(local_port_); }

std::uint32_t QuicLiteSender::send_frame(std::int64_t bytes) {
  return send_frame(bytes, trace::TraceContext{});
}

std::uint32_t QuicLiteSender::send_frame(std::int64_t bytes, const trace::TraceContext& ctx) {
  std::uint32_t id = next_frame_id_++;
  auto count = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, (bytes + kMtuPayload - 1) / kMtuPayload));
  std::int64_t remaining = std::max<std::int64_t>(bytes, 1);
  const bool was_idle = queue_.empty();
  for (std::uint32_t i = 0; i < count; ++i) {
    Fragment f;
    f.frame_id = id;
    f.frag = i;
    f.frag_count = count;
    f.payload = static_cast<std::int32_t>(std::min<std::int64_t>(remaining, kMtuPayload));
    remaining -= f.payload;
    f.frame_submitted_at = net_.sim().now();
    f.trace = ctx;
    queue_.push_back(f);
  }
  // First fragment goes out immediately; the pacer clocks out the rest. A
  // busy pacer keeps its cadence (new frames join the back of the queue).
  if (was_idle && !pace_timer_.armed()) pace_tick();
  return id;
}

void QuicLiteSender::pace_tick() {
  if (queue_.empty()) return;
  transmit(queue_.front());
  queue_.pop_front();
  if (!queue_.empty()) pace_timer_.arm(kPaceInterval);
}

void QuicLiteSender::transmit(const Fragment& f) {
  Packet p;
  p.flow = flow_;
  p.src = local_;
  p.dst = remote_;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.size_bytes = f.payload + kHeaderBytes;
  p.tclass = net::TrafficClass::kFullBestEffort;
  p.priority = net::Priority::kLowest;
  QuicHeader h;
  h.frame_id = f.frame_id;
  h.frag = f.frag;
  h.frag_count = f.frag_count;
  h.wire_seq = next_wire_seq_++;
  h.sent_at = net_.sim().now();
  h.frame_submitted_at = f.frame_submitted_at;
  p.header = h;
  p.trace = f.trace;
  sent_bytes_ += p.size_bytes;
  net_.node(local_).send(std::move(p));
}

// ---------------------------------------------------------- QuicLiteReceiver

QuicLiteReceiver::QuicLiteReceiver(net::Network& net, net::NodeId local, net::Port local_port)
    : QuicLiteReceiver(net, local, local_port, Config{}) {}

QuicLiteReceiver::QuicLiteReceiver(net::Network& net, net::NodeId local, net::Port local_port,
                                   Config cfg)
    : net_(net),
      local_(local),
      local_port_(local_port),
      cfg_(cfg),
      sweep_timer_(net.sim(), [this] { sweep(); }) {
  net_.node(local_).bind(local_port_, [this](Packet&& p) { on_packet(std::move(p)); });
  sweep_timer_.arm(kSweepInterval);
}

QuicLiteReceiver::~QuicLiteReceiver() { net_.node(local_).unbind(local_port_); }

void QuicLiteReceiver::on_packet(Packet&& p) {
  const auto* h = std::get_if<QuicHeader>(&p.header);
  if (!h) return;
  sim::Time now = net_.sim().now();
  ++fragments_received_;

  auto [it, inserted] = pending_.try_emplace(h->frame_id);
  PendingFrame& f = it->second;
  if (inserted) {
    f.frag_count = h->frag_count;
    f.have.assign(h->frag_count, false);
    f.submitted_at = h->frame_submitted_at;
    f.first_arrival = now;
    f.trace = p.trace;
  }
  if (f.delivered || h->frag >= f.have.size() || f.have[h->frag]) {
    ++duplicate_fragments_;
    return;
  }
  f.have[h->frag] = true;
  ++f.have_count;
  f.bytes += p.size_bytes;

  if (f.have_count == f.frag_count) {
    f.delivered = true;  // tombstone until the sweep forgets the frame
    QuicFrameResult r;
    r.frame_id = h->frame_id;
    r.bytes = f.bytes;
    r.submitted_at = f.submitted_at;
    r.completed_at = now;
    r.trace = f.trace;
    r.complete = true;
    ++ledger_.frames;
    r.on_time = !ledger_.complete(r.latency(), cfg_.deadline);
    if (frame_cb_) frame_cb_(r);
  }
}

void QuicLiteReceiver::sweep() {
  sim::Time now = net_.sim().now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingFrame& f = it->second;
    // Age from first arrival, not submission: a frame stuck behind a long
    // uplink queue should still get its expiry grace once fragments show up.
    sim::Time anchor = std::max(f.submitted_at, f.first_arrival);
    if (now - anchor < kExpiry) {
      ++it;
      continue;
    }
    if (!f.delivered) {
      ++ledger_.frames;
      QuicFrameResult r;
      r.frame_id = it->first;
      r.bytes = f.bytes;
      r.submitted_at = f.submitted_at;
      r.trace = f.trace;
      r.complete = false;
      if (frame_cb_) frame_cb_(r);
    }
    it = pending_.erase(it);
  }
  sweep_timer_.arm(kSweepInterval);
}

}  // namespace arnet::transport
