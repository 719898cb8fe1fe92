#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "arnet/net/network.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::transport {

/// Per-frame outcome handed to the receiver's frame callback and folded into
/// the on-time / late / incomplete counters (the arvr-sim accounting: a frame
/// either reassembles within its deadline, reassembles late, or never
/// reassembles at all).
struct QuicFrameResult {
  std::uint32_t frame_id = 0;
  std::int64_t bytes = 0;        ///< payload bytes received
  sim::Time submitted_at = 0;    ///< sender-side frame submission time
  sim::Time completed_at = sim::kNever;  ///< kNever while incomplete
  bool complete = false;
  bool on_time = false;          ///< complete && latency() <= deadline
  /// Trace context stamped by send_frame(bytes, ctx); inactive otherwise.
  trace::TraceContext trace;

  sim::Time latency() const { return completed_at - submitted_at; }
};

/// QUIC-lite sender: fragments each application frame into 1200-byte
/// datagrams (plus 38 bytes of IP + UDP + QUIC short header) and clocks them
/// out at a fixed 200 us inter-fragment pacing interval, after arvr-sim.cc.
/// Deliberately congestion-blind: this is the "modern paced UDP stack"
/// contrast point of the transport shootout — pacing removes the burst-loss
/// failure mode of window transports, but nothing backs off when the path
/// slows down.
class QuicLiteSender {
 public:
  QuicLiteSender(net::Network& net, net::NodeId local, net::Port local_port,
                 net::NodeId remote, net::Port remote_port, net::FlowId flow);
  ~QuicLiteSender();

  QuicLiteSender(const QuicLiteSender&) = delete;
  QuicLiteSender& operator=(const QuicLiteSender&) = delete;

  /// Fragment and stage one application frame; returns its frame id.
  std::uint32_t send_frame(std::int64_t bytes);

  /// Same, stamping `ctx` on every fragment's wire packet so the frame's
  /// datagrams are attributable in packet traces and the receiver can hand
  /// the context back in its QuicFrameResult.
  std::uint32_t send_frame(std::int64_t bytes, const trace::TraceContext& ctx);

  std::uint32_t frames_sent() const { return next_frame_id_; }
  std::int64_t sent_bytes() const { return sent_bytes_; }
  std::int64_t backlog_fragments() const { return static_cast<std::int64_t>(queue_.size()); }

 private:
  struct Fragment {
    std::uint32_t frame_id = 0;
    std::uint32_t frag = 0;
    std::uint32_t frag_count = 1;
    std::int32_t payload = 0;
    sim::Time frame_submitted_at = 0;
    trace::TraceContext trace;
  };

  void pace_tick();
  void transmit(const Fragment& f);

  net::Network& net_;
  net::NodeId local_, remote_;
  net::Port local_port_, remote_port_;
  net::FlowId flow_;
  sim::Timer pace_timer_;

  std::deque<Fragment> queue_;
  std::uint32_t next_frame_id_ = 0;
  std::uint64_t next_wire_seq_ = 0;
  std::int64_t sent_bytes_ = 0;
};

/// QUIC-lite receiver: reassembles frames keyed by frame id (tolerating
/// reordered and duplicate fragments), and classifies every frame against its
/// deadline — on-time, late, or incomplete once the expiry sweep gives up on
/// its missing fragments. The sweep runs every 10 ms and abandons (and
/// counts) a frame 250 ms after its first fragment arrived.
class QuicLiteReceiver {
 public:
  struct Config {
    sim::Time deadline = sim::milliseconds(50);  ///< arvr-sim default
  };

  QuicLiteReceiver(net::Network& net, net::NodeId local, net::Port local_port);
  QuicLiteReceiver(net::Network& net, net::NodeId local, net::Port local_port, Config cfg);
  ~QuicLiteReceiver();

  QuicLiteReceiver(const QuicLiteReceiver&) = delete;
  QuicLiteReceiver& operator=(const QuicLiteReceiver&) = delete;

  /// Invoked once per frame: at completion (complete=true) or when the sweep
  /// abandons it (complete=false).
  void set_frame_callback(std::function<void(const QuicFrameResult&)> cb) {
    frame_cb_ = std::move(cb);
  }

  std::int64_t frames_on_time() const { return ledger_.results - ledger_.deadline_misses; }
  std::int64_t frames_late() const { return ledger_.deadline_misses; }
  std::int64_t frames_incomplete() const { return ledger_.frames - ledger_.results; }
  std::int64_t frames_completed() const { return ledger_.results; }
  std::int64_t fragments_received() const { return fragments_received_; }
  std::int64_t duplicate_fragments() const { return duplicate_fragments_; }
  const sim::Samples& frame_latency_ms() const { return ledger_.latency_ms; }

 private:
  struct PendingFrame {
    std::uint32_t frag_count = 0;
    std::vector<bool> have;
    std::uint32_t have_count = 0;
    std::int64_t bytes = 0;
    sim::Time submitted_at = 0;
    sim::Time first_arrival = 0;
    trace::TraceContext trace;  ///< from the first fragment's packet
    bool delivered = false;     ///< tombstone: absorbs trailing duplicates
  };

  void on_packet(net::Packet&& p);
  void sweep();

  net::Network& net_;
  net::NodeId local_;
  net::Port local_port_;
  Config cfg_;
  sim::Timer sweep_timer_;

  std::map<std::uint32_t, PendingFrame> pending_;  ///< frame_id -> state
  sim::FrameLedger ledger_;  ///< counts a frame once it completes or expires
  std::int64_t fragments_received_ = 0;
  std::int64_t duplicate_fragments_ = 0;
  std::function<void(const QuicFrameResult&)> frame_cb_;
};

}  // namespace arnet::transport
