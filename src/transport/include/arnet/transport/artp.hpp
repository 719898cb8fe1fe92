#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "arnet/net/link.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/congestion.hpp"
#include "arnet/transport/windowed_filter.hpp"

namespace arnet::transport {

/// How a multipath ARTP sender spreads traffic over its paths (paper §VI-D).
enum class MultipathPolicy {
  kSingle,        ///< first path only
  kHandoverOnly,  ///< path 0 while up, else fail over to the next live path
  kPreferred,     ///< path 0 when healthy; overflow + highest-priority
                  ///< duplicates on later paths
  kAggregate,     ///< all paths by available rate; latency-critical traffic
                  ///< on the lowest-delay path
};

/// Application-visible description of one ARTP message (a frame, a sensor
/// batch, a metadata record...).
struct ArtpMessageSpec {
  std::int64_t bytes = 0;
  net::TrafficClass tclass = net::TrafficClass::kFullBestEffort;
  net::Priority priority = net::Priority::kLowest;
  /// Ordering *within* a priority band (paper §VI-A: "For each priority,
  /// various levels may be defined"): lower values are served first. A
  /// newly submitted message overtakes queued messages of the same band
  /// with a greater sub-priority, but never splits a message mid-send.
  std::uint8_t sub_priority = 128;
  net::AppData app = net::AppData::kGeneric;
  std::uint32_t frame_id = 0;
  /// Drop-eligible chunks older than this are shed instead of sent
  /// (0 = class default; kNever for non-droppable priorities).
  sim::Time stale_after = 0;
  /// Causal trace identity; stamped onto every packet of the message so the
  /// per-frame timeline crosses the transport/net boundary. Zero = untraced.
  trace::TraceContext trace;
};

/// Delivery record handed to the receiver's message callback.
struct ArtpDelivery {
  std::uint64_t msg_id = 0;
  std::uint32_t frame_id = 0;
  net::TrafficClass tclass = net::TrafficClass::kFullBestEffort;
  net::Priority priority = net::Priority::kLowest;
  net::AppData app = net::AppData::kGeneric;
  std::int64_t bytes = 0;
  sim::Time submitted_at = 0;
  sim::Time completed_at = 0;
  bool complete = true;        ///< all chunks arrived (possibly via FEC)
  bool fec_recovered = false;  ///< at least one chunk rebuilt from parity
  double completeness = 1.0;   ///< fraction of chunks received (expired msgs)
  /// Trace context of the sender's message (from the first packet seen).
  trace::TraceContext trace;

  sim::Time latency() const { return completed_at - submitted_at; }
};

/// Periodic QoS report surfaced to the application (paper §VI-B: "the
/// protocol can provide QoS information to the application").
struct ArtpQosReport {
  double allowed_rate_bps = 0.0;  ///< sum of per-path controller rates
  std::int64_t backlog_bytes = 0;
  /// 0 = none, 1 = shedding lowest, 2 = shedding medium, 3 = critical-only.
  int congestion_level = 0;
  sim::Time min_path_owd = 0;
};

/// ARTP sender-side configuration. Messages are cut into 1300-byte chunks;
/// drop-eligible ones with no `stale_after` of their own go stale after
/// 60 ms (constants in artp.cpp).
struct ArtpSenderConfig {
  std::int32_t header_bytes = 30;
  sim::Time pace_interval = sim::milliseconds(5);
  /// FEC for the kBestEffortLossRecovery class: parity chunks appended per
  /// protected message (0 disables FEC). Any `fec_parity` losses within one
  /// message are recoverable without retransmission (paper §VI-C).
  std::uint32_t fec_parity = 1;
  /// Backlog (in send-time at the current rate) beyond which the sender
  /// escalates the congestion level and starts shedding.
  sim::Time shed_backlog_threshold = sim::milliseconds(40);
  /// Tail-loss timer for the critical class: if nothing of an unacknowledged
  /// critical message has been on the wire for this long, re-stage it
  /// (NACK-driven recovery handles everything except a fully lost tail).
  sim::Time critical_rto = sim::milliseconds(200);
  MultipathPolicy policy = MultipathPolicy::kSingle;
  bool duplicate_critical_on_two_paths = false;
  /// Observers, named `entity`; each must outlive the sender. With a
  /// registry the sender publishes per-band "artp.sent_bytes" counters
  /// (entity "<entity>/band:N"), shed counters, an "artp.congestion_level"
  /// gauge, and an "artp.degradation_events" counter (level escalations).
  /// With a tracer it records message enqueue/tx/retx/shed/ack events.
  trace::Telemetry telemetry;
  std::string entity = "artp-tx";
};

/// One transmission path of a (possibly multipath) ARTP connection.
struct ArtpPathConfig {
  /// First-hop link for policy routing; nullptr = default routed path.
  net::Link* first_hop = nullptr;
  /// Starting rate of the path's delay-gradient controller (bps).
  double initial_rate_bps = 1e6;
  std::string name = "path";
};

/// ARTP sender: classful staging queues, strict-priority pacing at the
/// controller rate, graceful degradation (shedding by priority rather than
/// shrinking a window), FEC injection, NACK-driven retransmission of the
/// critical class, and multipath scheduling. This is the paper's §VI
/// proposal realized as a transport agent.
class ArtpSender {
 public:
  ArtpSender(net::Network& net, net::NodeId local, net::Port local_port, net::NodeId remote,
             net::Port remote_port, net::FlowId flow, ArtpSenderConfig cfg,
             std::vector<ArtpPathConfig> paths = {});
  ~ArtpSender();

  ArtpSender(const ArtpSender&) = delete;
  ArtpSender& operator=(const ArtpSender&) = delete;

  /// Submit one application message; returns its id.
  std::uint64_t send_message(const ArtpMessageSpec& spec);

  void set_qos_callback(std::function<void(const ArtpQosReport&)> cb) {
    qos_cb_ = std::move(cb);
  }

  double allowed_rate_bps() const;
  int congestion_level() const { return congestion_level_; }
  std::int64_t backlog_bytes() const { return backlog_bytes_; }

  std::int64_t sent_bytes() const { return sent_bytes_; }
  std::int64_t shed_messages() const { return shed_messages_; }
  std::int64_t shed_bytes() const { return shed_bytes_; }
  std::int64_t retransmitted_chunks() const { return retransmitted_chunks_; }

  /// Sum of controller rates currently allowed (bps), per path.
  std::size_t path_count() const { return paths_.size(); }
  double path_rate_bps(std::size_t i) const { return paths_[i].controller.rate_bps(); }
  sim::Time path_owd(std::size_t i) const { return paths_[i].last_owd; }
  bool path_up(std::size_t i) const;
  std::int64_t path_sent_bytes(std::size_t i) const { return paths_[i].sent_bytes; }

 private:
  struct Chunk {
    std::uint64_t msg_id = 0;
    std::uint32_t critical_seq = 0;
    std::uint8_t sub_priority = 128;
    std::uint32_t index = 0;
    std::uint32_t count = 1;
    std::int32_t payload = 0;
    net::TrafficClass tclass{};
    net::Priority priority{};
    net::AppData app{};
    std::uint32_t frame_id = 0;
    sim::Time submitted_at = 0;
    sim::Time stale_after = 0;
    bool retransmission = false;
    trace::TraceContext trace;
  };

  struct Path {
    ArtpPathConfig cfg;
    DelayGradientController controller;
    std::uint8_t id = 0;
    double budget_bytes = 0.0;
    std::uint64_t next_path_seq = 0;
    sim::Time last_owd = 0;
    /// Trailing-window minimum of the receiver's fb_min_owd reports.
    WindowedMinTime min_owd;
    std::int64_t sent_bytes = 0;
    bool saw_feedback = false;
  };

  void on_packet(net::Packet&& p);
  void on_feedback(const net::ArtpHeader& h);
  void pace_tick();
  /// Chooses a path for `c` under the policy; may also duplicate critical
  /// chunks. Returns nullptr when no path may carry it now.
  Path* pick_path(const Chunk& c, bool& duplicate_on_secondary);
  void transmit(const Chunk& c, Path& path);
  /// Per-band wire-byte accounting into the attached metrics registry.
  void note_sent(const Chunk& c, std::int32_t wire_bytes);
  void update_congestion_level();
  std::size_t band_of(const Chunk& c) const { return static_cast<std::size_t>(c.priority); }
  Path* lowest_owd_up_path(const Path* exclude = nullptr);
  Path* first_up_path();
  /// Drop the band-front chunk and every following chunk of the same message
  /// (a message missing chunks is useless to the application).
  void shed_front_message(std::deque<Chunk>& q);

  net::Network& net_;
  net::NodeId local_, remote_;
  net::Port local_port_, remote_port_;
  net::FlowId flow_;
  ArtpSenderConfig cfg_;
  std::vector<Path> paths_;
  sim::Timer pace_timer_;

  std::uint64_t next_msg_id_ = 1;
  std::array<std::deque<Chunk>, 4> bands_;  ///< staging, indexed by Priority
  std::int64_t backlog_bytes_ = 0;
  int congestion_level_ = 0;

  // Bookkeeping for critical-class recovery, keyed by critical_seq. Entries
  // are pruned by the receiver's in-order watermark.
  struct CriticalMsg {
    std::vector<Chunk> chunks;
    sim::Time last_wire_activity = 0;  ///< last (re)transmission of any chunk
    bool fully_sent = false;
  };
  std::map<std::uint32_t, CriticalMsg> critical_sent_;
  std::uint32_t next_critical_seq_ = 1;
  void restage_critical(std::uint32_t cseq, std::uint32_t only_chunk, bool whole_message);
  void check_critical_tail();

  std::int64_t sent_bytes_ = 0;
  std::int64_t shed_messages_ = 0;
  std::int64_t shed_bytes_ = 0;
  std::int64_t retransmitted_chunks_ = 0;
  std::function<void(const ArtpQosReport&)> qos_cb_;
  trace::Emitter trace_;
  /// The sender's instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Gauge> congestion_level;
    obs::Handle<obs::Counter> degradations, shed;
    std::array<obs::Handle<obs::Counter>, 4> band_sent;  ///< by Priority
  } instruments_;
};

/// ARTP receiver: reassembles messages, recovers FEC-protected chunks,
/// detects per-path loss, emits periodic feedback (delay/loss/rate + NACKs),
/// and enforces in-order delivery for the critical class only.
///
/// An incomplete non-critical message is reported (incomplete) 250 ms after
/// its first chunk arrived, and a delivered one keeps a tombstone as long
/// (`kExpiry` in artp.cpp).
class ArtpReceiver {
 public:
  struct Config {
    sim::Time feedback_interval = sim::milliseconds(25);
    /// Observers, named `entity`; each must outlive the receiver. With a
    /// registry the receiver publishes "artp.delivered_messages", per-app
    /// goodput counters ("artp.goodput_bytes" under "<entity>/app:<name>"),
    /// and an "artp.msg_latency_ms" histogram. With a tracer it records
    /// message deliver/FEC-repair events.
    trace::Telemetry telemetry;
    std::string entity = "artp-rx";
  };

  ArtpReceiver(net::Network& net, net::NodeId local, net::Port local_port);
  ArtpReceiver(net::Network& net, net::NodeId local, net::Port local_port, Config cfg);
  ~ArtpReceiver();

  ArtpReceiver(const ArtpReceiver&) = delete;
  ArtpReceiver& operator=(const ArtpReceiver&) = delete;

  void set_message_callback(std::function<void(const ArtpDelivery&)> cb) {
    message_cb_ = std::move(cb);
  }

  std::int64_t delivered_messages() const { return delivered_messages_; }
  std::int64_t fec_recoveries() const { return fec_recoveries_; }
  std::int64_t expired_messages() const { return expired_messages_; }

 private:
  struct PathState {
    std::uint64_t highest_seq = 0;
    std::int64_t received_in_epoch = 0;
    std::int64_t lost_in_epoch = 0;
    sim::Time last_owd = 0;
    /// Trailing-window minimum of observed one-way delays on this path.
    WindowedMinTime min_owd;
    bool active = false;
  };

  struct PendingMsg {
    std::uint32_t critical_seq = 0;
    std::uint32_t chunk_count = 0;
    std::vector<bool> have;
    std::uint32_t have_count = 0;
    std::int64_t bytes = 0;
    net::TrafficClass tclass{};
    net::Priority priority{};
    net::AppData app{};
    std::uint32_t frame_id = 0;
    sim::Time submitted_at = 0;
    sim::Time first_arrival = 0;
    std::uint32_t parity_seen = 0;
    bool fec_recovered = false;
    bool delivered = false;
    trace::TraceContext trace;  ///< from the first packet of the message
  };

  void on_packet(net::Packet&& p);
  void note_chunk(std::uint64_t msg_id, const net::ArtpHeader& h, const net::Packet& p,
                  bool via_fec);
  void try_deliver(std::uint64_t msg_id);
  void note_delivery(const ArtpDelivery& d);
  void flush_critical_in_order();
  void feedback_tick();
  void expire_stale(sim::Time now);

  net::Network& net_;
  net::NodeId local_;
  net::Port local_port_;
  Config cfg_;
  sim::Timer feedback_timer_;

  std::optional<std::tuple<net::NodeId, net::Port, net::FlowId>> peer_;
  std::map<std::uint8_t, PathState> path_state_;
  std::map<std::uint64_t, PendingMsg> pending_;

  // Critical-class in-order delivery over critical_seq: completed messages
  // ahead of the contiguity watermark wait here.
  std::map<std::uint32_t, ArtpDelivery> critical_ready_;
  std::uint32_t next_critical_seq_ = 1;  ///< contiguity watermark (expected)
  std::uint32_t highest_critical_seen_ = 0;
  /// Critical seqs known to exist (a later seq arrived) but never seen on
  /// the wire, with the time the gap was noticed. Drives full-loss NACKs.
  std::map<std::uint32_t, sim::Time> missing_critical_since_;

  std::int64_t delivered_messages_ = 0;
  std::int64_t fec_recoveries_ = 0;
  std::int64_t expired_messages_ = 0;
  std::function<void(const ArtpDelivery&)> message_cb_;
  trace::Emitter trace_;
  /// The receiver's instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Counter> delivered;
    std::array<obs::Handle<obs::Counter>, net::kAppDataCount> goodput;  ///< by AppData
    obs::Handle<obs::Histogram> latency;
    std::array<obs::Handle<obs::Histogram>, 4> band_delay;  ///< by Priority
  } instruments_;
};

}  // namespace arnet::transport
