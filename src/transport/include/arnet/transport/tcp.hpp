#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "arnet/net/network.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/windowed_filter.hpp"

namespace arnet::transport {

/// TCP congestion-control flavor.
enum class TcpFlavor {
  kReno,     ///< fast retransmit/recovery, full window collapse on timeout
  kNewReno,  ///< + partial-ACK hole retransmission during recovery
  kCubic,    ///< NewReno loss handling + CUBIC window growth (RFC 8312)
  kBbr,      ///< model-based: cwnd from measured bottleneck bw x min RTT
};

const char* to_string(TcpFlavor f);

/// BBR (v1) state machine phases. The window-driven approximation here keeps
/// BBR's defining property — cwnd follows a bandwidth/min-RTT *model*, not a
/// loss signal — while staying inside TcpSource's ack-clocked machinery
/// (there is no pacer; gains act on the window directly).
enum class BbrState {
  kStartup,   ///< exponential bw probing (gain 2.885) until the pipe fills
  kDrain,     ///< bleed the startup queue back down to one BDP
  kProbeBw,   ///< steady state: 8-phase gain cycle 1.25/0.75/1x6
  kProbeRtt,  ///< periodic cwnd floor to re-measure the true min RTT
};

const char* to_string(BbrState s);

/// Bulk-data TCP sender (ns-style "agent"): full slow start, AIMD congestion
/// avoidance, fast retransmit/recovery, Jacobson/Karn RTO with exponential
/// backoff. The paper uses TCP as the baseline whose behaviors motivate ARTP
/// (Fig. 3 asymmetric-link collapse, Fig. 4 cwnd sawtooth).
///
/// Simplifications (documented, standard for simulation): no handshake, no
/// flow-control window (receiver buffer assumed unbounded), segments are
/// MSS-aligned. A segment carries 1460 payload bytes plus 40 bytes of IP+TCP
/// header; the initial ssthresh (64 segments) and the RTO bounds (1 s
/// initial, 200 ms to 60 s) are constants in tcp.cpp too.
class TcpSource {
 public:
  struct Config {
    double initial_window_segments = 2.0;
    TcpFlavor flavor = TcpFlavor::kNewReno;
    /// Selective acknowledgments (RFC 2018/6675): the sender keeps a
    /// scoreboard of SACKed ranges and retransmits only true holes during
    /// recovery — one lost *burst* no longer costs one RTT per segment.
    bool sack = false;
    /// Observers, named `entity`; each must outlive the source. With a
    /// registry the source publishes "tcp.cwnd"/"tcp.ssthresh" time series,
    /// a "tcp.rtt_ms" histogram, and "tcp.rto_timeouts"/
    /// "tcp.fast_retransmits" counters. With a tracer it records kTx/kRetx/
    /// kAck span events plus a per-connection TraceContext, minted at
    /// construction and stamped on every segment (so the causal chain
    /// survives the net layer).
    trace::Telemetry telemetry;
    std::string entity = "tcp";
  };

  TcpSource(net::Network& net, net::NodeId local, net::Port local_port, net::NodeId remote,
            net::Port remote_port, net::FlowId flow);
  TcpSource(net::Network& net, net::NodeId local, net::Port local_port, net::NodeId remote,
            net::Port remote_port, net::FlowId flow, Config cfg);

  /// Queue `bytes` of application data (cumulative; -1 from `send_forever`).
  void send(std::int64_t bytes);

  /// Unbounded transfer (greedy flow).
  void send_forever();

  /// Bytes acknowledged by the receiver so far.
  std::int64_t acked_bytes() const { return static_cast<std::int64_t>(highest_ack_); }

  bool complete() const {
    return app_limit_ >= 0 && static_cast<std::int64_t>(highest_ack_) >= app_limit_;
  }

  double cwnd_bytes() const { return cwnd_; }
  double ssthresh_bytes() const { return ssthresh_; }
  sim::Time srtt() const { return srtt_; }
  /// BBR model observables (meaningful only for TcpFlavor::kBbr).
  BbrState bbr_state() const { return bbr_state_; }
  double bbr_bandwidth_bps() const { return bbr_bw_filter_.get_or(0.0); }
  sim::Time bbr_min_rtt() const { return bbr_min_rtt_.get_or(0); }
  int timeouts() const { return timeouts_; }
  int fast_retransmits() const { return fast_retransmits_; }

  /// Invoked when `complete()` first becomes true.
  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

 private:
  void on_packet(net::Packet&& p);
  void on_ack(std::uint64_t ack);
  void on_rto();
  void on_tlp();
  void arm_tlp();
  void grow_window(std::int64_t newly_acked);
  void on_loss_window_reduction();
  double cubic_target() const;
  void try_send();
  void send_segment(std::uint64_t seq, bool retransmission);
  void enter_recovery();
  void update_rtt(sim::Time sample);
  void arm_rto();
  void trace();
  std::int64_t flight_size() const {
    return static_cast<std::int64_t>(next_seq_ - highest_ack_);
  }
  /// What the cwnd send gate compares against. Non-SACK loss-based flavors
  /// use raw flight plus recovery window inflation (the classic NewReno
  /// dance). SACK flavors and BBR use the RFC 6675 pipe: everything above
  /// the highest SACKed byte is in flight, everything below it is either
  /// SACKed (delivered) or lost (gone from the network), and retransmissions
  /// still out add back in. Gating on raw flight instead stalls new data a
  /// full RTT per hole — and for BBR the recovery rounds then crater the
  /// delivery-rate samples its model feeds on.
  std::int64_t send_gate_inflight() const {
    if (cfg_.flavor != TcpFlavor::kBbr && !cfg_.sack) return flight_size();
    std::int64_t pipe = flight_size();
    if (!sacked_.empty()) {
      std::uint64_t highest_sacked = std::prev(sacked_.end())->second;
      if (highest_sacked > highest_ack_) {
        pipe = static_cast<std::int64_t>(next_seq_ - highest_sacked);
      }
    }
    return pipe + recovery_rtx_inflight_;
  }
  bool sack_pipe_repair();
  std::int32_t segment_payload(std::uint64_t seq) const;

  net::Network& net_;
  net::NodeId local_, remote_;
  net::Port local_port_, remote_port_;
  net::FlowId flow_;
  Config cfg_;
  sim::Timer rto_timer_;
  sim::Timer tlp_timer_;  ///< RFC 8985-style tail-loss probe (SACK flows only)
  bool tlp_fired_ = false;  ///< one probe per flight; reset on cum-ACK advance

  // Stream state (byte offsets).
  std::uint64_t next_seq_ = 0;      ///< next new byte to send
  std::uint64_t highest_ack_ = 0;   ///< highest cumulative ACK received
  std::int64_t app_limit_ = 0;      ///< total bytes the app asked for; -1 = infinite

  // Congestion control.
  double cwnd_;      ///< bytes
  double ssthresh_;  ///< bytes
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  ///< NewReno recovery point
  sim::Time rto_;
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  int backoff_ = 1;

  // SACK scoreboard: byte ranges the receiver holds above highest_ack_.
  std::map<std::uint64_t, std::uint64_t> sacked_;  ///< begin -> end
  /// Bytes known to have reached the receiver: cumulative-ack advances plus
  /// newly SACKed ranges, counted on arrival. This is what BBR's per-round
  /// delivery-rate samples quotient — the cumulative ack alone stalls at
  /// holes and under-measures during recovery.
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t sack_retransmit_cursor_ = 0;       ///< next hole to repair
  sim::Time sack_bottom_rtx_at_ = 0;  ///< last retransmit of the lowest hole
  /// Retransmitted bytes believed still in the network (drained as the
  /// cumulative ACK advances over them); the `+ retransmissions` term of the
  /// RFC 6675 pipe estimate.
  std::int64_t recovery_rtx_inflight_ = 0;
  void integrate_sack(const net::TcpHeader& h);
  bool retransmit_next_sack_hole();

  // RTT timing (one in-flight sample, Karn's rule).
  std::optional<std::pair<std::uint64_t, sim::Time>> timed_seq_;
  std::uint64_t retransmitted_above_ = UINT64_MAX;  ///< lowest retransmitted seq since last sample

  // CUBIC state (RFC 8312): window is a cubic function of time since the
  // last reduction, anchored at the pre-loss maximum.
  double cubic_wmax_ = 0.0;       ///< bytes
  sim::Time cubic_epoch_ = -1;    ///< start of the current growth epoch
  double cubic_k_ = 0.0;          ///< seconds to return to wmax
  /// Last congestion-avoidance ACK; gaps longer than the RTO are quiescent
  /// periods the cubic clock must not run across (RFC 8312 §5.8).
  sim::Time cubic_last_progress_ = -1;

  // BBR state: cwnd is recomputed from the bw/min-RTT model on every
  // delivery (bbr_sample); the filters are the shared WindowedFilter
  // infrastructure also used by ARTP's min-OWD estimate.
  void bbr_sample(std::uint64_t ack);
  void bbr_update_model(sim::Time now, bool round_start);
  void bbr_set_cwnd();
  BbrState bbr_state_ = BbrState::kStartup;
  WindowedMaxDouble bbr_bw_filter_{10};    ///< bps, keyed by round count
  WindowedMinTime bbr_min_rtt_{sim::seconds(10)};
  sim::Time bbr_min_rtt_stamp_ = sim::kNever;  ///< last strict min improvement
  std::uint64_t bbr_round_count_ = 0;
  std::uint64_t bbr_round_end_seq_ = 0;    ///< ack crossing this ends a round
  /// Per-packet delivery-rate sampling state (draft-cheng delivery-rate
  /// style): each first-transmission records the delivered counter at send;
  /// when the packet is cumulatively acked, the bytes delivered across its
  /// flight over the flight duration form one bandwidth sample.
  struct BbrPktSample {
    std::uint64_t end_seq = 0;
    sim::Time sent_at = 0;
    std::uint64_t delivered_at_send = 0;
    bool loss_limited = false;  ///< sent during recovery: rate not credible
  };
  std::deque<BbrPktSample> bbr_pkt_samples_;
  double bbr_full_bw_ = 0.0;               ///< startup growth reference
  int bbr_full_bw_rounds_ = 0;
  bool bbr_filled_pipe_ = false;
  int bbr_cycle_index_ = 0;                ///< probe-BW gain-cycle phase
  sim::Time bbr_cycle_stamp_ = 0;
  sim::Time bbr_probe_rtt_done_ = sim::kNever;

  /// Smallest RTT sample so far; guards the SACK lost-retransmission rescue.
  sim::Time min_rtt_ = sim::kNever;

  trace::Emitter trace_;
  trace::TraceContext trace_ctx_;
  /// The source's instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Counter> tlp_probes, fast_retransmits, rto_timeouts;
    obs::Handle<obs::Histogram> rtt;
    obs::Handle<sim::TimeSeries> cwnd, ssthresh;
  } instruments_;

  int timeouts_ = 0;
  int fast_retransmits_ = 0;
  std::function<void()> on_complete_;
  bool completion_reported_ = false;
};

/// TCP receiver: cumulative ACKs with SACK blocks (senders may ignore them),
/// out-of-order reassembly, one 40-byte lowest-priority ACK per segment. ACKs
/// are real packets and traverse (and queue on) the reverse path, which is
/// the crux of the paper's Fig. 3.
class TcpSink {
 public:
  TcpSink(net::Network& net, net::NodeId local, net::Port local_port);
  ~TcpSink();

  std::int64_t received_bytes() const { return received_bytes_; }
  std::uint64_t rcv_next() const { return rcv_next_; }
  sim::RateMeter& goodput() { return goodput_; }

 private:
  void on_packet(net::Packet&& p);
  void send_ack(net::NodeId to, net::Port port, net::FlowId flow);

  net::Network& net_;
  net::NodeId local_;
  net::Port local_port_;

  std::uint64_t rcv_next_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< seq -> end (out of order)
  std::uint64_t last_ooo_begin_ = 0;  ///< freshest out-of-order block (RFC 2018)
  std::int64_t received_bytes_ = 0;
  sim::RateMeter goodput_;
};

}  // namespace arnet::transport
