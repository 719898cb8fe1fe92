#include "arnet/transport/tcp.hpp"

#include "arnet/check/assert.hpp"
#include "arnet/trace/profiler.hpp"

#include <algorithm>
#include <cmath>

namespace arnet::transport {

using net::Packet;
using net::TcpHeader;

const char* to_string(TcpFlavor f) {
  switch (f) {
    case TcpFlavor::kReno: return "Reno";
    case TcpFlavor::kNewReno: return "NewReno";
    case TcpFlavor::kCubic: return "CUBIC";
    case TcpFlavor::kBbr: return "BBR";
  }
  return "?";
}

const char* to_string(BbrState s) {
  switch (s) {
    case BbrState::kStartup: return "startup";
    case BbrState::kDrain: return "drain";
    case BbrState::kProbeBw: return "probe-bw";
    case BbrState::kProbeRtt: return "probe-rtt";
  }
  return "?";
}

namespace {
// BBRv1 constants: startup gain 2/ln2, the 8-phase probe-BW cycle, the
// ProbeRTT cadence, and the 4-segment ProbeRTT window floor.
constexpr double kBbrStartupGain = 2.885;
constexpr double kBbrCycleGains[8] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
// Window-driven BBR keeps a cwnd quanta above the BDP in ProbeBw cruise
// phases (real BBR uses cwnd_gain = 2 for the same reason — with pacing the
// queue stays empty; without pacing 2x would stand a full BDP of queue, so we
// use 1.25: ~0.25 BDP standing, drained by the 0.75 phase each cycle). The
// headroom is what lets the estimator see above its own operating point: a
// cwnd pinned at exactly bw*min_rtt makes every delivery-rate sample equal
// the current estimate, which is a neutral equilibrium at *any* rate below
// capacity.
constexpr double kBbrCruiseCwndGain = 1.25;
constexpr sim::Time kBbrProbeRttInterval = sim::seconds(10);
constexpr sim::Time kBbrProbeRttDuration = sim::milliseconds(200);
constexpr double kBbrMinCwndSegments = 4.0;

constexpr std::int32_t kMss = 1460;        ///< payload bytes per segment
constexpr std::int32_t kHeaderBytes = 40;  ///< IP+TCP overhead on the wire
constexpr std::int32_t kAckBytes = 40;
// Bounded so the first slow-start overshoot does not strand the flow in a
// hole-by-hole NewReno recovery for seconds.
constexpr double kInitialSsthreshSegments = 64.0;
constexpr sim::Time kInitialRto = sim::seconds(1);
constexpr sim::Time kMinRto = sim::milliseconds(200);
constexpr sim::Time kMaxRto = sim::seconds(60);
}  // namespace

// ---------------------------------------------------------------- TcpSource

TcpSource::TcpSource(net::Network& net, net::NodeId local, net::Port local_port,
                     net::NodeId remote, net::Port remote_port, net::FlowId flow)
    : TcpSource(net, local, local_port, remote, remote_port, flow, Config{}) {}

TcpSource::TcpSource(net::Network& net, net::NodeId local, net::Port local_port,
                     net::NodeId remote, net::Port remote_port, net::FlowId flow, Config cfg)
    : net_(net),
      local_(local),
      remote_(remote),
      local_port_(local_port),
      remote_port_(remote_port),
      flow_(flow),
      cfg_(cfg),
      rto_timer_(net.sim(), [this] { on_rto(); }),
      tlp_timer_(net.sim(), [this] { on_tlp(); }),
      cwnd_(cfg.initial_window_segments * kMss),
      ssthresh_(kInitialSsthreshSegments * kMss),
      rto_(kInitialRto) {
  net_.node(local_).bind(local_port_, [this](Packet&& p) { on_packet(std::move(p)); });
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
  if (trace_) trace_ctx_ = trace_.tracer()->new_trace();
}

void TcpSource::send(std::int64_t bytes) {
  if (app_limit_ >= 0) app_limit_ += bytes;
  try_send();
}

void TcpSource::send_forever() {
  app_limit_ = -1;
  try_send();
}

std::int32_t TcpSource::segment_payload(std::uint64_t seq) const {
  if (app_limit_ < 0) return kMss;
  std::int64_t remaining = app_limit_ - static_cast<std::int64_t>(seq);
  return static_cast<std::int32_t>(std::min<std::int64_t>(kMss, std::max<std::int64_t>(remaining, 0)));
}

void TcpSource::try_send() {
  trace::ProfScope prof(cfg_.telemetry.tracer, "TcpSource::try_send");
  while (true) {
    std::int32_t payload = segment_payload(next_seq_);
    if (payload <= 0) break;  // app-limited
    // Window check against the *actual* next segment, not a full MSS: an
    // app-limited sub-MSS tail may fill the remaining window instead of
    // stalling until flight drains below cwnd - MSS (which costs the tail a
    // spurious extra RTT on every short transfer).
    if (send_gate_inflight() + payload > static_cast<std::int64_t>(cwnd_)) break;
    send_segment(next_seq_, /*retransmission=*/false);
    next_seq_ += static_cast<std::uint64_t>(payload);
  }
}

void TcpSource::send_segment(std::uint64_t seq, bool retransmission) {
  std::int32_t payload = segment_payload(seq);
  if (payload <= 0) return;
  Packet p;
  p.flow = flow_;
  p.src = local_;
  p.dst = remote_;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.size_bytes = payload + kHeaderBytes;
  p.tclass = net::TrafficClass::kCriticalData;
  p.priority = net::Priority::kLowest;
  TcpHeader h;
  h.seq = seq;
  p.header = h;
  p.trace = trace_ctx_;
  trace_.emit(net_.sim().now(), retransmission ? trace::EventKind::kRetx : trace::EventKind::kTx,
              trace_ctx_, seq, p.size_bytes);
  net_.node(local_).send(std::move(p));

  if (retransmission) {
    retransmitted_above_ = std::min(retransmitted_above_, seq);
    recovery_rtx_inflight_ += payload;
    timed_seq_.reset();  // Karn: never time retransmitted data
  } else {
    if (!timed_seq_) timed_seq_ = {seq, net_.sim().now()};
    if (cfg_.flavor == TcpFlavor::kBbr) {
      // Karn applies to rate samples too: only first transmissions get a
      // flight record (a retransmission's flight time is ambiguous).
      bbr_pkt_samples_.push_back({seq + static_cast<std::uint64_t>(payload),
                                  net_.sim().now(), delivered_bytes_,
                                  in_recovery_});
    }
  }
  if (!rto_timer_.armed()) arm_rto();
  if (cfg_.sack && !tlp_fired_) arm_tlp();
}

void TcpSource::arm_rto() { rto_timer_.arm(rto_ * backoff_); }

void TcpSource::arm_tlp() {
  // Probe timeout: 2*SRTT, the RFC 8985 tail-loss probe cadence. Before the
  // first RTT sample, fall back to the (un-backed-off) RTO estimate.
  tlp_timer_.arm(srtt_ > 0 ? 2 * srtt_ : rto_);
}

void TcpSource::on_tlp() {
  // Tail-loss probe (RFC 8985 flavor, SACK flows only — the probe's value is
  // the SACK evidence it elicits). When the tail of a flight is lost there
  // are no further ACKs: no dup-ACKs, no fast recovery, and the only repair
  // path is the retransmission timer with exponential backoff — 200 ms, then
  // 400, 800, 1600... On a bursty link this is a death spiral: the flow sends
  // one packet per backed-off RTO, each one a coin flip, and a few unlucky
  // flips idle the link for seconds. The probe converts the stall back into
  // an ACK-clocked event: send one segment of *new* data (allowed to exceed
  // cwnd by that one segment); if it lands, the receiver SACKs it, the
  // scoreboard shows data above the hole, and ordinary fast recovery takes
  // over — no RTO, no backoff.
  if (!cfg_.sack || complete() || flight_size() == 0 || tlp_fired_) return;
  tlp_fired_ = true;
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.tlp_probes.get(*m, "tcp.tlp_probes", cfg_.entity).add();
  }
  std::int32_t payload = segment_payload(next_seq_);
  if (payload > 0) {
    send_segment(next_seq_, /*retransmission=*/false);
    next_seq_ += static_cast<std::uint64_t>(payload);
  } else {
    // App-limited, nothing new to send: probe with the lowest hole instead
    // (on success the cumulative ACK advances, which is just as good).
    send_segment(highest_ack_, /*retransmission=*/true);
  }
  if (!rto_timer_.armed()) arm_rto();
}

void TcpSource::update_rtt(sim::Time sample) {
  min_rtt_ = std::min(min_rtt_, sample);
  if (cfg_.flavor == TcpFlavor::kBbr) {
    sim::Time now = net_.sim().now();
    // The ProbeRTT clock restarts only on a *strict* improvement: in a
    // deterministic simulation samples equal the floor exactly during quiet
    // phases, and refreshing on equality would postpone ProbeRTT forever.
    if (bbr_min_rtt_.empty() || sample < bbr_min_rtt_.get_or(0)) {
      bbr_min_rtt_stamp_ = now;
    }
    bbr_min_rtt_.update(sample, now);
  }
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    sim::Time err = sample - srtt_;
    srtt_ += err / 8;
    rttvar_ += (std::abs(err) - rttvar_) / 4;
  }
  rto_ = std::max(kMinRto, srtt_ + 4 * rttvar_);
  rto_ = std::min(rto_, kMaxRto);
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.rtt.get(*m, "tcp.rtt_ms", cfg_.entity).record(sim::to_milliseconds(sample));
  }
}

void TcpSource::on_packet(Packet&& p) {
  const auto* h = std::get_if<TcpHeader>(&p.header);
  if (!h || !h->is_ack) return;
  if (cfg_.sack) integrate_sack(*h);
  on_ack(h->ack);
}

void TcpSource::integrate_sack(const net::TcpHeader& h) {
  const std::uint64_t delivered_before = delivered_bytes_;
  for (const auto& [begin, end] : h.sack) {
    if (end <= begin) continue;
    // Insert and merge with overlapping/adjacent ranges. Whatever length the
    // merged range gains over the ranges it absorbed is newly-arrived data:
    // it feeds the delivered counter BBR's rate samples are computed from
    // (sacked data has reached the receiver even while the cumulative ack
    // is pinned at a hole).
    std::uint64_t b = begin, e = end;
    std::uint64_t absorbed = 0;
    auto it = sacked_.lower_bound(b);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= b) {
        b = prev->first;
        e = std::max(e, prev->second);
        absorbed += prev->second - prev->first;
        it = sacked_.erase(prev);
      }
    }
    while (it != sacked_.end() && it->first <= e) {
      e = std::max(e, it->second);
      absorbed += it->second - it->first;
      it = sacked_.erase(it);
    }
    sacked_.emplace(b, e);
    delivered_bytes_ += (e - b) - absorbed;
  }
  if (delivered_bytes_ > delivered_before) {
    // Fresh SACK evidence: both path directions demonstrably work right now,
    // so a backed-off RTO estimate is about a stall that has ended — restart
    // the timer at its base value (Linux re-arms the RTO on every ACK the
    // same way). Without this, one surviving probe still leaves the flow
    // parked behind a multi-second backoff.
    backoff_ = 1;
    arm_rto();
    // RACK-style lost-retransmission detection: `recover_` was next_seq_ when
    // the bottom hole was (re)transmitted, so any newly SACKed byte above it
    // was sent *after* that retransmission. On a FIFO path, later data
    // arriving while the cumulative ACK is still pinned means the
    // retransmission is gone — un-gate the rescue instead of waiting out the
    // once-per-SRTT clock. The min-RTT guard keeps a retransmission younger
    // than one path traversal from being declared dead.
    if (in_recovery_ && !sacked_.empty() &&
        std::prev(sacked_.end())->second > recover_ &&
        min_rtt_ != sim::kNever && net_.sim().now() - sack_bottom_rtx_at_ >= min_rtt_) {
      sack_bottom_rtx_at_ = 0;
    }
  }
}

bool TcpSource::retransmit_next_sack_hole() {
  // RFC 6675: a segment is retransmittable only when the scoreboard shows
  // SACKed data *above* it — the receiver demonstrably got something later,
  // so the gap is a loss, not data still in flight. Sweeping all unSACKed
  // bytes up to `recover_` instead (the pre-fix behaviour) retransmits the
  // whole outstanding window one segment per dup-ACK whenever the scoreboard
  // is empty or sparse: an ungated duplicate-traffic echo that stands a
  // queue at the bottleneck and holds the flow in recovery indefinitely.
  if (sacked_.empty()) return false;
  const std::uint64_t highest_sacked = std::prev(sacked_.end())->second;
  std::uint64_t seq = std::max(highest_ack_, sack_retransmit_cursor_);
  while (seq < std::min(recover_, highest_sacked)) {
    // Skip over SACKed ranges.
    auto it = sacked_.upper_bound(seq);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > seq) {
        seq = prev->second;
        continue;
      }
    }
    send_segment(seq, /*retransmission=*/true);
    sack_retransmit_cursor_ = seq + static_cast<std::uint64_t>(segment_payload(seq));
    return true;
  }
  return false;
}

bool TcpSource::sack_pipe_repair() {
  // RFC 6675 pipe-driven repair: keep retransmitting evidenced holes while
  // the pipe estimate leaves room under cwnd. One-repair-per-ACK (the pre-fix
  // behaviour) heals a multi-segment burst one hole per round trip; the pipe
  // already accounts every lost segment as gone from the network, so sending
  // several repairs back-to-back is conservative, not a burst.
  bool sent = false;
  while (send_gate_inflight() + static_cast<std::int64_t>(kMss) <=
         static_cast<std::int64_t>(cwnd_)) {
    if (!retransmit_next_sack_hole()) break;
    sent = true;
    sack_bottom_rtx_at_ = net_.sim().now();
  }
  return sent;
}

void TcpSource::on_ack(std::uint64_t ack) {
  // A peer can only acknowledge bytes we actually put on the wire; anything
  // beyond next_seq_ means sender/receiver sequence state diverged.
  ARNET_ASSERT(ack <= next_seq_, "ACK for byte ", ack, " but only ", next_seq_,
               " bytes were ever sent (flow ", flow_, ")");
  trace_.emit(net_.sim().now(), trace::EventKind::kAck, trace_ctx_, ack, 0,
              ack > highest_ack_ ? nullptr : "dup");
  if (cfg_.sack) {
    // Any ACK demonstrates liveness: restart the probe clock, and a
    // cumulative advance opens a new flight (one probe per flight).
    if (ack > highest_ack_) tlp_fired_ = false;
    arm_tlp();
  }
  if (ack > highest_ack_) {
    // New data acknowledged.
    backoff_ = 1;
    if (timed_seq_ && ack > timed_seq_->first && timed_seq_->first < retransmitted_above_) {
      update_rtt(net_.sim().now() - timed_seq_->second);
    }
    if (timed_seq_ && ack > timed_seq_->first) timed_seq_.reset();
    if (ack >= retransmitted_above_) retransmitted_above_ = UINT64_MAX;

    // Advance the delivered counter by the cum-ack jump, minus whatever part
    // of [highest_ack_, ack) was already counted when it arrived as a SACK.
    {
      std::uint64_t sacked_overlap = 0;
      for (auto it = sacked_.begin(); it != sacked_.end() && it->first < ack; ++it) {
        std::uint64_t lo = std::max(it->first, highest_ack_);
        std::uint64_t hi = std::min(it->second, ack);
        if (hi > lo) sacked_overlap += hi - lo;
      }
      delivered_bytes_ += (ack - highest_ack_) - sacked_overlap;
    }
    // Cum-ACK progress covers the retransmissions that repaired the holes
    // below it; drain them from the pipe's retransmission term.
    recovery_rtx_inflight_ = std::max<std::int64_t>(
        0, recovery_rtx_inflight_ - static_cast<std::int64_t>(ack - highest_ack_));

    // BBR digests every delivery — including recovery-path ones — into its
    // bw/min-RTT model and sets cwnd from it; the loss-driven window edits
    // below are skipped for it.
    if (cfg_.flavor == TcpFlavor::kBbr) bbr_sample(ack);

    if (in_recovery_) {
      if (ack >= recover_ || cfg_.flavor == TcpFlavor::kReno) {
        // Full ACK (or plain Reno): leave recovery.
        in_recovery_ = false;
        dupacks_ = 0;
        if (cfg_.flavor != TcpFlavor::kBbr) cwnd_ = ssthresh_;
        sack_retransmit_cursor_ = 0;
        recovery_rtx_inflight_ = 0;
      } else {
        // Partial ACK. NewReno (RFC 6582): retransmit the hole at `ack`,
        // deflate the window by the newly acked amount, keep sending.
        // SACK (RFC 6675): the scoreboard decides what is lost — repair as
        // many evidenced holes as the pipe allows, no deflation (pipe
        // conservation replaces it). The blind NewReno retransmit of `ack`
        // is wrong under SACK when nothing is SACKed above it (the data is
        // usually in flight, and each duplicate triggers a dup-ACK echo
        // that re-enters recovery and floods the bottleneck), but burst
        // losses can wipe out SACK evidence entirely — so when the sweep is
        // dry, fall back to it at most once per RTT: an RTT of cum-ACK
        // silence is real evidence that `ack` is gone.
        double newly = static_cast<double>(ack - highest_ack_);
        highest_ack_ = ack;
        if (cfg_.sack) {
          sack_retransmit_cursor_ = ack;
          if (!sack_pipe_repair() && net_.sim().now() - sack_bottom_rtx_at_ > srtt_) {
            send_segment(ack, /*retransmission=*/true);
            sack_bottom_rtx_at_ = net_.sim().now();
          }
        } else {
          if (cfg_.flavor != TcpFlavor::kBbr) {
            cwnd_ = std::max(cwnd_ - newly + kMss, 2.0 * kMss);
          }
          send_segment(ack, /*retransmission=*/true);
        }
        trace();
        arm_rto();
        try_send();
        return;
      }
    } else {
      dupacks_ = 0;
    }

    std::int64_t newly = static_cast<std::int64_t>(ack - highest_ack_);
    highest_ack_ = ack;
    // Drop scoreboard state the cumulative ACK has overtaken.
    for (auto it = sacked_.begin(); it != sacked_.end() && it->first < highest_ack_;) {
      std::uint64_t end = it->second;
      it = sacked_.erase(it);
      if (end > highest_ack_) sacked_.emplace(highest_ack_, end);
    }
    grow_window(newly);
    trace();

    if (complete()) {
      rto_timer_.stop();
      if (!completion_reported_) {
        completion_reported_ = true;
        if (on_complete_) on_complete_();
      }
      return;
    }
    arm_rto();
    try_send();
  } else if (ack == highest_ack_ && flight_size() > 0) {
    ++dupacks_;
    if (in_recovery_) {
      if (cfg_.sack) {
        // RFC 6675: each dup-ACK frees pipe space (a SACKed packet left the
        // network); repair holes while the pipe allows.
        if (!sack_pipe_repair() && net_.sim().now() - sack_bottom_rtx_at_ > srtt_) {
          // Lost-retransmission rescue. The sweep is dry yet the cumulative
          // ACK is still stuck below SACKed data: the lowest hole was
          // retransmitted over an RTT ago, dup-ACKs keep arriving, and no
          // partial ACK ever came back — the retransmission itself is gone.
          // Without the rescue the flow deadlocks until RTO (the cursor only
          // sweeps upward; only a partial ACK rewinds it, and the lost
          // retransmission is precisely what prevents any partial ACK from
          // arriving). The RTT gate keeps the rescue from re-firing while a
          // live retransmission is still legitimately in flight (dup-ACKs
          // arrive every packet; a DupThresh-style count would re-send the
          // same hole dozens of times per round trip). The retransmissions we
          // believed in flight are evidently gone with it — drop them from
          // the pipe too. The rescue itself must bypass the pipe gate: after
          // an RTO cwnd is one segment and probe traffic above the highest
          // SACK keeps the pipe full, so a gated rescue would never fire and
          // the flow would sit out the full backed-off RTO chain.
          recovery_rtx_inflight_ = 0;
          sack_retransmit_cursor_ = highest_ack_;
          if (retransmit_next_sack_hole()) sack_bottom_rtx_at_ = net_.sim().now();
        }
      } else if (cfg_.flavor != TcpFlavor::kBbr) {
        // Non-SACK recovery: window inflation lets new data flow while the
        // single known hole repairs (the classic NewReno dance).
        cwnd_ += kMss;
      }
      try_send();
    } else if (dupacks_ == 3) {
      enter_recovery();
    } else if (cfg_.sack) {
      // Limited transmit (RFC 3042, mandated by RFC 6675 §5 when SACK is in
      // use): the first two dup-ACKs may each put one new segment in flight,
      // up to two segments beyond cwnd. At small windows this is the
      // difference between fast recovery and a timeout — lose 3 of 5
      // outstanding segments and only 2 dup-ACKs ever come back, which never
      // reaches DupThresh unless these extra segments go out and get SACKed.
      std::int32_t payload = segment_payload(next_seq_);
      if (payload > 0 && flight_size() + payload <=
                             static_cast<std::int64_t>(cwnd_) + 2 * kMss) {
        send_segment(next_seq_, /*retransmission=*/false);
        next_seq_ += static_cast<std::uint64_t>(payload);
      }
    }
    trace();
  }
}

void TcpSource::grow_window(std::int64_t newly_acked) {
  switch (cfg_.flavor) {
    case TcpFlavor::kReno:
    case TcpFlavor::kNewReno:
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly_acked);  // slow start (ABC-style)
      } else {
        cwnd_ += static_cast<double>(kMss) * kMss / cwnd_;  // ~1 MSS/RTT
      }
      break;
    case TcpFlavor::kCubic:
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly_acked);
        cubic_epoch_ = -1;
        cubic_last_progress_ = -1;
      } else {
        sim::Time now = net_.sim().now();
        if (cubic_epoch_ < 0) {
          cubic_epoch_ = now;
          if (cubic_wmax_ < cwnd_) {
            // New maximum territory: probe from here.
            cubic_wmax_ = cwnd_;
            cubic_k_ = 0.0;
          }
        } else if (cubic_last_progress_ >= 0 && now - cubic_last_progress_ > rto_) {
          // RFC 8312 §5.8: W_cubic(t) is a function of *congestion-epoch*
          // time, not wall time. An app-limited or idle gap must not run the
          // cubic clock, or the first ACK after the gap lands far up the
          // curve and every subsequent ACK grows the window at the full
          // per-ACK clamp regardless of wmax — a sustained slow-start-like
          // burst into the network. Shift the epoch by the quiescent gap so
          // growth resumes exactly where it paused.
          cubic_epoch_ += now - cubic_last_progress_;
        }
        cubic_last_progress_ = now;
        double target = cubic_target();
        double inc = target > cwnd_
                         ? std::min<double>(kMss, kMss * (target - cwnd_) / cwnd_)
                         : 0.01 * kMss;  // slow floor below the curve
        cwnd_ += inc;
      }
      break;
    case TcpFlavor::kBbr:
      // cwnd was already set from the model in bbr_sample(); before the
      // first delivery-rate sample exists, grow like slow start so the
      // model has something to measure.
      if (bbr_bw_filter_.empty()) cwnd_ += static_cast<double>(newly_acked);
      break;
  }
}

double TcpSource::cubic_target() const {
  // RFC 8312 with C = 0.4, beta = 0.7, computed in MSS units.
  double t = sim::to_seconds(net_.sim().now() - cubic_epoch_);
  double wmax_mss = cubic_wmax_ / kMss;
  double target_mss = 0.4 * std::pow(t - cubic_k_, 3.0) + wmax_mss;
  return target_mss * kMss;
}

void TcpSource::bbr_sample(std::uint64_t ack) {
  sim::Time now = net_.sim().now();
  // Delivery-rate estimator, per-packet-flight style (after the
  // delivery-rate-estimation draft): when a first-transmission is
  // cumulatively acked, its sample is the growth of `delivered_bytes_`
  // (cum-ack advances plus newly SACKed data, counted when they arrive)
  // across the packet's flight, over the flight's duration. Estimators that
  // look equivalent are not:
  //  - Quotienting ack deltas over inter-ACK spacing breaks under SACK
  //    recovery: a cumulative ACK that jumps a repaired hole "delivers"
  //    tens of segments in one tiny gap — and even a delivered-counter
  //    variant bursts when the bounded SACK option hides arrivals until
  //    the hole repairs. A windowed *max* filter latches such spikes as
  //    phantom bandwidth (40x the link rate on a lossy path, which also
  //    keeps the startup growth check firing forever).
  //  - Quotienting delivered bytes over whole *rounds* measures goodput
  //    (~cwnd/RTT), not bottleneck bandwidth, and a window-driven BBR then
  //    locks into a self-fulfilling underestimate: cwnd = bw*min_rtt is a
  //    neutral equilibrium at *any* rate below capacity, and the ProbeBw
  //    1.25-gain bump gets averaged away with its neighboring 0.75 drain.
  // A flight-long quotient is physically bounded — arrivals during any
  // >=RTT interval cannot exceed link_rate*interval + one segment — while
  // packets sent under the 1.25 probe gain genuinely measure the elevated
  // delivery rate, so the filter can ratchet up to true capacity but
  // never above it.
  std::optional<BbrPktSample> newest;
  while (!bbr_pkt_samples_.empty() && bbr_pkt_samples_.front().end_seq <= ack) {
    newest = bbr_pkt_samples_.front();
    bbr_pkt_samples_.pop_front();
  }
  if (newest && now > newest->sent_at && delivered_bytes_ > newest->delivered_at_send) {
    double bps = static_cast<double>(delivered_bytes_ - newest->delivered_at_send) * 8.0 /
                 sim::to_seconds(now - newest->sent_at);
    bbr_bw_filter_.update(bps, static_cast<std::int64_t>(bbr_round_count_));
  }

  // Round accounting: a round ends when data sent after the previous round
  // marker is acknowledged (one round ~ one RTT of delivered data). Rounds
  // key the bw filter's expiry window and pace the ProbeBw gain cycle.
  bool round_start = false;
  if (ack > bbr_round_end_seq_) {
    ++bbr_round_count_;
    bbr_round_end_seq_ = next_seq_;
    round_start = true;
  }
  bbr_update_model(now, round_start);
}

void TcpSource::bbr_update_model(sim::Time now, bool round_start) {
  // Startup exit: bandwidth grew < 25 % for three consecutive rounds.
  if (round_start && !bbr_filled_pipe_) {
    double bw = bbr_bw_filter_.get_or(0.0);
    if (bw >= bbr_full_bw_ * 1.25) {
      bbr_full_bw_ = bw;
      bbr_full_bw_rounds_ = 0;
    } else if (++bbr_full_bw_rounds_ >= 3) {
      bbr_filled_pipe_ = true;
    }
  }

  // ProbeRTT entry: the min-RTT estimate has not improved for the whole
  // probe interval, so the model may be riding a stale (too-low inflight
  // would be fine, too-high builds queue) floor — drop to 4 segments and
  // re-measure.
  if (bbr_state_ != BbrState::kProbeRtt && bbr_min_rtt_stamp_ != sim::kNever &&
      now - bbr_min_rtt_stamp_ > kBbrProbeRttInterval) {
    bbr_state_ = BbrState::kProbeRtt;
    bbr_probe_rtt_done_ = now + std::max(kBbrProbeRttDuration, srtt_);
  }

  switch (bbr_state_) {
    case BbrState::kStartup:
      if (bbr_filled_pipe_) bbr_state_ = BbrState::kDrain;
      break;
    case BbrState::kDrain: {
      double bw = bbr_bw_filter_.get_or(0.0);
      sim::Time min_rtt = bbr_min_rtt_.get_or(srtt_);
      double bdp = bw * sim::to_seconds(min_rtt) / 8.0;
      if (static_cast<double>(flight_size()) <= bdp) {
        // Queue from startup has bled off; cruise. Enter the cycle at a
        // neutral phase (deterministic, unlike Linux's randomized entry).
        bbr_state_ = BbrState::kProbeBw;
        bbr_cycle_index_ = 2;
        bbr_cycle_stamp_ = now;
      }
      break;
    }
    case BbrState::kProbeBw:
      // Gain phases advance per *round trip*, not per wall-clock min-RTT.
      // The delivery-rate sample for data sent under the 1.25 probe gain
      // lands in the following round; a wall-clock cycle desynced from
      // rounds smears the probe bump across the adjacent 0.75 drain phase
      // inside one sampling round, the filter never sees a sample above its
      // current estimate, and the whole model decays toward zero instead of
      // probing (cwnd = bw*min_rtt is a *neutral* equilibrium at any rate
      // below capacity — only the probe phase pushes it up).
      if (round_start) {
        bbr_cycle_index_ = (bbr_cycle_index_ + 1) % 8;
        bbr_cycle_stamp_ = now;
      }
      break;
    case BbrState::kProbeRtt:
      if (now >= bbr_probe_rtt_done_) {
        bbr_min_rtt_stamp_ = now;  // restart the probe interval
        bbr_state_ = bbr_filled_pipe_ ? BbrState::kProbeBw : BbrState::kStartup;
        bbr_cycle_index_ = 2;
        bbr_cycle_stamp_ = now;
      }
      break;
  }
  bbr_set_cwnd();
}

void TcpSource::bbr_set_cwnd() {
  if (bbr_state_ == BbrState::kProbeRtt) {
    cwnd_ = kBbrMinCwndSegments * kMss;
    return;
  }
  double bw = bbr_bw_filter_.get_or(0.0);
  sim::Time min_rtt = bbr_min_rtt_.get_or(0);
  if (bw <= 0.0 || min_rtt <= 0) return;  // no model yet: keep slow start
  double bdp = bw * sim::to_seconds(min_rtt) / 8.0;
  double gain = kBbrStartupGain;  // kStartup
  if (bbr_state_ == BbrState::kDrain) {
    gain = 1.0;  // window-driven drain: cap inflight at one BDP
  } else if (bbr_state_ == BbrState::kProbeBw) {
    gain = kBbrCycleGains[bbr_cycle_index_];
    if (gain >= 1.0) gain = std::max(gain, kBbrCruiseCwndGain);
  }
  cwnd_ = std::max(gain * bdp, kBbrMinCwndSegments * kMss);
}

void TcpSource::on_loss_window_reduction() {
  if (cfg_.flavor == TcpFlavor::kBbr) {
    // BBR: loss is not a window signal. The bw filter forgets a vanished
    // path capacity within its round window; nothing to do here.
    return;
  }
  if (cfg_.flavor == TcpFlavor::kCubic) {
    // CUBIC: remember the pre-loss maximum and decay by beta = 0.7.
    double wmax_mss = cwnd_ / kMss;
    cubic_wmax_ = cwnd_;
    cubic_k_ = std::cbrt(wmax_mss * 0.3 / 0.4);
    cubic_epoch_ = -1;
    ssthresh_ = std::max(cwnd_ * 0.7, 2.0 * kMss);
  } else {
    ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0 * kMss);
  }
}

void TcpSource::enter_recovery() {
  ++fast_retransmits_;
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.fast_retransmits.get(*m, "tcp.fast_retransmits", cfg_.entity).add();
  }
  on_loss_window_reduction();
  if (cfg_.flavor != TcpFlavor::kBbr) cwnd_ = ssthresh_ + 3 * kMss;
  in_recovery_ = true;
  recover_ = next_seq_;
  sack_bottom_rtx_at_ = net_.sim().now();
  sack_retransmit_cursor_ = highest_ack_;
  recovery_rtx_inflight_ = 0;
  send_segment(highest_ack_, /*retransmission=*/true);
  if (cfg_.sack) sack_retransmit_cursor_ = highest_ack_ + static_cast<std::uint64_t>(segment_payload(highest_ack_));
  trace();
}

void TcpSource::on_rto() {
  if (complete() || flight_size() == 0) return;
  ++timeouts_;
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.rto_timeouts.get(*m, "tcp.rto_timeouts", cfg_.entity).add();
  }
  on_loss_window_reduction();
  cwnd_ = kMss;
  dupacks_ = 0;
  backoff_ = std::min(backoff_ * 2, 64);
  // Stay in (or enter) recovery covering everything outstanding. Classic TCP
  // rewinds snd_nxt to snd_una after a timeout and go-back-N's through the
  // gap; this sender never rewinds next_seq_, so without recovery state each
  // surviving hole from a loss burst waits for its *own* backed-off RTO —
  // one segment per 200 ms..3.2 s instead of one per partial-ACK round trip.
  in_recovery_ = true;
  recover_ = next_seq_;
  sack_bottom_rtx_at_ = net_.sim().now();
  sack_retransmit_cursor_ = highest_ack_ + static_cast<std::uint64_t>(segment_payload(highest_ack_));
  recovery_rtx_inflight_ = 0;
  tlp_fired_ = false;  // each RTO epoch gets a fresh probe
  trace();
  send_segment(highest_ack_, /*retransmission=*/true);
  arm_rto();
}

void TcpSource::trace() {
  if (auto* m = cfg_.telemetry.metrics) {
    instruments_.cwnd.get(*m, "tcp.cwnd", cfg_.entity).add(net_.sim().now(), cwnd_);
    instruments_.ssthresh.get(*m, "tcp.ssthresh", cfg_.entity).add(net_.sim().now(), ssthresh_);
  }
}

// ------------------------------------------------------------------ TcpSink

TcpSink::TcpSink(net::Network& net, net::NodeId local, net::Port local_port)
    : net_(net), local_(local), local_port_(local_port) {
  net_.node(local_).bind(local_port_, [this](Packet&& p) { on_packet(std::move(p)); });
}

TcpSink::~TcpSink() { net_.node(local_).unbind(local_port_); }

void TcpSink::on_packet(Packet&& p) {
  const auto* h = std::get_if<TcpHeader>(&p.header);
  if (!h || h->is_ack) return;
  std::uint64_t seg_begin = h->seq;
  std::uint64_t seg_end = h->seq + static_cast<std::uint64_t>(p.size_bytes - kHeaderBytes);

  std::uint64_t before = rcv_next_;
  if (seg_end > rcv_next_) {
    if (seg_begin <= rcv_next_) {
      rcv_next_ = seg_end;
      // Absorb any contiguous out-of-order segments.
      for (auto it = ooo_.begin(); it != ooo_.end() && it->first <= rcv_next_;) {
        rcv_next_ = std::max(rcv_next_, it->second);
        it = ooo_.erase(it);
      }
    } else {
      auto& end = ooo_[seg_begin];
      end = std::max(end, seg_end);
      last_ooo_begin_ = seg_begin;
    }
  }
  // Goodput counts only in-order stream progress (retransmissions and
  // duplicates don't inflate it).
  std::int64_t delivered = static_cast<std::int64_t>(rcv_next_ - before);
  received_bytes_ += delivered;
  goodput_.on_bytes(delivered);

  send_ack(p.src, p.src_port, p.flow);
}

void TcpSink::send_ack(net::NodeId to, net::Port port, net::FlowId flow) {
  Packet ack;
  ack.flow = flow;
  ack.src = local_;
  ack.dst = to;
  ack.src_port = local_port_;
  ack.dst_port = port;
  ack.size_bytes = kAckBytes;
  ack.priority = net::Priority::kLowest;
  TcpHeader h;
  h.is_ack = true;
  h.ack = rcv_next_;
  // RFC 2018: the block containing the most recently received segment
  // MUST lead the option. With only 3 block slots, reporting the lowest
  // ranges instead permanently hides every hole above the third from the
  // sender — after a burst loss its scoreboard never learns about the
  // upper scoreboard, the holes are never deemed lost, and the flow sits
  // silent until RTO.
  std::uint64_t lead = 0;
  if (last_ooo_begin_ > rcv_next_) {
    auto it = ooo_.find(last_ooo_begin_);
    if (it != ooo_.end()) {
      h.sack.emplace_back(it->first, it->second);
      lead = it->first;
    }
  }
  for (const auto& [begin, end] : ooo_) {
    if (h.sack.full()) break;
    if (begin != lead) h.sack.emplace_back(begin, end);
  }
  ack.header = std::move(h);
  net_.node(local_).send(std::move(ack));
}

}  // namespace arnet::transport
