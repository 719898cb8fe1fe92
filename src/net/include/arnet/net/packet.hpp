#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "arnet/sim/time.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::net {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;
using Port = std::uint16_t;

inline constexpr NodeId kNoNode = 0xFFFFFFFF;

/// ARTP traffic classes (paper §VI-A).
enum class TrafficClass : std::uint8_t {
  kFullBestEffort,          ///< latency first; never recovered
  kBestEffortLossRecovery,  ///< latency-sensitive but protected (FEC)
  kCriticalData,            ///< reliable in-order delivery
};

/// ARTP traffic priorities (paper §VI-A): how to degrade under congestion.
enum class Priority : std::uint8_t {
  kHighest = 0,       ///< never discarded nor delayed
  kMediumNoDrop = 1,  ///< may be delayed, never discarded
  kMediumNoDelay = 2, ///< may be discarded, never delayed
  kLowest = 3,        ///< discarded first under congestion
};

/// Application payload types used by the MAR traffic model (paper Fig. 4).
enum class AppData : std::uint8_t {
  kConnectionMetadata,
  kSensorData,
  kVideoReferenceFrame,
  kVideoInterFrame,
  kFeaturePayload,  ///< extracted features (CloudRidAR-style offloading)
  kComputeResult,
  kDatabaseObject,
  kGeneric,
};
inline constexpr std::size_t kAppDataCount = 8;

const char* to_string(AppData a);

/// Why a packet left the network without reaching its destination. Lives
/// next to Packet (not observer.hpp) because queues report it through their
/// drop hooks before any observer is involved.
/// The values are written out because check::TraceRecorder hashes them into
/// determinism fingerprints: 2 belonged to a retired reason and stays unused,
/// so that every recorded fingerprint still holds.
enum class DropReason : std::uint8_t {
  kQueue = 0,       ///< tail/limit drop: the queue was full on enqueue
  kAqm = 1,         ///< AQM control law (CoDel) dropped it to signal congestion
  kLinkDown = 3,    ///< link administratively down (queued or in flight)
  kRandomLoss = 4,  ///< link loss model fired
  kUnroutable = 5,  ///< no route to destination
};
/// One past the largest DropReason value: the size of a table indexed by it.
inline constexpr std::size_t kDropReasonCount = 6;

const char* to_string(DropReason r);

/// Fixed-capacity SACK block list: up to 3 [begin, end) byte ranges
/// (RFC 2018 allows 3-4 next to timestamps). Inline storage on purpose —
/// Packet is a value type that Network::send and Link::on_transmit_complete
/// copy on every hop, and a std::vector here meant one heap allocation per
/// copied ACK on the simulator's hottest path.
class SackBlocks {
 public:
  using Block = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kMaxBlocks = 3;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == kMaxBlocks; }
  const Block& operator[](std::size_t i) const { return blocks_[i]; }
  const Block* begin() const { return blocks_.data(); }
  const Block* end() const { return blocks_.data() + count_; }

  /// Append a block; excess blocks past the RFC cap are silently dropped
  /// (callers report the freshest ranges first).
  void emplace_back(std::uint64_t begin_seq, std::uint64_t end_seq) {
    if (count_ < kMaxBlocks) blocks_[count_++] = {begin_seq, end_seq};
  }
  void clear() { count_ = 0; }

 private:
  std::array<Block, kMaxBlocks> blocks_{};
  std::uint8_t count_ = 0;
};

/// TCP segment header (simplified: no window scaling).
struct TcpHeader {
  std::uint64_t seq = 0;       ///< first payload byte offset
  std::uint64_t ack = 0;       ///< next expected byte
  bool is_ack = false;         ///< carries acknowledgment
  /// SACK blocks received above `ack`.
  SackBlocks sack;
};

/// Retransmission request for one missing critical chunk.
struct ArtpNack {
  std::uint64_t msg_id = 0;
  std::uint32_t chunk = 0;
};

/// ARTP message header.
struct ArtpHeader {
  enum class Kind : std::uint8_t { kData, kParity, kFeedback };
  Kind kind = Kind::kData;
  std::uint64_t msg_id = 0;      ///< per-flow message sequence
  std::uint32_t chunk = 0;       ///< chunk index (or parity index for kParity)
  std::uint32_t chunk_count = 1; ///< data chunks in the message
  std::uint32_t frame_id = 0;    ///< application frame/sample id
  /// Contiguous sequence over critical-class messages (1-based; 0 for other
  /// classes). Lets the receiver detect critical messages lost in full.
  std::uint32_t critical_seq = 0;
  std::uint8_t path_id = 0;      ///< multipath subflow id
  std::uint64_t path_seq = 0;    ///< per-path wire sequence (loss detection)
  sim::Time sent_at = 0;         ///< wire timestamp (delay-gradient CC)
  sim::Time msg_submitted_at = 0;  ///< when the app handed over the message
  // Feedback fields (valid when kind == kFeedback):
  std::uint64_t fb_highest_seen = 0;
  sim::Time fb_owd = 0;          ///< latest one-way delay sample on path_id
  sim::Time fb_min_owd = 0;      ///< lowest one-way delay seen on path_id
  double fb_loss_fraction = 0.0; ///< losses in the last feedback epoch
  std::vector<ArtpNack> fb_nacks;  ///< missing chunks of partially seen messages
  std::vector<std::uint32_t> fb_missing_critical;  ///< critical_seq gaps (full loss)
};

/// Raw datagram header for plain UDP-style traffic.
struct UdpHeader {
  std::uint64_t seq = 0;
};

/// QUIC-lite fragment header: one paced UDP datagram of an application frame
/// (arvr-sim's VrHeader — frameId/pktId/pktCount/sendTs — plus the frame
/// submission timestamp so the receiver can do deadline accounting).
struct QuicHeader {
  std::uint32_t frame_id = 0;
  std::uint32_t frag = 0;        ///< fragment index within the frame
  std::uint32_t frag_count = 1;  ///< fragments in the frame
  std::uint64_t wire_seq = 0;    ///< per-connection send sequence
  sim::Time sent_at = 0;             ///< wire timestamp of this fragment
  sim::Time frame_submitted_at = 0;  ///< when the app handed over the frame
};

using TransportHeader =
    std::variant<std::monostate, TcpHeader, ArtpHeader, UdpHeader, QuicHeader>;

/// A simulated packet. Value type: links and queues move/copy it freely.
struct Packet {
  std::uint64_t uid = 0;  ///< globally unique (assigned by Network)
  FlowId flow = 0;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Port src_port = 0;
  Port dst_port = 0;
  std::int32_t size_bytes = 0;  ///< wire size including headers

  TrafficClass tclass = TrafficClass::kFullBestEffort;
  Priority priority = Priority::kLowest;
  AppData app = AppData::kGeneric;

  sim::Time created_at = 0;
  sim::Time enqueued_at = 0;  ///< set by queues for sojourn-time AQM

  /// Causal trace identity (zero = untraced). Stamped by the transport when
  /// the packet is built and carried through every hop, so link/queue/radio
  /// events join the per-frame timeline.
  trace::TraceContext trace;

  TransportHeader header;
};

}  // namespace arnet::net
