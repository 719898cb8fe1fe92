// Tests for the QUIC-lite paced transport: fixed-interval fragment pacing on
// the send side, and frame reassembly that tolerates reordering/duplication
// and classifies every frame as on-time, late, or incomplete (the arvr-sim
// accounting the transport shootout scores by).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arnet/net/network.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/quic_lite.hpp"

namespace arnet::transport {
namespace {

using net::Network;
using net::Packet;
using net::QuicHeader;
using sim::microseconds;
using sim::milliseconds;
using sim::seconds;

struct QuicWorld {
  sim::Simulator sim;
  Network net{sim, 5};
  net::NodeId a, b;

  QuicWorld(double bps = 100e6, sim::Time delay = milliseconds(2)) {
    a = net.add_node("a");
    b = net.add_node("b");
    net.connect(a, b, bps, delay, 500);
  }

  /// Hand-crafted fragment injection, for reorder/duplicate/loss scenarios
  /// the real pacer would never produce on a clean link.
  void inject(std::uint32_t frame, std::uint32_t frag, std::uint32_t count,
              sim::Time submitted_at) {
    Packet p;
    p.flow = 9;
    p.src = a;
    p.dst = b;
    p.src_port = 1000;
    p.dst_port = 80;
    p.size_bytes = 1238;
    QuicHeader h;
    h.frame_id = frame;
    h.frag = frag;
    h.frag_count = count;
    h.sent_at = sim.now();
    h.frame_submitted_at = submitted_at;
    p.header = h;
    net.node(a).send(std::move(p));
  }
};

TEST(QuicLite, DeliversFramesOnTimeOverCleanLink) {
  QuicWorld w;
  QuicLiteSender tx(w.net, w.a, 1000, w.b, 80, 9);
  QuicLiteReceiver rx(w.net, w.b, 80);
  int callbacks = 0;
  rx.set_frame_callback([&](const QuicFrameResult& r) {
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.on_time);
    ++callbacks;
  });
  for (int i = 0; i < 30; ++i) {
    w.sim.at(milliseconds(33) * i, [&tx] { tx.send_frame(30'000); });
  }
  w.sim.run_until(seconds(2));
  EXPECT_EQ(tx.frames_sent(), 30u);
  EXPECT_EQ(rx.frames_on_time(), 30);
  EXPECT_EQ(rx.frames_late(), 0);
  EXPECT_EQ(rx.frames_incomplete(), 0);
  EXPECT_EQ(callbacks, 30);
  EXPECT_EQ(rx.duplicate_fragments(), 0);
  // 30 KB / 1200 B = 25 fragments per frame.
  EXPECT_EQ(rx.fragments_received(), 30 * 25);
  EXPECT_GT(rx.frame_latency_ms().median(), 0.0);
}

TEST(QuicLite, PacerSpacesFragmentsByConfiguredInterval) {
  QuicWorld w(1e9, milliseconds(1));
  QuicLiteSender tx(w.net, w.a, 1000, w.b, 80, 9);
  // Raw tap instead of the reassembler: record every fragment arrival time.
  std::vector<sim::Time> arrivals;
  w.net.node(w.b).bind(80, [&](Packet&& p) {
    (void)p;
    arrivals.push_back(w.sim.now());
  });
  tx.send_frame(12'000);  // 10 fragments
  w.sim.run_until(milliseconds(100));
  w.net.node(w.b).unbind(80);
  ASSERT_EQ(arrivals.size(), 10u);
  // A 1 Gb/s pipe serializes a fragment in ~10 us, so arrival spacing is set
  // by the 200 us pacer, not the link.
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i] - arrivals[i - 1], microseconds(200));
    EXPECT_LE(arrivals[i] - arrivals[i - 1], microseconds(250));
  }
}

TEST(QuicLite, ReassemblesReorderedFragments) {
  QuicWorld w;
  QuicLiteReceiver rx(w.net, w.b, 80);
  sim::Time submitted = w.sim.now();
  // Fragments of frame 7 injected in reverse order, interleaved with frame 8.
  w.sim.at(milliseconds(1), [&] { w.inject(7, 2, 3, submitted); });
  w.sim.at(milliseconds(2), [&] { w.inject(8, 0, 2, submitted); });
  w.sim.at(milliseconds(3), [&] { w.inject(7, 1, 3, submitted); });
  w.sim.at(milliseconds(4), [&] { w.inject(8, 1, 2, submitted); });
  w.sim.at(milliseconds(5), [&] { w.inject(7, 0, 3, submitted); });
  w.sim.run_until(milliseconds(50));
  EXPECT_EQ(rx.frames_completed(), 2);
  EXPECT_EQ(rx.frames_on_time(), 2);
  EXPECT_EQ(rx.duplicate_fragments(), 0);
}

TEST(QuicLite, CountsDuplicatesWithoutDoubleDelivery) {
  QuicWorld w;
  QuicLiteReceiver rx(w.net, w.b, 80);
  int callbacks = 0;
  rx.set_frame_callback([&](const QuicFrameResult&) { ++callbacks; });
  sim::Time submitted = w.sim.now();
  w.sim.at(milliseconds(1), [&] { w.inject(1, 0, 2, submitted); });
  w.sim.at(milliseconds(2), [&] { w.inject(1, 0, 2, submitted); });  // dup pre-completion
  w.sim.at(milliseconds(3), [&] { w.inject(1, 1, 2, submitted); });  // completes
  w.sim.at(milliseconds(4), [&] { w.inject(1, 1, 2, submitted); });  // dup post-completion
  w.sim.run_until(milliseconds(50));
  EXPECT_EQ(rx.frames_completed(), 1);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(rx.duplicate_fragments(), 2);
}

TEST(QuicLite, MissingFragmentBecomesIncompleteAtExpiry) {
  QuicWorld w;
  QuicLiteReceiver rx(w.net, w.b, 80);
  QuicFrameResult last;
  int callbacks = 0;
  rx.set_frame_callback([&](const QuicFrameResult& r) {
    last = r;
    ++callbacks;
  });
  sim::Time submitted = w.sim.now();
  // 2 of 3 fragments arrive; the third is lost forever.
  w.sim.at(milliseconds(1), [&] { w.inject(3, 0, 3, submitted); });
  w.sim.at(milliseconds(2), [&] { w.inject(3, 2, 3, submitted); });
  w.sim.run_until(milliseconds(100));
  EXPECT_EQ(rx.frames_incomplete(), 0) << "expired before the 250 ms grace";
  w.sim.run_until(milliseconds(400));
  EXPECT_EQ(rx.frames_incomplete(), 1);
  EXPECT_EQ(rx.frames_completed(), 0);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(last.complete);
  EXPECT_FALSE(last.on_time);
  // A straggler after the sweep forgot the frame starts a fresh (doomed)
  // reassembly rather than crashing or double-counting.
  w.sim.at(milliseconds(410), [&] { w.inject(3, 1, 3, submitted); });
  w.sim.run_until(milliseconds(800));
  EXPECT_EQ(rx.frames_incomplete(), 2);
}

TEST(QuicLite, LateCompletionCountsAsLateNotOnTime) {
  QuicWorld w;
  QuicLiteReceiver::Config rcfg;
  rcfg.deadline = milliseconds(50);
  QuicLiteReceiver rx(w.net, w.b, 80, rcfg);
  sim::Time submitted = w.sim.now();
  w.sim.at(milliseconds(1), [&] { w.inject(4, 0, 2, submitted); });
  // Second fragment completes the frame 80 ms after submission: past the
  // 50 ms deadline but inside the 250 ms expiry.
  w.sim.at(milliseconds(80), [&] { w.inject(4, 1, 2, submitted); });
  w.sim.run_until(milliseconds(500));
  EXPECT_EQ(rx.frames_late(), 1);
  EXPECT_EQ(rx.frames_on_time(), 0);
  EXPECT_EQ(rx.frames_incomplete(), 0);
}

}  // namespace
}  // namespace arnet::transport
