// Tests for the shared server worker pool (an unbatched fleet::EdgeServer)
// and its effect on offload sessions.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <vector>

#include "arnet/fleet/server.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "golden.hpp"

namespace arnet::mar {
namespace {

using sim::milliseconds;
using sim::seconds;

/// A plain FIFO pool of `lanes` workers: one request per batch, no setup,
/// desktop silicon (compute_scale 1), so service time equals the work.
std::unique_ptr<fleet::EdgeServer> worker_pool(sim::Simulator& sim, int lanes) {
  static_assert(fleet::kServerClass == DeviceClass::kDesktop);
  fleet::EdgeServerConfig cfg;
  cfg.batch.enabled = false;
  cfg.batch.setup = 0;
  cfg.batch.executors = lanes;
  return std::make_unique<fleet::EdgeServer>(sim, cfg);
}

void submit(fleet::EdgeServer& pool, sim::Time work, std::function<void()> done) {
  fleet::ComputeRequest req;
  req.work = work;
  req.done = std::move(done);
  pool.submit(std::move(req));
}

void use_pool(OffloadSession& session, fleet::EdgeServer& pool) {
  session.set_server_compute(
      [&pool](sim::Time work, std::function<void()> done) { submit(pool, work, std::move(done)); });
}

TEST(ComputeResource, SerialJobsQueueOnOneCore) {
  sim::Simulator sim;
  auto cpu = worker_pool(sim, 1);
  std::vector<sim::Time> done;
  for (int i = 0; i < 3; ++i) {
    submit(*cpu, milliseconds(10), [&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], milliseconds(10));
  EXPECT_EQ(done[1], milliseconds(20));
  EXPECT_EQ(done[2], milliseconds(30));
  EXPECT_EQ(cpu->batches(), 3);           // one request per batch
  EXPECT_GT(cpu->sojourn_ewma_ms(), 10.0);  // later jobs waited behind the first
}

TEST(ComputeResource, CoresRunInParallel) {
  sim::Simulator sim;
  auto cpu = worker_pool(sim, 4);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    submit(*cpu, milliseconds(10), [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.now(), milliseconds(10));  // all four finished together
  EXPECT_NEAR(cpu->utilization(), 1.0, 1e-9);
}

TEST(ComputeResource, UtilizationReflectsIdleTime) {
  sim::Simulator sim;
  auto cpu = worker_pool(sim, 2);
  submit(*cpu, milliseconds(10), [] {});
  sim.run_until(milliseconds(100));
  // 10 ms busy on one of two lanes over 100 ms = 5 %.
  EXPECT_NEAR(cpu->utilization(), 0.05, 1e-6);
}

TEST(ComputeResource, SharedPoolCreatesContentionAcrossSessions) {
  // Two clients offload to one server. With a dedicated-capacity model both
  // get identical latency; with a single shared core, they queue.
  auto run = [](bool shared) {
    sim::Simulator sim;
    net::Network net(sim, 3);
    auto s = net.add_node("server");
    std::unique_ptr<fleet::EdgeServer> pool;
    if (shared) pool = worker_pool(sim, 1);
    std::vector<std::unique_ptr<OffloadSession>> sessions;
    for (int i = 0; i < 6; ++i) {
      auto c = net.add_node("c" + std::to_string(i));
      net.connect(c, s, 50e6, milliseconds(4), 300);
      OffloadConfig cfg;
      cfg.strategy = OffloadStrategy::kFullOffload;  // heavy server work
      cfg.send_sensor_stream = false;
      auto sess = std::make_unique<OffloadSession>(net, c, s, cfg);
      if (pool) use_pool(*sess, *pool);
      sessions.push_back(std::move(sess));
    }
    net.compute_routes();
    for (auto& sess : sessions) sess->start();
    sim.run_until(seconds(10));
    sim::Samples lat;
    for (auto& sess : sessions) {
      sess->stop();
      for (double v : sess->stats().latency_ms.values()) lat.add(v);
    }
    return lat.median();
  };
  double dedicated = run(false);
  double contended = run(true);
  // 6 users x 30 fps x ~3.2 ms server work = 58 % of one core... plus
  // bursts: queueing inflates latency measurably.
  EXPECT_GT(contended, dedicated + 1.0);
}

TEST(ComputeResource, OffloadSessionStillCompletesWithPool) {
  sim::Simulator sim;
  net::Network net(sim, 3);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 30e6, milliseconds(5), 300);
  auto pool = worker_pool(sim, 2);
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kCloudRidAR;
  OffloadSession session(net, c, s, cfg);
  use_pool(session, *pool);
  session.start();
  sim.run_until(seconds(10));
  session.stop();
  EXPECT_GT(session.stats().results, 250);
  EXPECT_GT(pool->requests(), 250);
}

// Eight FullOffload users in staggered pairs on one 2-lane pool: paired
// frames reach the server together and queue. The digest covers every
// latency sample in session order, so any change to lane choice, queue
// order or same-instant completion order shows up here.
TEST(OffloadPool, SharedPoolGolden) {
  sim::Simulator sim;
  net::Network net(sim, 11);
  auto s = net.add_node("server");
  auto pool = worker_pool(sim, 2);
  std::vector<std::unique_ptr<OffloadSession>> sessions;
  for (int i = 0; i < 8; ++i) {
    auto c = net.add_node("c" + std::to_string(i));
    net.connect(c, s, 50e6, milliseconds(4), 300);
    OffloadConfig cfg;
    cfg.strategy = OffloadStrategy::kFullOffload;
    cfg.send_sensor_stream = false;
    auto sess = std::make_unique<OffloadSession>(net, c, s, cfg);
    use_pool(*sess, *pool);
    sim.at(milliseconds(5) * (i / 2), [raw = sess.get()] { raw->start(); });
    sessions.push_back(std::move(sess));
  }
  net.compute_routes();
  sim.run_until(seconds(5));
  std::uint64_t digest = golden::kFnvBasis;
  std::size_t n = 0;
  for (auto& sess : sessions) {
    sess->stop();
    for (double v : sess->stats().latency_ms.values()) {
      digest = golden::fnv1a_word(digest, std::bit_cast<std::uint64_t>(v));
      ++n;
    }
  }
  EXPECT_EQ(golden::Row{}.u(n).x(digest).str(), "1070 99e5ed7a56ecfcb5");
}

}  // namespace
}  // namespace arnet::mar
