// Fingerprint probe for the determinism_hash_canary ctest gate.
//
// Runs the quickstart-shaped offload scenario twice with the same seed under
// the full observability stack — trace fingerprinting, an active RngAuditor,
// and a PerturbedHash side table — and prints one machine-comparable block.
// The gate (cmake/hash_canary.cmake) executes this binary under two different
// ARNET_HASH_SEED values and fails unless the output is byte-identical:
// any unordered-container iteration order leaking into the trace, the
// fingerprint, or the printed table shows up as a diff.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arnet/check/determinism.hpp"
#include "arnet/check/hash_canary.hpp"
#include "arnet/check/rng_audit.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/loss.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/observer.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"

using namespace arnet;

namespace {

/// Per-fate byte counter living in a hash-seed-perturbed unordered map: its
/// bucket order is different under every ARNET_HASH_SEED, so the sorted fold
/// below is the only way its contents can reach stdout identically.
struct FateCounter final : net::NetworkObserver {
  std::unordered_map<std::string, std::uint64_t,
                     check::PerturbedHash<std::string>> bytes;

  void on_inject(sim::Time, const net::Packet& p) override {
    bytes["inject"] += p.size_bytes;
  }
  void on_deliver(sim::Time, const net::Packet& p, net::NodeId at) override {
    bytes["deliver@" + std::to_string(at)] += p.size_bytes;
  }
  void on_drop(sim::Time, const net::Packet& p, net::DropReason) override {
    bytes["drop"] += p.size_bytes;
  }

  std::uint64_t sorted_fold() const {
    // NOLINTNEXTLINE-arnet(unordered-container): the copy is sorted before it is folded
    std::vector<std::pair<std::string, std::uint64_t>> rows(bytes.begin(),
                                                            bytes.end());
    std::sort(rows.begin(), rows.end());
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
    for (const auto& [k, v] : rows) {
      for (char c : k) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
      h ^= v;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

}  // namespace

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  std::uint64_t rng_streams = 0;
  std::uint64_t rng_draws_root = 0;
  std::uint64_t rng_findings = 0;
  std::uint64_t fold = 0;

  auto scenario = [&](std::uint64_t seed, check::TraceRecorder& trace) {
    // Fresh auditor per run: the harness reuses the seed across its two
    // runs by design, which one auditor spanning both would flag.
    check::RngAuditor audit;
    check::ScopedRngAudit scope(audit);

    sim::Simulator sim;
    net::Network net(sim, seed);
    trace.attach(net);
    trace.attach(sim);
    FateCounter fates;
    net.add_observer(&fates);

    net::NodeId phone = net.add_node("phone");
    net::NodeId ap = net.add_node("ap");
    net::NodeId edge = net.add_node("edge");
    net::Link::Config up;
    up.rate_bps = 25e6;
    up.delay = sim::milliseconds(3);
    up.loss = std::make_unique<net::BernoulliLoss>(0.02);
    net::Link::Config down;
    down.rate_bps = 25e6;
    down.delay = sim::milliseconds(3);
    net.connect(phone, ap, std::move(up), std::move(down));
    net.connect(ap, edge, 1e9, sim::milliseconds(2));

    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.device = mar::DeviceClass::kSmartphone;
    cfg.video = mar::VideoModel::hd720p30();
    cfg.deadline = sim::milliseconds(75);
    mar::OffloadSession session(net, phone, edge, cfg);
    session.start();
    sim.run_until(sim::seconds(5));
    session.stop();

    net.remove_observer(&fates);
    rng_streams = audit.streams();
    rng_draws_root = audit.draws(1);
    rng_findings = audit.findings().size();
    fold = fates.sorted_fold();
  };

  auto report = check::DeterminismHarness::run_twice(scenario, /*seed=*/1);
  if (!report.deterministic()) {
    std::fprintf(stderr, "fingerprint_probe: NOT deterministic\n");
    return 1;
  }
  if (rng_findings != 0) {
    std::fprintf(stderr, "fingerprint_probe: %" PRIu64 " RNG audit finding(s)\n",
                 rng_findings);
    return 1;
  }
  std::printf("fingerprint=0x%016" PRIx64 "\n", report.fingerprint_first);
  std::printf("records=%" PRIu64 "\n", report.records_first);
  std::printf("side_table=0x%016" PRIx64 "\n", fold);
  std::printf("rng_streams=%" PRIu64 "\n", rng_streams);
  std::printf("rng_draws_root=%" PRIu64 "\n", rng_draws_root);
  std::printf("rng_findings=%" PRIu64 "\n", rng_findings);
  return 0;
}
