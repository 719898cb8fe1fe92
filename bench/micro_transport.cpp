// Micro-benchmarks of the simulation and transport hot paths: event loop
// turnover, queue disciplines, and end-to-end simulated transfers per
// wall-clock second. Writes the arnet-bench-v1 document CI gates,
// <--out-dir>/BENCH_micro_transport.json (see json_bench.hpp).
#include <cstdint>
#include <memory>
#include <vector>

#include "arnet/fleet/scenario.hpp"
#include "arnet/fluid/city.hpp"
#include "arnet/fluid/fluid.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/packet_arena.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/wifi.hpp"
#include "json_bench.hpp"

namespace {

using namespace arnet;
using benchjson::keep;

std::int64_t run_simulator_event_turnover() {
  sim::Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    sim.at(sim::microseconds(i), [&fired] { ++fired; });
  }
  sim.run();
  keep(fired);
  return static_cast<std::int64_t>(sim.events_executed());
}

template <typename Q>
void queue_cycle(Q& q) {
  for (int i = 0; i < 256; ++i) {
    net::Packet p;
    p.size_bytes = 1500;
    p.flow = static_cast<net::FlowId>(i % 8);
    q.enqueue(std::move(p), sim::microseconds(i));
  }
  while (q.dequeue(sim::milliseconds(1))) {
  }
}

std::int64_t run_drop_tail_queue() {
  net::DropTailQueue q(512);
  queue_cycle(q);
  keep(q.drops());
  return 0;
}

std::int64_t run_codel_queue() {
  net::CoDelQueue q;
  queue_cycle(q);
  keep(q.drops());
  return 0;
}

std::int64_t run_fq_codel_queue() {
  net::FqCoDelQueue q;
  queue_cycle(q);
  keep(q.drops());
  return 0;
}

std::int64_t run_weighted_fair_queue() {
  net::WeightedFairQueue q({{3.0, 512}, {1.0, 512}},
                           net::WeightedFairQueue::reserve_flow(1));
  queue_cycle(q);
  keep(q.drops());
  return 0;
}

std::int64_t run_packet_arena_churn() {
  // Steady-state slot turnover of the in-flight packet arena: bursts of 16
  // acquires (a deep batch plus network-layer parking) drained LIFO, the
  // pattern links settle into. Measures that recycling stays allocation-free
  // and that warm slots keep their header storage.
  net::PacketArena arena;
  std::uint32_t slots[16];
  std::int64_t acc = 0;
  for (int round = 0; round < 2000; ++round) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      net::Packet p;
      p.size_bytes = 1500;
      p.uid = static_cast<std::uint64_t>(round) * 16 + i;
      slots[i] = arena.acquire(std::move(p));
    }
    for (int i = 15; i >= 0; --i) {
      net::Packet p = arena.take(slots[i]);
      acc += p.size_bytes;
    }
  }
  keep(acc);
  keep(arena.capacity());
  return acc;
}

std::int64_t run_tcp_bulk_transfer() {
  // Wall-clock cost of simulating a 1 MB TCP transfer over a 10 Mb/s link.
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 10e6, sim::milliseconds(10), 100);
  transport::TcpSink sink(net, s, 80);
  transport::TcpSource src(net, c, 1000, s, 80, 1);
  src.send(1'000'000);
  sim.run_until(sim::seconds(30));
  keep(sink.received_bytes());
  return static_cast<std::int64_t>(sim.events_executed());
}

std::int64_t run_bbr_steady_state() {
  // Wall-clock cost of 10 simulated seconds of a greedy BBR flow riding a
  // 20 Mb/s bottleneck: exercises the bw/min-RTT filters, the ProbeBW gain
  // cycle, and at least one ProbeRTT episode per run.
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 20e6, sim::milliseconds(20), 100);
  transport::TcpSink sink(net, s, 80);
  transport::TcpSource::Config cfg;
  cfg.flavor = transport::TcpFlavor::kBbr;
  cfg.sack = true;
  transport::TcpSource src(net, c, 1000, s, 80, 1, cfg);
  src.send_forever();
  sim.run_until(sim::seconds(10));
  keep(sink.received_bytes());
  return static_cast<std::int64_t>(sim.events_executed());
}

std::int64_t run_artp_session() {
  // Wall-clock cost of simulating 10 s of a 30 Hz ARTP feature stream.
  sim::Simulator sim;
  net::Network net(sim, 1);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net.connect(c, s, 20e6, sim::milliseconds(10), 300);
  transport::ArtpReceiver rx(net, s, 80);
  transport::ArtpSender tx(net, c, 1000, s, 80, 1, transport::ArtpSenderConfig{});
  for (int i = 0; i < 300; ++i) {
    sim.at(sim::from_seconds(i / 30.0), [&tx] {
      transport::ArtpMessageSpec m;
      m.bytes = 14'400;
      m.tclass = net::TrafficClass::kBestEffortLossRecovery;
      m.priority = net::Priority::kMediumNoDrop;
      tx.send_message(m);
    });
  }
  sim.run_until(sim::seconds(11));
  keep(rx.delivered_messages());
  return static_cast<std::int64_t>(sim.events_executed());
}

std::int64_t run_fleet_session_churn() {
  // Wall-clock cost of 5 simulated seconds of a churn-heavy serving fleet:
  // ~100 short sessions arrive, stream batched frames, and retire.
  fleet::CellConfig cell;
  cell.name = "churn";
  cell.offered_users = 40;
  cell.mean_lifetime_s = 2.0;
  cell.duration = sim::seconds(5);
  fleet::CellResult r = fleet::run_capacity_cell(cell, 1);
  keep(r.results);
  return r.sim_events;
}

std::int64_t run_fluid_step() {
  // Per-tick cost of the mean-field city cell: one simulated diurnal hour at
  // the city tick (1 s), default probe grid. scale_city's wall time is this
  // number times cells * ticks, so a regression here is a regression of the
  // whole city bench.
  fluid::FluidConfig f;
  f.seed = 1;
  f.population.base_arrivals_per_s = 0.5;
  f.population.mean_lifetime_s = 600.0;
  f.population.profile.curve = {0.5, 1.0, 2.0, 1.5};
  f.population.profile.period = sim::seconds(3600);
  f.tick = sim::seconds(1);
  f.duration = sim::seconds(3600);
  f.rtt_quantiles = 2;
  f.wait_quantiles = 2;
  fluid::FluidCell cell(std::move(f));
  const fluid::FluidResult r = cell.run();
  keep(r.p99_ms);
  return r.ticks;
}

std::int64_t run_fluid_step_admission() {
  // FluidStep on the admission-controlled path that the city's core and
  // nightlife cells take: one simulated hour of the default city's downtown
  // core cell (index 168), shifted to its 09:00 plateau so the controller
  // trips and rejects. Every tick pays the windowed p99 projection and feeds
  // the 32-point stencil; FluidStep above runs open loop and pays neither.
  const fluid::CityConfig city;
  fluid::FluidConfig f = fluid::make_city_cell(city, 168, runner::derive_seed(city.seed, 168));
  f.population.profile.phase += sim::seconds(9 * 3600);
  f.duration = sim::seconds(3600);
  fluid::FluidCell cell(std::move(f));
  const fluid::FluidResult r = cell.run();
  keep(r.p99_ms);
  return r.ticks;
}

std::int64_t run_telemetry_overhead(bool telemetry_on) {
  // The CI-gated pair: the paper's end-to-end pipeline — one AR offload
  // session shipping frames over a simulated access link — run dark vs with
  // the sampled telemetry stack attached (span-level tracer feeding the
  // tail sampler, SLO tracker on frame completions). compare_bench --pair
  // holds "on" within 5 % of "off": the sampled operating point must stay
  // cheap enough to leave on in every sweep. That operating point is
  // span-level by definition (sink-only tracer, trace_transport off):
  // per-chunk/per-packet events are deep-dive instrumentation for the
  // ring/pcap/Perfetto exporters and are priced separately in DESIGN.md §14.
  sim::Simulator sim;
  net::Network net(sim, 11);
  auto user = net.add_node("user");
  auto edge = net.add_node("edge");
  net.connect(user, edge, 20e6, sim::milliseconds(10), 150);
  net.compute_routes();
  trace::Tracer tracer;
  trace::SamplerConfig sc;
  sc.seed = 7;
  // Outlier bound sits above this workload's typical latency so retention
  // stays on the tail (misses + reservoir), like a production steady state —
  // a threshold below p50 would retain every frame and price the overload
  // path instead (that path is exercised by the sampler tests).
  sc.outlier_threshold_ms = 150.0;
  trace::TailSampler sampler(sc);
  slo::SloTracker slo{slo::SloConfig{}};
  mar::OffloadConfig cfg;
  cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
  if (telemetry_on) {
    tracer.set_sink(&sampler);
    tracer.set_sink_only(true);  // sampled mode: the span budget is the store
    cfg.tracer = &tracer;
    cfg.trace_transport = false;  // span-level: frame spans, not chunk events
    cfg.slo = &slo;
  }
  mar::OffloadSession session(net, user, edge, cfg);
  session.start();
  sim.run_until(sim::seconds(2));
  session.stop();
  if (telemetry_on) keep(sampler.retained_count());
  keep(session.stats().results);
  return static_cast<std::int64_t>(sim.events_executed());
}

std::int64_t run_telemetry_overhead_off() { return run_telemetry_overhead(false); }
std::int64_t run_telemetry_overhead_on() { return run_telemetry_overhead(true); }

std::int64_t run_wifi_cell_saturated() {
  // Wall-clock cost of 1 simulated second of a saturated 4-station cell.
  sim::Simulator sim;
  wireless::WifiCell cell(sim, sim::Rng(1), wireless::WifiCell::Config{});
  std::vector<std::uint32_t> stas;
  for (int i = 0; i < 4; ++i) stas.push_back(cell.add_station(54e6));
  cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&& p, std::uint32_t from) {
    (void)p;
    net::Packet next;
    next.size_bytes = 1500;
    cell.send(from, wireless::WifiCell::kApId, std::move(next));
  });
  for (auto s : stas) {
    for (int i = 0; i < 3; ++i) {
      net::Packet p;
      p.size_bytes = 1500;
      cell.send(s, wireless::WifiCell::kApId, std::move(p));
    }
  }
  sim.run_until(sim::seconds(1));
  keep(cell.delivered_bytes(wireless::WifiCell::kApId));
  return static_cast<std::int64_t>(sim.events_executed());
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<arnet::benchjson::Case> cases = {
      {"SimulatorEventTurnover", run_simulator_event_turnover},
      {"DropTailQueue", run_drop_tail_queue},
      {"CoDelQueue", run_codel_queue},
      {"FqCoDelQueue", run_fq_codel_queue},
      {"WeightedFairQueue", run_weighted_fair_queue},
      {"PacketArenaChurn", run_packet_arena_churn},
      {"TcpBulkTransferSimulated", run_tcp_bulk_transfer},
      {"BbrSteadyState", run_bbr_steady_state},
      {"ArtpSessionSimulated", run_artp_session},
      {"WifiCellSaturated", run_wifi_cell_saturated},
      {"FleetSessionChurn", run_fleet_session_churn},
      {"FluidStep", run_fluid_step},
      {"FluidStepAdmission", run_fluid_step_admission},
      {"TelemetryOverhead/off", run_telemetry_overhead_off},
      {"TelemetryOverhead/on", run_telemetry_overhead_on},
  };
  return arnet::benchjson::run_json(argc, argv, "micro_transport", cases);
}
