// Reproduces the §IV-C projection: "similarly to 4G, usage will quickly
// catch up with the capabilities of 5G". A single 5G cell meeting the NGMN
// AR KPIs (50 Mb/s per-user uplink, 500 Mb/s aggregate, 10 ms e2e) serves a
// growing crowd of MAR users. Today's 720p offloading feeds fit scores of
// users; the 4K-class feeds the paper extrapolates to saturate the same
// cell with a handful.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/fleet/server.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"

using namespace arnet;
using sim::milliseconds;
using sim::seconds;

namespace {

/// Every captured frame ends up on time, late, or never completed (still
/// in flight or lost when the sessions stop); the median and p95 cover the
/// completed ones.
struct CrowdResult {
  double median_ms = 0.0;
  double p95_ms = 0.0;
  std::int64_t frames = 0;
  std::int64_t on_time = 0;
  std::int64_t late = 0;
  std::int64_t never_completed = 0;
  double cell_load_pct = 0.0;
};

/// Appends the frame split and the 75 ms miss column to a table row: late
/// and never-completed frames both miss, out of every frame captured.
std::vector<std::string> row(std::vector<std::string> cells, const CrowdResult& r) {
  cells.push_back(std::to_string(r.frames));
  cells.push_back(std::to_string(r.on_time));
  cells.push_back(std::to_string(r.late));
  cells.push_back(std::to_string(r.never_completed));
  cells.push_back(r.frames ? core::fmt(100.0 * static_cast<double>(r.late + r.never_completed) /
                                           static_cast<double>(r.frames),
                                       1) + " %"
                           : "no data");
  return cells;
}

CrowdResult run_crowd(int users, const mar::VideoModel& video, int server_cores = 0) {
  sim::Simulator sim;
  net::Network net(sim, 2030);
  auto bs = net.add_node("gnb");
  auto server = net.add_node("edge-server");
  // The shared worker pool: an unbatched edge server whose lanes are the
  // cores. Desktop silicon (compute_scale 1) serves the already-scaled work.
  std::unique_ptr<fleet::EdgeServer> pool;
  if (server_cores > 0) {
    fleet::EdgeServerConfig pc;
    pc.batch.enabled = false;
    pc.batch.setup = 0;
    pc.batch.executors = server_cores;
    pool = std::make_unique<fleet::EdgeServer>(sim, pc);
  }
  // Shared cell uplink: the NGMN aggregate; per-user radio legs at the
  // 50 Mb/s KPI with ~4 ms of radio latency.
  auto [cell_up, cell_down] = net.connect(bs, server, 500e6, milliseconds(3), 2000);
  (void)cell_down;

  std::vector<net::NodeId> clients;
  std::vector<std::unique_ptr<mar::OffloadSession>> sessions;
  for (int u = 0; u < users; ++u) {
    auto c = net.add_node("ue" + std::to_string(u));
    net.connect(c, bs, 50e6, milliseconds(4), 300);
    clients.push_back(c);
  }
  net.compute_routes();

  for (int u = 0; u < users; ++u) {
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kFullOffload;
    cfg.device = mar::DeviceClass::kSmartphone;
    cfg.video = video;
    cfg.send_sensor_stream = false;  // keep the sweep about video load
    auto s = std::make_unique<mar::OffloadSession>(net, clients[static_cast<std::size_t>(u)],
                                                   server, cfg);
    if (pool) {
      s->set_server_compute([raw = pool.get()](sim::Time work, std::function<void()> done) {
        fleet::ComputeRequest req;
        req.work = work;
        req.done = std::move(done);
        raw->submit(std::move(req));
      });
    }
    // Stagger starts across one frame interval to avoid phase artifacts.
    sim.at(milliseconds(3) * u % milliseconds(33), [raw = s.get()] { raw->start(); });
    sessions.push_back(std::move(s));
  }
  sim.run_until(seconds(20));

  sim::Samples latency;
  CrowdResult out;
  for (auto& s : sessions) {
    s->stop();
    const auto& st = s->stats();
    out.frames += st.frames;
    out.on_time += st.results - st.deadline_misses;
    out.late += st.deadline_misses;
    out.never_completed += st.frames - st.results;
    for (double v : st.latency_ms.values()) latency.add(v);
  }
  out.median_ms = latency.median();
  out.p95_ms = latency.percentile(0.95);
  out.cell_load_pct = 100.0 * users * video.compressed_bps() / 500e6;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  std::cout << "=== SIV-C: a 5G cell (NGMN AR KPIs) vs growing MAR usage ===\n"
            << "FullOffload sessions sharing one 500 Mb/s cell, 20 s each.\n";

  std::cout << "\n--- Today's feed: 720p30 (~" << core::fmt(mar::VideoModel::hd720p30().compressed_bps() / 1e6, 1)
            << " Mb/s per user) ---\n";
  {
    core::TablePrinter t({"users", "offered load", "median m2p", "p95", "frames", "on time",
                          "late", "never done", "75 ms miss"});
    for (int users : {10, 40, 80, 120}) {
      auto r = run_crowd(users, mar::VideoModel::hd720p30());
      t.add_row(row({std::to_string(users), core::fmt(r.cell_load_pct, 0) + " %",
                     core::fmt_ms(r.median_ms), core::fmt_ms(r.p95_ms)},
                    r));
    }
    t.print(std::cout);
  }

  std::cout << "\n--- Tomorrow's feed: 4K60 (~" << core::fmt(mar::VideoModel::uhd4k60().compressed_bps() / 1e6, 1)
            << " Mb/s per user; stereo/IR would double it) ---\n";
  {
    core::TablePrinter t({"users", "offered load", "median m2p", "p95", "frames", "on time",
                          "late", "never done", "75 ms miss"});
    for (int users : {5, 15, 25, 35}) {
      auto r = run_crowd(users, mar::VideoModel::uhd4k60());
      t.add_row(row({std::to_string(users), core::fmt(r.cell_load_pct, 0) + " %",
                     core::fmt_ms(r.median_ms), core::fmt_ms(r.p95_ms)},
                    r));
    }
    t.print(std::cout);
  }

  std::cout << "\n--- And the edge datacenter saturates too (720p feeds, 8-core edge) ---\n";
  {
    core::TablePrinter t({"users", "median m2p", "p95", "frames", "on time", "late",
                          "never done", "75 ms miss"});
    for (int users : {10, 40, 80}) {
      auto r = run_crowd(users, mar::VideoModel::hd720p30(), /*server_cores=*/8);
      t.add_row(row({std::to_string(users), core::fmt_ms(r.median_ms), core::fmt_ms(r.p95_ms)}, r));
    }
    t.print(std::cout);
    std::cout << "With per-message compute on a shared 8-core pool instead of\n"
                 "infinite capacity, the recognition workers clog before the radio\n"
                 "does — the edge *datacenter* needs dimensioning too (SVI-F).\n";
  }

  std::cout << "\nShape check vs the paper: the same cell that comfortably carries\n"
               "dozens of today's feeds hits its saturation cliff within a couple\n"
               "dozen next-generation feeds — \"only betting on the performance\n"
               "increase brought by 5G is, at best, delusive\" (SV).\n";
  return 0;
}
