// Reproduces Figure 3 (from Heusse et al.): the impact of uploads on a TCP
// download sharing a congested asymmetric link with oversized uplink
// buffers. The download's ACKs queue behind upload data in the uplink
// buffer; its throughput collapses when uploads start.
//
// Ablations (paper §VI-B/H): (1) FQ-CoDel on the uplink instead of the
// oversized DropTail, (2) replacing the TCP upload with an ARTP
// delay-gradient upload, which backs off on queueing delay and leaves the
// download almost untouched.
#include <iostream>
#include <memory>

#include "arnet/core/table.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"

using namespace arnet;
using sim::milliseconds;
using sim::seconds;

namespace {

enum class UplinkKind { kDropTailBloated, kFqCodel };
enum class UploadKind { kTcp, kArtp };

struct RunResult {
  sim::TimeSeries download_mbps;
  double solo_avg = 0;     // [2, 10) s, download alone
  double one_up_avg = 0;   // [12, 25) s, one upload
  double two_up_avg = 0;   // [27, 40) s, two uploads
};

RunResult run(UplinkKind uplink_kind, UploadKind upload_kind) {
  sim::Simulator sim;
  net::Network net(sim, 42);
  auto client = net.add_node("client");
  auto server = net.add_node("server");

  // ADSL-like: 8 Mb/s down, 0.8 Mb/s up.
  net::Link::Config up;
  up.rate_bps = 0.8e6;
  up.delay = milliseconds(15);
  if (uplink_kind == UplinkKind::kDropTailBloated) {
    up.queue = std::make_unique<net::DropTailQueue>(1000);  // ~15 s of buffer
  } else {
    up.queue = std::make_unique<net::FqCoDelQueue>();
  }
  net::Link::Config down;
  down.rate_bps = 8e6;
  down.delay = milliseconds(15);
  down.queue_packets = 200;
  net.connect(client, server, std::move(up), std::move(down));

  // The download under test: server -> client.
  transport::TcpSink down_sink(net, client, 80);
  transport::TcpSource down_src(net, server, 2000, client, 80, 1);
  down_src.send_forever();

  // Uploads: client -> server.
  std::unique_ptr<transport::TcpSink> up_sink1, up_sink2;
  std::unique_ptr<transport::TcpSource> up_src1, up_src2;
  std::unique_ptr<transport::ArtpReceiver> artp_rx;
  std::unique_ptr<transport::ArtpSender> artp_tx1, artp_tx2;
  std::function<void()> artp_feed;  // CBR-ish offered load for ARTP uploads

  if (upload_kind == UploadKind::kTcp) {
    up_sink1 = std::make_unique<transport::TcpSink>(net, server, 81);
    up_sink2 = std::make_unique<transport::TcpSink>(net, server, 82);
    sim.at(seconds(10), [&] {
      up_src1 = std::make_unique<transport::TcpSource>(net, client, 2001, server, 81,
                                                       net::FlowId{2});
      up_src1->send_forever();
    });
    sim.at(seconds(25), [&] {
      up_src2 = std::make_unique<transport::TcpSource>(net, client, 2002, server, 82,
                                                       net::FlowId{3});
      up_src2->send_forever();
    });
  } else {
    artp_rx = std::make_unique<transport::ArtpReceiver>(net, server, 81);
    auto offer = [&sim](transport::ArtpSender& tx) {
      // Greedy upload: always more video data offered than the link fits.
      for (int i = 0; i < 2000; ++i) {
        sim.after(milliseconds(20) * i, [&tx] {
          transport::ArtpMessageSpec m;
          m.bytes = 4000;
          m.tclass = net::TrafficClass::kFullBestEffort;
          m.priority = net::Priority::kMediumNoDelay;
          m.app = net::AppData::kVideoInterFrame;
          m.stale_after = milliseconds(100);
          tx.send_message(m);
        });
      }
    };
    // `offer` must be captured by value: these events fire long after the
    // enclosing block has gone out of scope.
    sim.at(seconds(10), [&, offer] {
      artp_tx1 = std::make_unique<transport::ArtpSender>(net, client, 2001, server, 81,
                                                         net::FlowId{2},
                                                         transport::ArtpSenderConfig{});
      offer(*artp_tx1);
    });
    sim.at(seconds(25), [&, offer] {
      artp_tx2 = std::make_unique<transport::ArtpSender>(net, client, 2002, server, 81,
                                                         net::FlowId{3},
                                                         transport::ArtpSenderConfig{});
      offer(*artp_tx2);
    });
  }

  // Sample the download goodput once per second.
  RunResult result;
  for (int t = 1; t <= 40; ++t) {
    sim.at(seconds(t), [&, t] {
      down_sink.goodput().sample(sim.now());
      result.download_mbps.add(seconds(t), down_sink.goodput().series().points().back().second);
    });
  }
  sim.run_until(seconds(40));

  result.solo_avg = result.download_mbps.mean_in(seconds(2), seconds(10));
  result.one_up_avg = result.download_mbps.mean_in(seconds(12), seconds(25));
  result.two_up_avg = result.download_mbps.mean_in(seconds(27), seconds(40));
  return result;
}

const char* uplink_name(UplinkKind k) {
  return k == UplinkKind::kDropTailBloated ? "DropTail x1000 (bloated)" : "FQ-CoDel";
}
const char* upload_name(UploadKind k) { return k == UploadKind::kTcp ? "TCP" : "ARTP"; }

}  // namespace

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  std::cout << "=== Figure 3: uploads starving a TCP download on an asymmetric link ===\n"
            << "8 Mb/s down / 0.8 Mb/s up. Download runs alone until t=10 s; upload 1\n"
            << "starts at t=10 s, upload 2 at t=25 s.\n\n";

  core::TablePrinter t({"Uplink queue", "Upload kind", "download solo", "with 1 upload",
                        "with 2 uploads", "collapse"});
  RunResult baseline;
  for (auto uplink : {UplinkKind::kDropTailBloated, UplinkKind::kFqCodel}) {
    for (auto upload : {UploadKind::kTcp, UploadKind::kArtp}) {
      auto r = run(uplink, upload);
      if (uplink == UplinkKind::kDropTailBloated && upload == UploadKind::kTcp) baseline = r;
      double collapse = r.solo_avg > 0 ? (1.0 - r.two_up_avg / r.solo_avg) * 100 : 0;
      t.add_row({uplink_name(uplink), upload_name(upload), core::fmt_mbps(r.solo_avg * 1e6),
                 core::fmt_mbps(r.one_up_avg * 1e6), core::fmt_mbps(r.two_up_avg * 1e6),
                 core::fmt(collapse, 0) + " %"});
    }
  }
  t.print(std::cout);

  std::cout << "\nDownload goodput over time (bloated DropTail + TCP uploads — the\n"
               "figure's continuous line):\n  t(s):  Mb/s\n";
  for (const auto& [ts, v] : baseline.download_mbps.points()) {
    int tsec = static_cast<int>(sim::to_seconds(ts));
    if (tsec % 2 == 0) {
      std::cout << "  " << tsec << (tsec < 10 ? "   : " : "  : ") << core::fmt(v, 2);
      if (tsec == 10 || tsec == 26) std::cout << "   <- upload starts";
      std::cout << "\n";
    }
  }
  std::cout << "\nShape check vs the paper: with the oversized uplink buffer the\n"
               "download collapses by an order of magnitude once uploads start; an\n"
               "AQM uplink or a delay-gradient (ARTP) upload avoids the collapse.\n";
  return 0;
}
