// Smart glasses with a companion smartphone (paper §III-B, Fig. 5d): the
// glasses cannot even run feature extraction in time, so latency-critical
// work goes to the phone over WiFi Direct while heavy recognition rides LTE
// to the cloud — and the multipath policies of §VI-D decide what happens
// when the user walks out of D2D range.
//
//   $ ./glasses_companion
#include <iostream>

#include "arnet/core/table.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/d2d.hpp"

using namespace arnet;
using net::AppData;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  // Why the glasses must offload at all, from the paper's cost model:
  const auto& glasses = mar::device_profile(mar::DeviceClass::kSmartGlasses);
  const auto& phone_dev = mar::device_profile(mar::DeviceClass::kSmartphone);
  mar::AppParams app;
  std::cout << "P_local on " << glasses.name << ": "
            << core::fmt_ms(sim::to_milliseconds(mar::p_local(glasses, app)))
            << " per frame vs a " << core::fmt_ms(sim::to_milliseconds(app.deadline), 0)
            << " budget -> offloading is mandatory.\n\n";

  sim::Simulator sim;
  net::Network net(sim, 77);
  auto gl = net.add_node("glasses");
  auto phone = net.add_node("phone");
  auto enb = net.add_node("enb");
  auto cloud = net.add_node("cloud");

  // WiFi Direct to the phone in the pocket (2 m), and LTE to the cloud.
  auto d2d_cfg = [] { return wireless::d2d_link_config(wireless::D2dTechnology::kWifiDirect, 2.0, 0.5); };
  auto [d2d_up, d2d_down] = net.connect(gl, phone, d2d_cfg(), d2d_cfg());
  (void)d2d_down;
  auto att = wireless::attach_cellular(net, gl, enb, wireless::CellularProfile::lte(), 3);
  // The phone also has LTE, so during a D2D outage the assist stream can
  // reach it through the operator network (glasses -> eNB -> phone).
  auto phone_att = wireless::attach_cellular(net, phone, enb, wireless::CellularProfile::lte(), 4);
  net.connect(enb, cloud, 10e9, milliseconds(14), 1000);
  net.compute_routes();
  att.modulator->start();
  phone_att.modulator->start();

  // The phone processes assist requests; the cloud does recognition.
  transport::ArtpReceiver phone_rx(net, phone, 80);
  sim::Samples assist_ms;
  sim::Time assist_compute = mar::scaled_cost(phone_dev, milliseconds(2));
  phone_rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (d.complete) assist_ms.add(sim::to_milliseconds(d.latency() + assist_compute));
  });
  transport::ArtpReceiver cloud_rx(net, cloud, 80);
  sim::Samples recog_ms;
  cloud_rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (d.complete) recog_ms.add(sim::to_milliseconds(d.latency() + milliseconds(2)));
  });

  // Multipath sender toward the phone, LTE as fallback when D2D drops out
  // (handover policy): when the user leaves the phone on a table and walks
  // off, the assist stream fails over to the cloud path.
  transport::ArtpSenderConfig assist_cfg;
  assist_cfg.policy = transport::MultipathPolicy::kHandoverOnly;
  std::vector<transport::ArtpPathConfig> assist_paths;
  transport::ArtpPathConfig p0;
  p0.first_hop = d2d_up;
  p0.name = "wifi-direct";
  assist_paths.push_back(std::move(p0));
  transport::ArtpPathConfig p1;
  p1.first_hop = att.uplink;
  p1.name = "lte";
  assist_paths.push_back(std::move(p1));
  transport::ArtpSender assist_tx(net, gl, 1000, phone, 80, 1, assist_cfg,
                                  std::move(assist_paths));
  transport::ArtpSender recog_tx(net, gl, 1001, cloud, 80, 2, transport::ArtpSenderConfig{});

  // 30 Hz assist ops (small), 5 Hz recognition batches (large).
  for (int i = 0; i < 30 * 30; ++i) {
    sim.at(sim::from_seconds(i / 30.0), [&, i] {
      transport::ArtpMessageSpec m;
      m.bytes = 2000;
      m.tclass = TrafficClass::kCriticalData;
      m.priority = Priority::kHighest;
      m.app = AppData::kFeaturePayload;
      m.frame_id = static_cast<std::uint32_t>(i);
      assist_tx.send_message(m);
    });
  }
  for (int i = 0; i < 5 * 30; ++i) {
    sim.at(milliseconds(200) * i, [&, i] {
      transport::ArtpMessageSpec m;
      m.bytes = 25'000;
      m.tclass = TrafficClass::kBestEffortLossRecovery;
      m.priority = Priority::kMediumNoDrop;
      m.app = AppData::kVideoReferenceFrame;
      m.frame_id = static_cast<std::uint32_t>(i);
      recog_tx.send_message(m);
    });
  }

  // At t=12 s the user walks out of WiFi Direct range for 8 s.
  sim.at(seconds(12), [&, l = d2d_up] { l->set_up(false); });
  sim.at(seconds(20), [&, l = d2d_up] { l->set_up(true); });

  sim.run_until(seconds(32));

  std::cout << "=== 30 s session; D2D outage from t=12 s to t=20 s ===\n";
  core::TablePrinter t({"Stream", "processor", "delivered", "median", "p95"});
  t.add_row({"assist ops (30 Hz, critical)", "phone via WiFi Direct",
             core::fmt(assist_ms.count() / 900.0 * 100, 1) + " %",
             core::fmt_ms(assist_ms.median()), core::fmt_ms(assist_ms.percentile(0.95))});
  t.add_row({"recognition (5 Hz, heavy)", "cloud via LTE",
             core::fmt(recog_ms.count() / 150.0 * 100, 1) + " %",
             core::fmt_ms(recog_ms.median()), core::fmt_ms(recog_ms.percentile(0.95))});
  t.print(std::cout);

  std::cout << "\nD2D bytes: " << core::fmt(assist_tx.path_sent_bytes(0) / 1e6, 2)
            << " MB, LTE fallback bytes: " << core::fmt(assist_tx.path_sent_bytes(1) / 1e6, 2)
            << " MB\n"
            << "\nDuring the outage the critical assist stream fails over to LTE\n"
               "(higher latency, but no interruption) and returns to WiFi Direct\n"
               "when the phone is back in range — the paper's Fig. 5d in motion.\n";
  return 0;
}
