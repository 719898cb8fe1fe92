// Reproduces the §VI-G security & privacy analysis as an ablation: the
// cost of protecting the user across privacy levels (I-PIC-style) and
// transport encryption, measured on the REAL vision pipeline (what survives
// redaction?) and on the offloading session (what do crypto bytes and AEAD
// compute do to the 75 ms budget, per device class?).
#include <iostream>

#include "arnet/core/table.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/mar/security.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/vision/pipeline.hpp"
#include "arnet/vision/privacy.hpp"

using namespace arnet;

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::ReportTee tee(flags.str("--out-dir"), "sec6_privacy_report.txt");
  std::cout << "=== SVI-G: privacy-preserving offloading ===\n\n"
            << "--- What each privacy level does to recognition (50 sightings) ---\n";
  {
    core::TablePrinter t({"Privacy level", "recognized", "mean inliers", "regions redacted",
                          "pixels leave device?"});
    for (auto level : {vision::PrivacyLevel::kNone, vision::PrivacyLevel::kBlurSensitive,
                       vision::PrivacyLevel::kBlurAll, vision::PrivacyLevel::kFeaturesOnly}) {
      sim::Rng rng(2017);
      vision::ObjectDatabase db;
      std::vector<vision::Image> refs;
      vision::SceneParams params;
      params.shapes = 30;
      for (int i = 0; i < 3; ++i) {
        std::vector<vision::SensitiveRegion> truth;
        refs.push_back(vision::render_scene_with_sensitive(rng, params, 2, 1, truth));
        db.add_object("obj" + std::to_string(i), refs.back());
      }
      vision::RecognitionPipeline pipe;
      sim::Rng rrng(7);
      int recognized = 0, redactions = 0;
      double inliers = 0;
      const int kSightings = 50;
      for (int i = 0; i < kSightings; ++i) {
        const std::uint64_t frame_seed = static_cast<std::uint64_t>(300 + i);
        sim::Rng mrng(frame_seed);
        vision::Image frame =
            vision::warp_image(refs[static_cast<std::size_t>(i % 3)],
                               vision::random_camera_motion(mrng, 0.5));
        redactions += vision::apply_privacy(frame, level);
        auto result = pipe.recognize_frame(frame, db, rrng);
        if (result && result->object_id == i % 3) {
          ++recognized;
          inliers += result->inliers;
        }
      }
      t.add_row({vision::to_string(level),
                 std::to_string(recognized) + "/" + std::to_string(kSightings),
                 core::fmt(recognized ? inliers / recognized : 0.0, 0),
                 std::to_string(redactions),
                 level == vision::PrivacyLevel::kNone || level == vision::PrivacyLevel::kBlurAll
                     ? (level == vision::PrivacyLevel::kNone ? "yes (raw)" : "yes (blurred)")
                     : (level == vision::PrivacyLevel::kBlurSensitive ? "yes (redacted)"
                                                                      : "no")});
    }
    t.print(std::cout);
  }

  std::cout << "\n--- Transport encryption cost on the offloading session ---\n";
  {
    core::TablePrinter t({"Device", "crypto", "median m2p", "75 ms miss", "uplink overhead"});
    for (auto device : {mar::DeviceClass::kSmartphone, mar::DeviceClass::kSmartGlasses}) {
      std::int64_t plain_bytes = 0;
      for (auto crypto : {mar::CryptoProfile::kNone, mar::CryptoProfile::kAes128Gcm,
                          mar::CryptoProfile::kAes256Gcm}) {
        sim::Simulator sim;
        net::Network net(sim, 3);
        auto c = net.add_node("client");
        auto s = net.add_node("edge");
        net.connect(c, s, 30e6, sim::milliseconds(8), 500);
        mar::OffloadConfig cfg;
        cfg.strategy = mar::OffloadStrategy::kFullOffload;
        cfg.device = device;
        cfg.crypto = crypto;
        mar::OffloadSession session(net, c, s, cfg);
        session.start();
        sim.run_until(sim::seconds(15));
        session.stop();
        const auto& st = session.stats();
        std::int64_t wire = session.uplink().sent_bytes();
        if (crypto == mar::CryptoProfile::kNone) plain_bytes = wire;
        double overhead =
            plain_bytes ? (static_cast<double>(wire) / plain_bytes - 1.0) * 100 : 0.0;
        const core::FrameCells cells = core::fmt_frames(st);
        t.add_row({mar::device_profile(device).name, mar::to_string(crypto), cells.median,
                   cells.miss, "+" + core::fmt(overhead, 1) + " %"});
      }
    }
    t.print(std::cout);
  }

  std::cout << "\nReading: redacting faces/plates before transmission (the paper's\n"
               "minimum) keeps recognition intact — the discriminative texture lives\n"
               "outside the sensitive regions — while whole-frame blurring kills the\n"
               "application. Encryption costs a few percent of uplink and a small\n"
               "latency bump that grows on weak hardware (SVI-G's trade-off between\n"
               "privacy and the amount of data required for proper behavior).\n";
  return 0;
}
