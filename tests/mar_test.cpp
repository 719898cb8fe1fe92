#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "arnet/check/assert.hpp"
#include "arnet/core/scenarios.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/mar/traffic.hpp"
#include "arnet/mar/workloads.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "golden.hpp"

namespace arnet::mar {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(Device, TableOneHasSixClasses) {
  const auto& all = all_device_profiles();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front().name, "Smart glasses");
  EXPECT_EQ(all.back().name, "Cloud computing");
}

TEST(Device, ComputeScalesAreMonotonic) {
  // Table I orders devices by growing computing power.
  const auto& all = all_device_profiles();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i].compute_scale, all[i - 1].compute_scale)
        << all[i].name << " should be at least as fast as " << all[i - 1].name;
  }
}

TEST(Device, ScaledCostMultiplies) {
  const auto& glasses = device_profile(DeviceClass::kSmartGlasses);
  EXPECT_EQ(scaled_cost(glasses, milliseconds(4)), milliseconds(160));
  const auto& cloud = device_profile(DeviceClass::kCloud);
  EXPECT_LT(scaled_cost(cloud, milliseconds(4)), milliseconds(4));
}

TEST(Video, PaperBitrates) {
  VideoModel uhd = VideoModel::uhd4k60();
  // The paper's §III-B raw figure: 4K 60 FPS 12 bpp ~= several Gb/s raw...
  EXPECT_NEAR(uhd.raw_bps() / 1e9, 5.97, 0.1);
  // ...and 20-30 Mb/s once lossy-compressed.
  EXPECT_GT(uhd.compressed_bps() / 1e6, 20.0);
  EXPECT_LT(uhd.compressed_bps() / 1e6, 30.0);
}

TEST(Video, GopStructure) {
  VideoModel v = VideoModel::hd720p30();
  EXPECT_TRUE(v.is_reference(0));
  EXPECT_FALSE(v.is_reference(1));
  EXPECT_TRUE(v.is_reference(static_cast<std::uint32_t>(v.gop)));
  EXPECT_GT(v.ref_frame_bytes(), v.inter_frame_bytes());
  EXPECT_EQ(v.frame_interval(), sim::from_seconds(1.0 / 30.0));
}

TEST(CostModel, GlassesCannotRunVisionLocally) {
  AppParams app;  // 30 FPS, 4 ms reference work, 75 ms budget
  const auto& glasses = device_profile(DeviceClass::kSmartGlasses);
  const auto& desktop = device_profile(DeviceClass::kDesktop);
  EXPECT_FALSE(meets_deadline(p_local(glasses, app), app));
  EXPECT_TRUE(meets_deadline(p_local(desktop, app), app));
}

TEST(CostModel, OffloadingHelpsWeakDevicesOnGoodLinks) {
  AppParams app;
  LinkParams good{50e6, milliseconds(10)};
  const auto& glasses = device_profile(DeviceClass::kSmartGlasses);
  const auto& cloud = device_profile(DeviceClass::kCloud);
  sim::Time local = p_local(glasses, app);
  sim::Time offloaded = p_offloading(glasses, cloud, app, good, 0.0);
  EXPECT_LT(offloaded, local);
  EXPECT_TRUE(meets_deadline(offloaded, app));
}

TEST(CostModel, OffloadingHurtsOnBadLinks) {
  AppParams app;
  LinkParams bad{1e6, milliseconds(150)};  // HSPA-like
  const auto& phone = device_profile(DeviceClass::kSmartphone);
  const auto& cloud = device_profile(DeviceClass::kCloud);
  sim::Time offloaded = p_offloading(phone, cloud, app, bad, 0.0);
  EXPECT_FALSE(meets_deadline(offloaded, app));
  // The link dominates: latency alone blows the 75 ms budget.
  EXPECT_GT(offloaded, milliseconds(300));
}

TEST(CostModel, SplitParameterTradesComputeForBandwidth) {
  AppParams app;
  app.upload_bytes_per_frame = 120'000;  // full frame
  LinkParams thin{4e6, milliseconds(15)};
  const auto& phone = device_profile(DeviceClass::kSmartphone);
  const auto& cloud = device_profile(DeviceClass::kCloud);
  // On a thin link, doing feature extraction locally (y=0.75) beats
  // shipping whole frames (y=0).
  sim::Time ship_frames = p_offloading(phone, cloud, app, thin, 0.0);
  sim::Time ship_features = p_offloading(phone, cloud, app, thin, 0.75);
  EXPECT_LT(ship_features, ship_frames);
}

// P_local, then P_offloading at split_y 0, 0.25, 0.5 and 0.75 on the edge
// link fig1_workloads and table1_devices price (30 Mb/s, 8 ms one way) and
// on the default LinkParams, in ns, for each Table I device under the
// default app and each Figure 1 workload. Recorded before the CloudRidAR
// stage table replaced AppParams' literals.
TEST(CostModel, LatencyGoldens) {
  struct App {
    const char* name;
    AppParams params;
  };
  const App apps[] = {{"default", AppParams{}},
                      {"orientation", workload(MarUseCase::kOrientation).app_params()},
                      {"memorial", workload(MarUseCase::kVirtualMemorial).app_params()},
                      {"gaming", workload(MarUseCase::kGaming).app_params()},
                      {"art", workload(MarUseCase::kArt).app_params()}};
  const LinkParams links[] = {{30e6, milliseconds(8)}, {}};
  const DeviceProfile& cloud = device_profile(DeviceClass::kCloud);
  auto offload = [&cloud](const DeviceProfile& d, const AppParams& app, const LinkParams& link,
                          double y) { return p_offloading(d, cloud, app, link, y); };
  const char* const goldens[] = {
      "default Smart glasses 160000000 25706666 63606666 101506666 139406666 "
      "65920000 100420000 134920000 169420000",
      "default Smartphone 40000000 25706666 33606666 41506666 49406666 "
      "65920000 70420000 74920000 79420000",
      "default Tablet PC 24000000 25706666 29606666 33506666 37406666 "
      "65920000 66420000 66920000 67420000",
      "default Laptop PC 8000000 25706666 25606666 25506666 25406666 "
      "65920000 62420000 58920000 55420000",
      "default Desktop PC 4000000 25706666 24606666 23506666 22406666 "
      "65920000 61420000 56920000 52420000",
      "default Cloud computing 1600000 25706666 24006666 22306666 20606666 "
      "65920000 60820000 55720000 50620000",
      "orientation Smart glasses 160000000 19434666 58667466 97899999 137133066 "
      "47104000 85602400 124100000 162599200",
      "orientation Smartphone 40000000 19434666 28667466 37899999 47133066 "
      "47104000 55602400 64100000 72599200",
      "orientation Tablet PC 24000000 19434666 24667466 29899999 35133066 "
      "47104000 51602400 56100000 60599200",
      "orientation Laptop PC 8000000 19434666 20667466 21899999 23133066 "
      "47104000 47602400 48100000 48599200",
      "orientation Desktop PC 4000000 19434666 19667466 19899999 20133066 "
      "47104000 46602400 46100000 45599200",
      "orientation Cloud computing 1600000 19434666 19067466 18699999 18333066 "
      "47104000 46002400 44900000 43799200",
      "memorial Smart glasses 120000000 18842666 48216266 77589599 106963466 "
      "46128000 74848800 103568800 132290400",
      "memorial Smartphone 30000000 18842666 25716266 32589599 39463466 "
      "46128000 52348800 58568800 64790400",
      "memorial Tablet PC 18000000 18842666 22716266 26589599 30463466 "
      "46128000 49348800 52568800 55790400",
      "memorial Laptop PC 6000000 18842666 19716266 20589599 21463466 "
      "46128000 46348800 46568800 46790400",
      "memorial Desktop PC 3000000 18842666 18966266 19089599 19213466 "
      "46128000 45598800 45068800 44540400",
      "memorial Cloud computing 1200000 18842666 18516266 18189599 17863466 "
      "46128000 45148800 44168800 43190400",
      "gaming Smart glasses 240000000 21578666 80325866 139072799 197820266 "
      "51936000 109377600 166818400 224260800",
      "gaming Smartphone 60000000 21578666 35325866 49072799 62820266 "
      "51936000 64377600 76818400 89260800",
      "gaming Tablet PC 36000000 21578666 29325866 37072799 44820266 "
      "51936000 58377600 64818400 71260800",
      "gaming Laptop PC 12000000 21578666 23325866 25072799 26820266 "
      "51936000 52377600 52818400 53260800",
      "gaming Desktop PC 6000000 21578666 21825866 22072799 22320266 "
      "51936000 50877600 49818400 48760800",
      "gaming Cloud computing 2400000 21578666 20925866 20272799 19620266 "
      "51936000 49977600 48018400 46060800",
      "art Smart glasses 200000000 21178666 70025866 118872799 167720266 "
      "51536000 99077600 146618400 194160800",
      "art Smartphone 50000000 21178666 32525866 43872799 55220266 "
      "51536000 61577600 71618400 81660800",
      "art Tablet PC 30000000 21178666 27525866 33872799 40220266 "
      "51536000 56577600 61618400 66660800",
      "art Laptop PC 10000000 21178666 22525866 23872799 25220266 "
      "51536000 51577600 51618400 51660800",
      "art Desktop PC 5000000 21178666 21275866 21372799 21470266 "
      "51536000 50327600 49118400 47910800",
      "art Cloud computing 2000000 21178666 20525866 19872799 19220266 "
      "51536000 49577600 47618400 45660800",
  };
  std::size_t row = 0;
  for (const App& app : apps) {
    for (const DeviceProfile& d : all_device_profiles()) {
      golden::Row r;
      r.s(app.name).s(d.name).i(p_local(d, app.params));
      for (const LinkParams& link : links) {
        for (double y : {0.0, 0.25, 0.5, 0.75}) r.i(offload(d, app.params, link, y));
      }
      ASSERT_LT(row, std::size(goldens));
      EXPECT_EQ(r.str(), goldens[row]) << "row " << row;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(goldens));
}

// ROADMAP item 18 step 2: the analytic offload_latency against the simulated
// session it summarizes. For each Table II deployment, a smartphone
// CloudRidAR session's median motion-to-photon time (seed 43, 20 s, as
// table2_offload_rtt's extension runs it) is compared with offload_latency
// fed the session's own stages, run_ping's median RTT (seed 42, 200 probes,
// as Table II measures it) and the client's access-link rate, the
// scenario's bottleneck. Each band bounds the simulated / analytic ratio:
// at least 1 (the sum leaves out headers, pacing and queueing), and at most
// twice the gap measured when the bands were set (x1.032, x1.021, x1.014
// and x1.052; EXPERIMENTS.md E1).
TEST(CostModel, AnalyticLatencyTracksSimulatedSession) {
  struct Cell {
    core::Table2Setup setup;
    double max_ratio;
  };
  const Cell cells[] = {
      {core::Table2Setup::kLocalServerWifi, 1.065},
      {core::Table2Setup::kCloudServerWifi, 1.045},
      {core::Table2Setup::kUniversityServerWifi, 1.03},
      {core::Table2Setup::kCloudServerLte, 1.105},
  };
  for (const Cell& c : cells) {
    core::Scenario probe = core::make_table2_scenario(c.setup, 42);
    probe.start_dynamics();
    const double rtt_ms = core::run_ping(probe, 200, milliseconds(50)).rtt_ms.median();

    core::Scenario sc = core::make_table2_scenario(c.setup, 43);
    double bottleneck_bps = std::numeric_limits<double>::infinity();
    for (net::NodeId n = 0; n < sc.net->node_count(); ++n) {
      if (net::Link* l = sc.net->link_between(sc.client, n)) {
        bottleneck_bps = std::min(bottleneck_bps, l->rate_bps());
      }
    }
    sc.start_dynamics();
    OffloadConfig cfg;
    cfg.strategy = OffloadStrategy::kCloudRidAR;
    cfg.device = DeviceClass::kSmartphone;
    OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    const sim::Time analytic = offload_latency(
        session.stages(OffloadStrategy::kCloudRidAR, 0),
        {bottleneck_bps, sim::from_seconds(rtt_ms / 2e3)});
    session.start();
    sc.sim->run_until(seconds(20));
    session.stop();
    const double simulated_ms = session.stats().latency_ms.median();
    const double ratio = simulated_ms / sim::to_milliseconds(analytic);
    std::printf("[ analytic ] %s: rtt %.2f ms, %.1f Mb/s, analytic %.2f ms, simulated %.2f ms\n",
                core::to_string(c.setup), rtt_ms, bottleneck_bps / 1e6,
                sim::to_milliseconds(analytic), simulated_ms);
    EXPECT_GE(ratio, 1.0) << core::to_string(c.setup);
    EXPECT_LE(ratio, c.max_ratio) << core::to_string(c.setup);
  }
}

// ------------------------------------------------------- OffloadSession

struct SessionFixture {
  sim::Simulator sim;
  net::Network net{sim, 21};
  net::NodeId client, server;

  SessionFixture(double rate_bps = 30e6, sim::Time delay = milliseconds(8)) {
    client = net.add_node("client");
    server = net.add_node("edge");
    net.connect(client, server, rate_bps, delay, 500);
  }

  OffloadStats run(OffloadConfig cfg, sim::Time dur = seconds(10)) {
    OffloadSession session(net, client, server, cfg);
    session.start();
    sim.run_until(sim.now() + dur);
    session.stop();
    return session.stats();
  }
};

TEST(OffloadSession, CloudRidArMeetsDeadlineOnEdgeLink) {
  SessionFixture f;
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kCloudRidAR;
  cfg.device = DeviceClass::kSmartphone;
  auto stats = f.run(cfg);
  EXPECT_GT(stats.results, 250);  // ~300 frames in 10 s
  EXPECT_LT(stats.miss_rate(), 0.1);
  EXPECT_LT(stats.latency_ms.median(), 75.0);
  EXPECT_GT(stats.uplink_bytes, 0);
}

TEST(OffloadSession, LocalOnlyOnGlassesMissesEveryDeadline) {
  SessionFixture f;
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kLocalOnly;
  cfg.device = DeviceClass::kSmartGlasses;
  auto stats = f.run(cfg, seconds(5));
  EXPECT_GT(stats.results, 10);
  EXPECT_GT(stats.miss_rate(), 0.9);  // 280 ms compute vs 75 ms budget
  EXPECT_EQ(stats.uplink_bytes, 0);
}

TEST(OffloadSession, LocalOnlyOnDesktopIsFast) {
  SessionFixture f;
  OffloadConfig cfg;
  cfg.strategy = OffloadStrategy::kLocalOnly;
  cfg.device = DeviceClass::kDesktop;
  auto stats = f.run(cfg, seconds(5));
  EXPECT_LT(stats.miss_rate(), 0.01);
  EXPECT_LT(stats.latency_ms.median(), 10.0);
}

TEST(OffloadSession, GlimpseReducesUplinkVsCloudRidAr) {
  SessionFixture f1, f2;
  OffloadConfig a;
  a.strategy = OffloadStrategy::kCloudRidAR;
  OffloadConfig b;
  b.strategy = OffloadStrategy::kGlimpse;
  b.glimpse_offload_interval = 5;
  auto sa = f1.run(a);
  auto sb = f2.run(b);
  EXPECT_LT(sb.uplink_bytes, sa.uplink_bytes / 3);
  EXPECT_LT(sb.offloaded_frames, sa.offloaded_frames / 3);
  // Tracked frames respond almost instantly, so Glimpse's median is lower.
  EXPECT_LT(sb.latency_ms.median(), sa.latency_ms.median());
}

TEST(OffloadSession, NonPositiveModuliAreRejected) {
  // The fixed Glimpse trigger and the GOP phase both take `frame_id % n`:
  // 0 would divide by zero and a negative n would wrap to a huge modulus.
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  SessionFixture f;
  for (int bad : {0, -1}) {
    OffloadConfig interval;
    interval.glimpse_offload_interval = bad;
    EXPECT_THROW(OffloadSession(f.net, f.client, f.server, interval), check::CheckError) << bad;
    OffloadConfig gop;
    gop.video.gop = bad;
    EXPECT_THROW(OffloadSession(f.net, f.client, f.server, gop), check::CheckError) << bad;
  }
}

TEST(OffloadSession, FullOffloadNeedsMoreBandwidth) {
  // On a 4 Mb/s uplink the feature stream (~3.5 Mb/s) squeezes by while
  // whole frames (~4.4 Mb/s + FEC) congest and blow the tail latency.
  SessionFixture f1(4e6, milliseconds(8)), f2(4e6, milliseconds(8));
  OffloadConfig frames;
  frames.strategy = OffloadStrategy::kFullOffload;
  OffloadConfig feats;
  feats.strategy = OffloadStrategy::kCloudRidAR;
  auto sf = f1.run(frames);
  auto sc = f2.run(feats);
  EXPECT_GT(sf.uplink_bytes, sc.uplink_bytes);
  EXPECT_GT(sf.latency_ms.percentile(0.9), sc.latency_ms.percentile(0.9));
}

TEST(OffloadSession, GlassesOffloadingBeatsLocal) {
  // The paper's central claim quantified: offloading rescues weak hardware.
  SessionFixture f1, f2;
  OffloadConfig local;
  local.strategy = OffloadStrategy::kLocalOnly;
  local.device = DeviceClass::kSmartGlasses;
  // Glasses are too weak even for on-device feature extraction (40x the
  // desktop cost blows the budget by itself) — the paper's motivation for
  // offloading *everything* from wearables. Ship compressed frames instead.
  OffloadConfig off;
  off.strategy = OffloadStrategy::kFullOffload;
  off.device = DeviceClass::kSmartGlasses;
  auto sl = f1.run(local, seconds(5));
  auto so = f2.run(off, seconds(5));
  EXPECT_LT(so.latency_ms.median(), sl.latency_ms.median());
  EXPECT_LT(so.miss_rate(), sl.miss_rate());
  EXPECT_EQ(sl.miss_rate(), 1.0);
}

TEST(OffloadSession, EnergyAccountingIsPositiveAndStrategyDependent) {
  SessionFixture f1, f2;
  OffloadConfig local;
  local.strategy = OffloadStrategy::kLocalOnly;
  local.device = DeviceClass::kSmartphone;
  OffloadConfig off;
  off.strategy = OffloadStrategy::kCloudRidAR;
  off.device = DeviceClass::kSmartphone;
  auto sl = f1.run(local, seconds(5));
  auto so = f2.run(off, seconds(5));
  EXPECT_GT(sl.energy_j, 0.0);
  EXPECT_GT(so.energy_j, 0.0);
  // Local runs extract+recognize on-device; offload only extract.
  EXPECT_GT(sl.energy_j, so.energy_j);
}

// Counts, uplink bytes, energy, latency summary and miss rate of the four
// Table II CloudRidAR sessions (seed 43, 10 s), doubles as hex floats.
// Recorded at commit 06c5a9a, before OffloadStats counted frames through
// sim::FrameLedger.
TEST(Offload, SessionStatsGoldens) {
  struct Golden {
    core::Table2Setup setup;
    const char* row;
  };
  const Golden goldens[] = {
      {core::Table2Setup::kLocalServerWifi,
       "301 297 16 299 4305600 0x1.8147ae147ade7p+5 0x1.d279e91888504p+5 "
       "0x1.a5b4d37c1376dp+5 0x1.3f4cfa69be09cp+7 0x1.b2cf4adbc664dp+5 "
       "0x1.c05faa39facd9p+5 0x1.11338fd0c2fbep+7 0x1.b951e2b18ff23p-5"},
      {core::Table2Setup::kCloudServerWifi,
       "301 296 296 299 4305600 0x1.8147ae147ade7p+5 0x1.5920f9588bb82p+6 "
       "0x1.407f7b5aea316p+6 0x1.8a1f8316a0557p+7 0x1.470cb6e935b92p+6 "
       "0x1.4dd4e6c093d96p+6 0x1.5c6fc1000ff04p+7 0x1p+0"},
      {core::Table2Setup::kUniversityServerWifi,
       "301 293 293 299 4305600 0x1.8147ae147ade7p+5 0x1.f4c648bf4f9d1p+6 "
       "0x1.e081c68ec52a4p+6 0x1.b8e3e6c4c5975p+7 0x1.e70f023e9ea14p+6 "
       "0x1.edd731c574e9bp+6 0x1.9d89106a3075p+7 0x1p+0"},
      {core::Table2Setup::kCloudServerLte,
       "301 288 288 299 4305600 0x1.8147ae147ade7p+5 0x1.95295455219a6p+7 "
       "0x1.5b9f062d40aafp+7 0x1.23c5de37585bep+8 0x1.83c4a4e379b78p+7 "
       "0x1.e3260f619cd3p+7 0x1.105a731d2e0e2p+8 0x1p+0"},
  };
  for (const Golden& g : goldens) {
    core::Scenario sc = core::make_table2_scenario(g.setup, 43);
    sc.start_dynamics();
    OffloadConfig cfg;
    cfg.strategy = OffloadStrategy::kCloudRidAR;
    cfg.device = DeviceClass::kSmartphone;
    OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    session.start();
    sc.sim->run_until(seconds(10));
    session.stop();
    const OffloadStats& st = session.stats();
    golden::Row row;
    for (std::int64_t n : {st.frames, st.results, st.deadline_misses, st.offloaded_frames,
                           st.uplink_bytes}) {
      row.i(n);
    }
    for (double v : {st.energy_j, st.latency_ms.mean(), st.latency_ms.min(),
                     st.latency_ms.max(), st.latency_ms.median(),
                     st.latency_ms.percentile(0.90), st.latency_ms.percentile(0.99),
                     st.miss_rate()}) {
      row.d(v);
    }
    EXPECT_EQ(row.str(), g.row) << core::to_string(g.setup);
  }
}

}  // namespace
}  // namespace arnet::mar
