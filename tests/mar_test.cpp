#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "arnet/check/assert.hpp"
#include "arnet/core/scenarios.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/mar/traffic.hpp"
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
  sim::Time offloaded = p_offloading(glasses, cloud, app, good, 1.0, 0.0);
  EXPECT_LT(offloaded, local);
  EXPECT_TRUE(meets_deadline(offloaded, app));
}

TEST(CostModel, OffloadingHurtsOnBadLinks) {
  AppParams app;
  LinkParams bad{1e6, milliseconds(150)};  // HSPA-like
  const auto& phone = device_profile(DeviceClass::kSmartphone);
  const auto& cloud = device_profile(DeviceClass::kCloud);
  sim::Time offloaded = p_offloading(phone, cloud, app, bad, 1.0, 0.0);
  EXPECT_FALSE(meets_deadline(offloaded, app));
  // The link dominates: latency alone blows the 75 ms budget.
  EXPECT_GT(offloaded, milliseconds(300));
}

TEST(CostModel, CachingReducesDbCost) {
  AppParams app;
  app.db_request_hz = 30.0;  // one fetch per frame
  LinkParams link{10e6, milliseconds(25)};
  const auto& phone = device_profile(DeviceClass::kSmartphone);
  sim::Time cold = p_local_external_db(phone, app, link, 0.0);
  sim::Time warm = p_local_external_db(phone, app, link, 0.9);
  sim::Time full = p_local_external_db(phone, app, link, 1.0);
  EXPECT_GT(cold, warm);
  EXPECT_GT(warm, full);
  EXPECT_EQ(full, p_local(phone, app));
}

TEST(CostModel, SplitParameterTradesComputeForBandwidth) {
  AppParams app;
  app.upload_bytes_per_frame = 120'000;  // full frame
  LinkParams thin{4e6, milliseconds(15)};
  const auto& phone = device_profile(DeviceClass::kSmartphone);
  const auto& cloud = device_profile(DeviceClass::kCloud);
  // On a thin link, doing feature extraction locally (y=0.75) beats
  // shipping whole frames (y=0).
  sim::Time ship_frames = p_offloading(phone, cloud, app, thin, 1.0, 0.0);
  sim::Time ship_features = p_offloading(phone, cloud, app, thin, 1.0, 0.75);
  EXPECT_LT(ship_features, ship_frames);
}

TEST(CostModel, BestStrategyPicksOffloadForGlasses) {
  AppParams app;
  LinkParams link{30e6, milliseconds(8)};
  auto best = best_strategy(device_profile(DeviceClass::kSmartGlasses),
                            device_profile(DeviceClass::kCloud), app, link, 1.0);
  EXPECT_EQ(best.kind, BestStrategy::Kind::kOffload);
  auto desk = best_strategy(device_profile(DeviceClass::kDesktop),
                            device_profile(DeviceClass::kCloud), app, link, 1.0);
  EXPECT_EQ(desk.kind, BestStrategy::Kind::kLocal);
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
