#include <gtest/gtest.h>

#include <sstream>

#include "arnet/core/scenarios.hpp"
#include "arnet/core/table.hpp"

namespace arnet::core {
namespace {

using sim::milliseconds;

TEST(Table, RendersAlignedAscii) {
  TablePrinter t({"Setup", "RTT"});
  t.add_row({"Local server / WiFi", "8 ms"});
  t.add_row({"Cloud server / LTE", "120 ms"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("| Setup"), std::string::npos);
  EXPECT_NE(s.find("| Cloud server / LTE"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
  // All lines have equal width.
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_mbps(25e6, 1), "25.0 Mb/s");
  EXPECT_EQ(fmt_ms(8.25, 1), "8.2 ms");
}

// A session that completed no frame has no median and no miss rate; its
// cells say so instead of printing 0.0 ms and 0.0 %.
TEST(Table, EmptyLedgerFormatsAsNa) {
  sim::FrameLedger ledger;
  ledger.frames = 600;
  FrameCells empty = fmt_frames(ledger);
  EXPECT_EQ(empty.median, "n/a");
  EXPECT_EQ(empty.p95, "n/a");
  EXPECT_EQ(empty.miss, "n/a");
  ledger.complete(sim::milliseconds(40), sim::milliseconds(75));
  ledger.complete(sim::milliseconds(80), sim::milliseconds(75));
  FrameCells two = fmt_frames(ledger, 2);
  EXPECT_EQ(two.median, "60.0 ms");
  EXPECT_EQ(two.p95, "78.0 ms");
  EXPECT_EQ(two.miss, "50.00 %");
}

double median_rtt(Table2Setup setup) {
  auto sc = make_table2_scenario(setup, 42);
  sc.start_dynamics();
  auto ping = run_ping(sc, 50, milliseconds(100));
  EXPECT_GT(ping.received, 40) << to_string(setup);
  return ping.rtt_ms.median();
}

TEST(Table2Scenarios, LocalWifiNearEightMs) {
  double rtt = median_rtt(Table2Setup::kLocalServerWifi);
  EXPECT_GT(rtt, 5.0);
  EXPECT_LT(rtt, 11.0);
}

TEST(Table2Scenarios, CloudWifiNearThirtySixMs) {
  double rtt = median_rtt(Table2Setup::kCloudServerWifi);
  EXPECT_GT(rtt, 30.0);
  EXPECT_LT(rtt, 43.0);
}

TEST(Table2Scenarios, UniversityNearSeventyTwoMs) {
  double rtt = median_rtt(Table2Setup::kUniversityServerWifi);
  EXPECT_GT(rtt, 62.0);
  EXPECT_LT(rtt, 82.0);
}

TEST(Table2Scenarios, CloudLteNearHundredTwentyMs) {
  double rtt = median_rtt(Table2Setup::kCloudServerLte);
  EXPECT_GT(rtt, 100.0);
  EXPECT_LT(rtt, 145.0);
}

TEST(Table2Scenarios, OrderingMatchesPaper) {
  double local = median_rtt(Table2Setup::kLocalServerWifi);
  double cloud = median_rtt(Table2Setup::kCloudServerWifi);
  double univ = median_rtt(Table2Setup::kUniversityServerWifi);
  double lte = median_rtt(Table2Setup::kCloudServerLte);
  EXPECT_LT(local, cloud);
  EXPECT_LT(cloud, univ);
  EXPECT_LT(univ, lte);
}

TEST(Table2Scenarios, DeterministicPerSeed) {
  auto a = make_table2_scenario(Table2Setup::kCloudServerLte, 7);
  auto b = make_table2_scenario(Table2Setup::kCloudServerLte, 7);
  a.start_dynamics();
  b.start_dynamics();
  auto pa = run_ping(a, 20, milliseconds(50));
  auto pb = run_ping(b, 20, milliseconds(50));
  ASSERT_EQ(pa.rtt_ms.count(), pb.rtt_ms.count());
  EXPECT_DOUBLE_EQ(pa.rtt_ms.median(), pb.rtt_ms.median());
}

}  // namespace
}  // namespace arnet::core
