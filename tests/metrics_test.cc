#include "engine/metrics.h"

#include <gtest/gtest.h>

namespace hermes::engine {
namespace {

LatencyBreakdown Lat(SimTime total) {
  LatencyBreakdown lat;
  lat.total_us = total;
  lat.lock_wait_us = total / 2;
  return lat;
}

TEST(MetricsTest, BucketsCommitsByWindow) {
  Metrics m(1000);
  m.RecordCommit(100, Lat(10), false, false);
  m.RecordCommit(999, Lat(10), true, false);
  m.RecordCommit(1000, Lat(10), false, false);
  m.RecordCommit(2500, Lat(10), false, true);  // abort

  ASSERT_EQ(m.windows().size(), 3u);
  EXPECT_EQ(m.windows()[0].commits, 2u);
  EXPECT_EQ(m.windows()[0].distributed_commits, 1u);
  EXPECT_EQ(m.windows()[1].commits, 1u);
  EXPECT_EQ(m.windows()[2].commits, 0u);
  EXPECT_EQ(m.windows()[2].aborts, 1u);
  EXPECT_EQ(m.total_commits(), 3u);
  EXPECT_EQ(m.total_aborts(), 1u);
  EXPECT_EQ(m.total_distributed(), 1u);
}

TEST(MetricsTest, AverageLatency) {
  Metrics m(1000);
  m.RecordCommit(0, Lat(100), false, false);
  m.RecordCommit(0, Lat(300), false, false);
  const LatencyBreakdown avg = m.AverageLatency();
  EXPECT_EQ(avg.total_us, 200u);
  EXPECT_EQ(avg.lock_wait_us, 100u);
}

TEST(MetricsTest, AbortsExcludedFromLatency) {
  Metrics m(1000);
  m.RecordCommit(0, Lat(100), false, false);
  m.RecordCommit(0, Lat(900), false, true);
  EXPECT_EQ(m.AverageLatency().total_us, 100u);
}

TEST(MetricsTest, ThroughputOverRange) {
  Metrics m(1'000'000);  // 1 s windows
  for (int i = 0; i < 50; ++i) m.RecordCommit(500'000, Lat(1), false, false);
  for (int i = 0; i < 70; ++i) m.RecordCommit(1'500'000, Lat(1), false, false);
  EXPECT_DOUBLE_EQ(m.Throughput(0, 2'000'000), 60.0);
  EXPECT_DOUBLE_EQ(m.Throughput(0, 1'000'000), 50.0);
  EXPECT_DOUBLE_EQ(m.Throughput(5'000'000, 6'000'000), 0.0);
}

TEST(MetricsTest, CpuUtilization) {
  Metrics m(1000);
  m.RecordBusy(500, 2000);  // 2000 us busy in a 1000 us window, 4 workers
  EXPECT_DOUBLE_EQ(m.CpuUtilization(0, 4), 0.5);
  EXPECT_DOUBLE_EQ(m.CpuUtilization(5, 4), 0.0);  // out of range
}

TEST(MetricsTest, NetBytesPerTxn) {
  Metrics m(1000);
  m.RecordCommit(10, Lat(1), false, false);
  m.RecordCommit(20, Lat(1), false, false);
  m.RecordNetBytes(10, 4096);
  EXPECT_DOUBLE_EQ(m.NetBytesPerTxn(0), 2048.0);
  EXPECT_DOUBLE_EQ(m.NetBytesPerTxn(3), 0.0);
}

TEST(MetricsTest, EmptyMetrics) {
  Metrics m(1000);
  EXPECT_EQ(m.AverageLatency().total_us, 0u);
  EXPECT_DOUBLE_EQ(m.Throughput(0, 1000), 0.0);
  EXPECT_EQ(m.latency_histogram().Percentile(0.99), 0u);
}

TEST(MetricsTest, HistogramTracksCommitTotals) {
  Metrics m(1000);
  m.RecordCommit(0, Lat(500), false, false);
  m.RecordCommit(0, Lat(900), false, true);  // abort: not recorded
  EXPECT_EQ(m.latency_histogram().count(), 1u);
}

}  // namespace
}  // namespace hermes::engine
