// Unit tests for the observability subsystem (src/obs/): trace ring
// bounds, tracer enable/mirror semantics, the trace digest, the shared
// Histogram's bucketing and edge cases, and the Chrome trace_event JSON
// shape. The end-to-end properties (bit-identical traces across salts,
// chaos/degraded coverage) live in trace_determinism_test.
#include "obs/export.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace hermes::obs {
namespace {

TEST(TraceRingTest, FillsThenOverwritesOldest) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 4; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded, 4u);
  EXPECT_EQ(ring.dropped, 0u);

  // Two more pushes overwrite seq 0 and 1; memory stays bounded.
  for (uint64_t i = 4; i < 6; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded, 6u);
  EXPECT_EQ(ring.dropped, 2u);

  const std::vector<TraceEvent> in_order = ring.InOrder();
  ASSERT_EQ(in_order.size(), 4u);
  for (size_t i = 0; i < in_order.size(); ++i) {
    EXPECT_EQ(in_order[i].seq, 2 + i) << "oldest-first order broke at " << i;
  }
}

TEST(TraceRingTest, InOrderBeforeWrapIsInsertionOrder) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 3; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  const std::vector<TraceEvent> in_order = ring.InOrder();
  ASSERT_EQ(in_order.size(), 3u);
  for (size_t i = 0; i < in_order.size(); ++i) {
    EXPECT_EQ(in_order[i].seq, i);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  SimTime now = 42;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  EXPECT_FALSE(t.active());

  // Call sites guard with HERMES_TRACE_ACTIVE / the macro; an unguarded
  // Record() on an inactive tracer must still be a no-op.
  t.Record(EventKind::kTxnCommit, 0, 7);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_EQ(t.digest().count(), 0u);
}

TEST(TracerTest, NullTracerMacroIsANoOp) {
  Tracer* none = nullptr;
  // Must compile and do nothing — this is the cost model for components
  // whose set_tracer was never called (e.g. bare routers in benches).
  HERMES_TRACE(none, EventKind::kTxnCommit, 0, 7);
  HERMES_TRACE_SPAN(none, EventKind::kPhaseExecute, 0, 7, Key(3), 0, 10);
  EXPECT_FALSE(HERMES_TRACE_ACTIVE(none));
}

TEST(TracerTest, EnabledTracerDigestsAndRoutesToNodeRings) {
  SimTime now = 100;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_enabled(true);
  ASSERT_TRUE(t.active());

  t.Record(EventKind::kBatchSequenced, kInvalidNode, 1);  // ring 0
  t.Record(EventKind::kTxnDispatch, 0, 2);                // ring 1 (node 0)
  now = 150;
  t.RecordSpan(EventKind::kPhaseExecute, 2, 2, Key(9), 120, 30);  // ring 3

  EXPECT_EQ(t.total_recorded(), 3u);
  ASSERT_EQ(t.num_rings(), 4u);  // cluster + nodes 0..2 (auto-grown)
  EXPECT_EQ(t.ring(0).recorded, 1u);
  EXPECT_EQ(t.ring(1).recorded, 1u);
  EXPECT_EQ(t.ring(2).recorded, 0u);
  EXPECT_EQ(t.ring(3).recorded, 1u);
  // Each ring digests its own events (7 Mix() words per event); the
  // tracer digest folds the non-empty rings (two words per ring) in ring
  // order, so emission stays lane-local under the epoch schedule.
  EXPECT_EQ(t.ring(0).digest.count(), 1u * 7)
      << "ring digest no longer covers the full event";
  EXPECT_EQ(t.ring(2).digest.count(), 0u);
  EXPECT_EQ(t.digest().count(), 3u * 2);

  const TraceEvent& span = t.ring(3).events[0];
  EXPECT_EQ(span.when, 120u);
  EXPECT_EQ(span.dur, 30u);
  EXPECT_EQ(span.seq, 0u);  // ring-local emission order
  EXPECT_EQ(span.key, Key(9));
}

TEST(TracerTest, SameEventsSameDigestDifferentOrderDifferentDigest) {
  SimTime now = 0;
  auto run = [&now](bool swapped) {
    Tracer t;
    t.Configure(16);
    t.set_clock(&now);
    t.set_enabled(true);
    if (swapped) {
      t.Record(EventKind::kTxnCommit, 1, 8);
      t.Record(EventKind::kTxnDispatch, 1, 8);
    } else {
      t.Record(EventKind::kTxnDispatch, 1, 8);
      t.Record(EventKind::kTxnCommit, 1, 8);
    }
    return t.digest().value();
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_NE(run(false), run(true)) << "digest must be order-sensitive";
}

TEST(TracerTest, MirrorOnlyTracerDoesNotDigestOrBuffer) {
  SimTime now = 5;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_mirror_key(123);  // HERMES_TRACE_KEY UX without full tracing
  EXPECT_TRUE(t.active());
  EXPECT_FALSE(t.enabled());

  t.Record(EventKind::kRecordExtract, 0, 1, Key(123));
  t.Record(EventKind::kRecordExtract, 0, 1, Key(456));
  // The mirror prints to stderr but must not perturb the digest or rings:
  // a run debugged with HERMES_TRACE_KEY still matches a clean run.
  EXPECT_EQ(t.digest().count(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(EventKindTest, NamesAndSpanKinds) {
  EXPECT_STREQ(EventKindName(EventKind::kTxnDispatch), "txn_dispatch");
  EXPECT_STREQ(EventKindName(EventKind::kFusionEvict), "fusion_evict");
  EXPECT_STREQ(EventKindName(EventKind::kUnavailable), "unavailable");
  EXPECT_TRUE(IsSpan(EventKind::kPhaseLockWait));
  EXPECT_TRUE(IsSpan(EventKind::kBatchRouted));
  EXPECT_FALSE(IsSpan(EventKind::kTxnCommit));
  EXPECT_FALSE(IsSpan(EventKind::kFusionEvict));
}

TEST(HistogramTest, PercentilesApproximateDistribution) {
  Histogram h;
  for (SimTime v = 1; v <= 10'000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10'000u);
  // Bucketing error is bounded by ~25% of the value (upper bucket bound).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5000.0, 1500.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9900.0, 2600.0);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.5));
  EXPECT_GE(h.Percentile(0.5), h.Percentile(0.1));
}

TEST(HistogramTest, PercentileIsUpperBound) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  EXPECT_GE(h.Percentile(0.0), 1000u);
  EXPECT_GE(h.Percentile(1.0), 1000u);
  EXPECT_LE(h.Percentile(1.0), 1300u);
}

TEST(HistogramTest, HandlesExtremes) {
  Histogram h;
  h.Record(0);
  h.Record(kSimTimeMax);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.Percentile(1.0), h.Percentile(0.0));
}

TEST(HistogramTest, SkewedDistribution) {
  Histogram h;
  for (int i = 0; i < 990; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(1'000'000);
  EXPECT_LE(h.Percentile(0.5), 130u);
  EXPECT_GE(h.Percentile(0.995), 900'000u);
}

TEST(HistogramTest, EmptyHistogramPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_TRUE(snap.buckets.empty());
}

TEST(HistogramTest, SubMicrosecondClampsToFirstBucket) {
  // The histogram covers 1 us up; a 0 us latency (possible for a local
  // read that never waits) lands in the first bucket, not out of range.
  Histogram h;
  h.Record(0);
  h.Record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.Percentile(1.0), 2u);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 1u);
  EXPECT_EQ(snap.buckets[0].second, 2u);
}

TEST(HistogramTest, BeyondTopBandClampsToLastBand) {
  // Values past the ~1100 s top band all share the last band instead of
  // indexing out of bounds; ordering against smaller values survives.
  Histogram h;
  h.Record(1ULL << 40);
  h.Record(kSimTimeMax);
  h.Record(10);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GE(h.Percentile(1.0), 1ULL << 30);
  EXPECT_LE(h.Percentile(0.0), 13u);
}

TEST(HistogramTest, ZeroAndOneQuantilesBracketTheData) {
  Histogram h;
  h.Record(10);
  h.Record(100);
  h.Record(1000);
  // q=0 is the smallest bucket's upper bound, q=1 the largest's; both
  // within one bucket width (25%) of the true extremes.
  EXPECT_GE(h.Percentile(0.0), 10u);
  EXPECT_LE(h.Percentile(0.0), 13u);
  EXPECT_GE(h.Percentile(1.0), 1000u);
  EXPECT_LE(h.Percentile(1.0), 1300u);
  EXPECT_GE(h.Percentile(1.0), h.Percentile(0.999));
}

TEST(HistogramTest, SnapshotMatchesRecordedCounts) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.Record(100);
  for (int i = 0; i < 3; ++i) h.Record(5'000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 8u);
  ASSERT_EQ(snap.buckets.size(), 2u);
  // Ascending bounds, per-bucket (not cumulative) counts; the Prometheus
  // exporter does the cumulative sum.
  EXPECT_LT(snap.buckets[0].first, snap.buckets[1].first);
  EXPECT_EQ(snap.buckets[0].second, 5u);
  EXPECT_EQ(snap.buckets[1].second, 3u);
  EXPECT_EQ(snap.sum, snap.buckets[0].first * 5 + snap.buckets[1].first * 3);
}

TEST(HistogramTest, MergeAddsBucketsAndCounts) {
  Histogram a, b;
  for (int i = 0; i < 3; ++i) a.Record(100);
  for (int i = 0; i < 2; ++i) b.Record(5'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 5u);
  const HistogramSnapshot snap = a.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].second, 3u);
  EXPECT_EQ(snap.buckets[1].second, 2u);
  EXPECT_EQ(a.Percentile(1.0), b.Percentile(1.0));
}

TEST(ChromeTraceTest, JsonShapeAndMetadata) {
  SimTime now = 10;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_enabled(true);
  t.Record(EventKind::kBatchSequenced, kInvalidNode, 1, Key(-1), 5);
  t.RecordSpan(EventKind::kPhaseExecute, 0, 2, Key(7), 10, 30);

  const std::string json = ChromeTraceJson(t, /*lanes=*/4);
  // Structural markers rather than a JSON parser: the CI artifact step
  // loads the real output in a parser; here we pin the shape.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch_sequenced\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase_execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":30"), std::string::npos);
  EXPECT_NE(json.find("\"trace_digest\""), std::string::npos);

  // Byte-identical on re-export: the exporter itself adds no state.
  EXPECT_EQ(json, ChromeTraceJson(t, /*lanes=*/4));
}

}  // namespace
}  // namespace hermes::obs
