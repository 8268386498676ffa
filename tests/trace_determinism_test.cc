// Tracing is passive: attaching the tracer changes no decision. The
// cross-salt trace oracle (bit-identical trace digest, byte-identical
// Chrome trace_event JSON and Prometheus text, for a healthy run and for
// traced chaos and degraded-mode plans) is the digest oracle's `trace`
// row.

#include <gtest/gtest.h>

#include "digest_oracle.h"

namespace hermes {
namespace {

TEST(TraceDeterminismTest, TracingIsPassive) {
  // Same seeded workload with and without the tracer: identical decision
  // digests. This is the contract detlint's obs-decision rule audits
  // statically — here it is proven at run time.
  const oracle::Profile traced = oracle::RunHealthy(/*traced=*/true);
  const oracle::Profile untraced = oracle::RunHealthy(/*traced=*/false);
  EXPECT_EQ(traced.Get("decision"), untraced.Get("decision"))
      << "attaching the tracer changed a decision";
  EXPECT_EQ(untraced.Get("events"), 0u) << "disabled tracer recorded events";
  EXPECT_EQ(untraced.Get("trace_count"), 0u);
}

}  // namespace
}  // namespace hermes
