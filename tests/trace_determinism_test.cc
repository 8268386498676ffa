// Tracing is passive: attaching the tracer changes no decision. The
// cross-salt trace oracle (bit-identical trace digest, byte-identical
// Chrome trace_event JSON and Prometheus text, for a healthy run and for
// traced chaos and degraded-mode plans) is the digest oracle's `trace`
// row.

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace hermes {
namespace {

TEST(TraceDeterminismTest, TracingIsPassive) {
  // Same seeded workload with and without the tracer: identical decision
  // digests. This is the contract detlint's obs-decision rule audits
  // statically — here it is proven at run time.
  const workload::DrainedRun traced =
      workload::RunScenario(workload::MustParse("healthy obs.trace_enabled=1"));
  const workload::DrainedRun untraced =
      workload::RunScenario(workload::MustParse("healthy"));
  EXPECT_EQ(traced.cluster->decision_digest().value(),
            untraced.cluster->decision_digest().value())
      << "attaching the tracer changed a decision";
  EXPECT_GT(traced.cluster->tracer().total_recorded(), 0u);
  EXPECT_EQ(untraced.cluster->tracer().total_recorded(), 0u)
      << "disabled tracer recorded events";
  EXPECT_EQ(untraced.cluster->trace_digest().count(), 0u);
}

}  // namespace
}  // namespace hermes
