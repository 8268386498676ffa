// Envelope CONTENTS under the wire substrate (DESIGN.md §5 "Wire
// substrate"): the set and order of messages folded into each envelope
// must be the same under every hash salt. The net-enabled digest oracle
// (a seeded lifetime with a mid-run AddNode and a partition cut/heal
// cycle) is the digest oracle's `net` row.
#include <vector>

#include <gtest/gtest.h>

#include "digest_oracle.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace hermes {
namespace {

// Envelope CONTENTS, not just the digests: three source lanes append bulk
// messages toward node 0 on interleaved schedules, and the delivery order
// of every message id must be the same under every salt (envelopes open in
// append order; appends fold in virtual-time order per link).
struct ContentsResult {
  std::vector<int> order;
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
};

ContentsResult RunEnvelopeContents() {
  sim::Simulator sim;
  CostModel costs;
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.001;
  costs.message_overhead_bytes = 64;
  NetConfig net_config;
  net_config.enabled = true;
  net_config.coalesce_window_us = 40;
  net_config.coalesce_max_bytes = 4 * 1024;
  net::Wire wire(&sim, &costs, &net_config, 4);
  sim.ConfigureLanes(4);

  ContentsResult result;
  for (int src = 1; src <= 3; ++src) {
    for (int k = 0; k < 8; ++k) {
      const int id = src * 100 + k;
      sim.ScheduleOnLane(src, static_cast<SimTime>(10 * k + src),
                         [&wire, &result, &sim, src, id] {
                           wire.Send(src, 0, 500, TrafficClass::kBulk,
                                     [&result, id] {
                                       // Runs on lane 0 only: appends are
                                       // serialized within each epoch.
                                       result.order.push_back(id);
                                     });
                           (void)sim;
                         });
    }
  }
  sim.RunAll();
  result.envelopes = wire.envelopes_sent();
  result.coalesced = wire.coalesced_messages();
  return result;
}

TEST(WireDeterminismTest, EnvelopeContentsAcrossSalts) {
  const std::vector<ContentsResult> runs =
      oracle::UnderEachSalt([](size_t) { return RunEnvelopeContents(); });
  const ContentsResult& base = runs[0];
  ASSERT_EQ(base.coalesced, 24u);
  ASSERT_GT(base.envelopes, 0u);
  ASSERT_LT(base.envelopes, base.coalesced)
      << "nothing coalesced: every message rode alone";
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(base.order, runs[i].order)
        << "envelope contents shifted under salt #" << i;
    EXPECT_EQ(base.envelopes, runs[i].envelopes);
    EXPECT_EQ(base.coalesced, runs[i].coalesced);
  }
}

}  // namespace
}  // namespace hermes
