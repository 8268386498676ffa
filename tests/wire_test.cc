#include "net/wire.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "sim/simulator.h"

namespace hermes::net {
namespace {

// Latency 100us, 1ns/byte, no framing overhead so wire bytes == payload
// bytes and the arithmetic below stays readable. The wire reads its costs
// and config through pointers, so a test may adjust them before sending.
class WireTest : public ::testing::Test {
 protected:
  WireTest() {
    costs.net_latency_us = 100;
    costs.net_us_per_byte = 0.001;
    costs.message_overhead_bytes = 0;
    config.enabled = true;
    config.coalesce_window_us = 0;  // coalescing off unless a test opts in
  }
  sim::Simulator sim;
  CostModel costs;
  NetConfig config;
  Wire wire{&sim, &costs, &config, 2};
};

TEST_F(WireTest, DisabledIsAPassthrough) {
  config.enabled = false;
  SimTime delivered = 0;
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { delivered = sim.Now(); });
  sim.RunAll();
  // Straight on the wire: latency + bytes * us_per_byte.
  EXPECT_EQ(delivered, 100u + 10u);
  EXPECT_EQ(wire.transmits(TrafficClass::kForeground), 0u)
      << "disabled substrate must not touch its queues";
}

TEST_F(WireTest, SerializerQueuesBackToBackMessages) {
  SimTime first = 0, second = 0;
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { first = sim.Now(); });
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { second = sim.Now(); });
  sim.RunAll();
  // First transmits at t=0 (serialization 10us), second waits for the
  // serializer: delivery = queueing(10) + serialization(10) + latency.
  EXPECT_EQ(first, 110u);
  EXPECT_EQ(second, 120u);
  EXPECT_EQ(wire.transmits(TrafficClass::kForeground), 2u);
  EXPECT_EQ(wire.MergedQueueDelay(TrafficClass::kForeground).count(), 2u);
}

TEST_F(WireTest, RateOverrideChangesOccupancyOnly) {
  config.bytes_per_us = 500;  // 2ns/byte NIC on a 1ns/byte wire

  SimTime first = 0, second = 0;
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { first = sim.Now(); });
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { second = sim.Now(); });
  sim.RunAll();
  // Per-message wire time is unchanged (the fabric still charges
  // 1ns/byte); only the serializer occupancy doubles to 20us.
  EXPECT_EQ(first, 110u);
  EXPECT_EQ(second, 130u);
}

TEST_F(WireTest, WeightedScheduleServesForegroundBeforeQueuedBulk) {
  std::vector<int> order;
  // Occupy the serializer, then queue bulk BEFORE foreground.
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { order.push_back(1); });
  wire.Send(0, 1, 1'000, TrafficClass::kBulk, [&] { order.push_back(2); });
  wire.Send(0, 1, 1'000, TrafficClass::kForeground,
            [&] { order.push_back(3); });
  sim.RunAll();
  // Slot 1 of the 4:1 cycle prefers foreground, so the later foreground
  // message overtakes the FIFO-earlier bulk one.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(wire.transmits(TrafficClass::kBulk), 1u);
}

TEST_F(WireTest, CreditWindowStallsUntilDeliveryReturnsCredit) {
  config.link_credit_bytes = 10'000;  // exactly one message in flight

  SimTime first = 0, second = 0;
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { first = sim.Now(); });
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { second = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(first, 110u);
  // The second message could not transmit at t=10 (window full): it waits
  // for the first delivery's credit return at t=110, then serializes and
  // flies: 110 + 10 + 100.
  EXPECT_EQ(second, 220u);
  EXPECT_GE(wire.credit_stalls(), 1u);
}

TEST_F(WireTest, OversizedMessageAdmittedWhenLinkIdle) {
  config.link_credit_bytes = 1'000;  // smaller than the message

  SimTime delivered = 0;
  wire.Send(0, 1, 10'000, TrafficClass::kForeground,
            [&] { delivered = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(delivered, 110u) << "an idle link must always admit";
}

TEST_F(WireTest, BulkCoalescesIntoOneEnvelopeOpenedInAppendOrder) {
  config.coalesce_window_us = 50;
  config.coalesce_max_bytes = 0;  // no size cap

  std::vector<int> order;
  std::vector<SimTime> at;
  for (int i = 1; i <= 3; ++i) {
    wire.Send(0, 1, 100, TrafficClass::kBulk, [&, i] {
      order.push_back(i);
      at.push_back(sim.Now());
    });
  }
  sim.RunAll();
  // One wire message carries all three payloads: sealed at the window
  // (t=50), zero serialization (300 bytes), latency 100.
  EXPECT_EQ(wire.total_messages(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(at, (std::vector<SimTime>{150, 150, 150}));
  EXPECT_EQ(wire.envelopes_sent(), 1u);
  EXPECT_EQ(wire.coalesced_messages(), 3u);
}

TEST_F(WireTest, EnvelopeSizeCapSealsEarly) {
  config.coalesce_window_us = 50;
  config.coalesce_max_bytes = 150;

  std::vector<SimTime> at;
  for (int i = 0; i < 3; ++i) {
    wire.Send(0, 1, 100, TrafficClass::kBulk,
              [&] { at.push_back(sim.Now()); });
  }
  sim.RunAll();
  // The second append hits the cap: envelope 1 (two payloads) seals and
  // transmits at t=0, envelope 2 (one payload) waits out its window.
  EXPECT_EQ(wire.envelopes_sent(), 2u);
  EXPECT_EQ(wire.coalesced_messages(), 3u);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 100u);
  EXPECT_EQ(at[1], 100u);
  EXPECT_EQ(at[2], 150u);
}

TEST_F(WireTest, SelfSendBypassesTheQueue) {
  bool delivered = false;
  wire.Send(1, 1, 5'000, TrafficClass::kBulk, [&] { delivered = true; });
  EXPECT_FALSE(delivered) << "still asynchronous";
  sim.RunAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(wire.transmits(TrafficClass::kBulk), 0u);
}

TEST_F(WireTest, GrowAddsNodesWithoutDisturbingCounters) {
  wire.Send(0, 1, 1'000, TrafficClass::kForeground, [] {});
  sim.RunAll();
  wire.Grow(4);
  SimTime delivered = 0;
  wire.Send(3, 0, 1'000, TrafficClass::kForeground,
            [&] { delivered = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(wire.transmits(TrafficClass::kForeground), 2u);
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace hermes::net
