// The message fabric under net::Wire: delivery timing, byte counters,
// fault perturbations and the partition pens. With the substrate disabled
// (the fixture's default) every send goes straight on the wire; the tests
// at the bottom enable it to cover cuts landing on a busy serializer.
#include "net/wire.h"

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "sim/simulator.h"

namespace hermes::net {
namespace {

// The wire reads its costs and config through pointers, so a test may
// adjust them before sending.
class NetworkTest : public ::testing::Test {
 protected:
  /// A foreground send, the class the bare fabric tests use throughout.
  void Send(NodeId src, NodeId dst, uint64_t bytes, std::function<void()> cb) {
    net.Send(src, dst, bytes, TrafficClass::kForeground, std::move(cb));
  }

  /// Turns the bounded path on over a 100us, 1ns/byte, unframed wire.
  void EnableSubstrate(SimTime coalesce_window_us) {
    costs.net_latency_us = 100;
    costs.net_us_per_byte = 0.001;
    costs.message_overhead_bytes = 0;
    config.enabled = true;
    config.coalesce_window_us = coalesce_window_us;
    config.coalesce_max_bytes = 0;
  }

  /// A delivery callback that logs `id` and the arrival time.
  std::function<void()> Record(int id) {
    return [this, id] {
      order.push_back(id);
      at.push_back(sim.Now());
    };
  }

  sim::Simulator sim;
  CostModel costs;
  NetConfig config;
  Wire net{&sim, &costs, &config, 2};
  std::vector<int> order;
  std::vector<SimTime> at;
};

TEST_F(NetworkTest, DeliversAfterLatencyPlusWireTime) {
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.001;
  costs.message_overhead_bytes = 0;

  SimTime delivered = 0;
  Send(0, 1, 10'000, [&] { delivered = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(delivered, 100u + 10u);  // 10k bytes * 1ns
}

TEST_F(NetworkTest, SelfSendIsFreeButAsynchronous) {
  bool delivered = false;
  Send(1, 1, 5'000, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // must not run synchronously
  sim.RunAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_EQ(sim.Now(), 0u);
}

TEST_F(NetworkTest, CountsBytesWithOverheadPerSender) {
  costs.message_overhead_bytes = 64;
  net.Grow(3);
  Send(0, 1, 1000, [] {});
  Send(0, 2, 1000, [] {});
  Send(2, 1, 500, [] {});
  sim.RunAll();
  EXPECT_EQ(net.bytes_sent(0), 2 * 1064u);
  EXPECT_EQ(net.bytes_sent(2), 564u);
  EXPECT_EQ(net.total_bytes(), 2 * 1064u + 564u);
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST_F(NetworkTest, GrowExtendsCounters) {
  net.Grow(5);
  Send(4, 0, 100, [] {});
  sim.RunAll();
  EXPECT_GT(net.bytes_sent(4), 0u);
  EXPECT_GT(net.bytes_received(0), 0u);
  EXPECT_EQ(net.link_messages(4, 0), 1u);
}

TEST_F(NetworkTest, ReceiverAndLinkCountersMatchSends) {
  costs.message_overhead_bytes = 64;
  net.Grow(3);
  Send(0, 1, 1000, [] {});
  Send(0, 2, 1000, [] {});
  Send(2, 1, 500, [] {});
  sim.RunAll();
  EXPECT_EQ(net.bytes_received(1), 1064u + 564u);
  EXPECT_EQ(net.bytes_received(2), 1064u);
  EXPECT_EQ(net.bytes_received(0), 0u);
  EXPECT_EQ(net.total_bytes_received(), net.total_bytes());
  EXPECT_EQ(net.messages_received(1), 2u);
  EXPECT_EQ(net.link_messages(0, 1), 1u);
  EXPECT_EQ(net.link_messages(0, 2), 1u);
  EXPECT_EQ(net.link_messages(2, 1), 1u);
  EXPECT_EQ(net.link_messages(1, 0), 0u);
}

TEST_F(NetworkTest, SelfSendCountsNothing) {
  Send(1, 1, 5'000, [] {});
  sim.RunAll();
  EXPECT_EQ(net.total_bytes_received(), 0u);
  EXPECT_EQ(net.messages_received(1), 0u);
  EXPECT_EQ(net.link_messages(1, 1), 0u);
}

TEST_F(NetworkTest, GrowExtendsLinkMatrixBothDimensions) {
  Send(0, 1, 100, [] {});
  net.Grow(4);
  Send(3, 0, 100, [] {});
  Send(1, 3, 100, [] {});
  sim.RunAll();
  EXPECT_EQ(net.link_messages(0, 1), 1u);  // preserved across the grow
  EXPECT_EQ(net.link_messages(3, 0), 1u);
  EXPECT_EQ(net.link_messages(1, 3), 1u);
}

TEST_F(NetworkTest, DroppedAttemptsCostSenderNotReceiver) {
  // A drop is a retransmitted wire attempt: the sender pays the bytes
  // again and delivery slips, but the payload lands exactly once.
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.0;
  costs.message_overhead_bytes = 0;
  net.set_perturbation([](NodeId, NodeId, uint64_t, SimTime, uint64_t) {
    Perturbation p;
    p.dropped_attempts = 2;
    p.extra_delay_us = 400;  // 2 retransmit timeouts
    return p;
  });
  int deliveries = 0;
  SimTime delivered_at = 0;
  Send(0, 1, 1000, [&] {
    ++deliveries;
    delivered_at = sim.Now();
  });
  sim.RunAll();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(delivered_at, 100u + 400u);
  EXPECT_EQ(net.bytes_sent(0), 3000u);      // 3 wire attempts
  EXPECT_EQ(net.bytes_received(1), 1000u);  // one landed
  EXPECT_EQ(net.link_messages(0, 1), 3u);
  EXPECT_EQ(net.messages_dropped(), 2u);
  EXPECT_EQ(net.messages_duplicated(), 0u);
}

TEST_F(NetworkTest, DuplicatesCostBothEndsButDeliverOnce) {
  // A duplicate is an extra wire copy absorbed by receiver-side dedup:
  // bytes count at both ends, the callback still fires exactly once.
  costs.message_overhead_bytes = 0;
  net.set_perturbation([](NodeId, NodeId, uint64_t, SimTime, uint64_t) {
    Perturbation p;
    p.duplicates = 1;
    return p;
  });
  int deliveries = 0;
  Send(0, 1, 1000, [&] { ++deliveries; });
  sim.RunAll();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(net.bytes_sent(0), 2000u);
  EXPECT_EQ(net.bytes_received(1), 2000u);
  EXPECT_EQ(net.messages_received(1), 2u);
  EXPECT_EQ(net.messages_duplicated(), 1u);
}

// --- Partitions: reachability matrix + per-link FIFO holding pens. ---

TEST_F(NetworkTest, CutParksSendsAndHealReleasesFifo) {
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.0;
  costs.message_overhead_bytes = 0;

  net.CutLink(0, 1);
  EXPECT_FALSE(net.reachable(0, 1));
  EXPECT_TRUE(net.reachable(1, 0));
  EXPECT_TRUE(net.any_cut());

  Send(0, 1, 100, Record(1));
  Send(0, 1, 100, Record(2));
  Send(0, 1, 100, Record(3));
  sim.RunAll();
  EXPECT_TRUE(order.empty()) << "a parked message delivered under the cut";
  EXPECT_EQ(net.messages_held(), 3u);
  EXPECT_EQ(net.total_held(), 3u);
  // The bytes left the sender's NIC and died on the cut wire.
  EXPECT_EQ(net.bytes_sent(0), 300u);
  EXPECT_EQ(net.bytes_received(1), 0u);

  net.HealLink(0, 1);
  EXPECT_FALSE(net.any_cut());
  EXPECT_EQ(net.messages_held(), 0u);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}))
      << "pen must release in FIFO order";
  EXPECT_EQ(net.bytes_received(1), 300u);
  EXPECT_EQ(net.cut_deliveries(), 0u);
}

TEST_F(NetworkTest, OneWayCutOnlyBlocksThatDirection) {
  net.CutLink(0, 1);
  bool forward = false, backward = false;
  Send(0, 1, 100, [&] { forward = true; });
  Send(1, 0, 100, [&] { backward = true; });
  sim.RunAll();
  EXPECT_FALSE(forward);
  EXPECT_TRUE(backward) << "the reverse direction must stay live";
  net.HealLink(0, 1);
  sim.RunAll();
  EXPECT_TRUE(forward);
}

TEST_F(NetworkTest, HealRemeasuresWireTimeFromHealPoint) {
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.0;
  costs.message_overhead_bytes = 0;
  net.CutLink(0, 1);

  SimTime delivered_at = 0;
  Send(0, 1, 100, [&] { delivered_at = sim.Now(); });
  sim.Schedule(500, [&] { net.HealLink(0, 1); });
  sim.RunAll();
  // Parked at t=0, healed at t=500, wire re-measured from the heal.
  EXPECT_EQ(delivered_at, 500u + 100u);
}

TEST_F(NetworkTest, MessageInFlightWhenCutLandsStillDelivers) {
  // Send-time cut semantics: the receiver's transport buffer outlives the
  // cut (matching the crash model), so a message already on the wire
  // lands even though its link is cut before the delivery time.
  costs.net_latency_us = 100;
  bool delivered = false;
  Send(0, 1, 100, [&] { delivered = true; });
  sim.Schedule(10, [&] { net.CutLink(0, 1); });
  sim.RunAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.total_held(), 0u);
  EXPECT_EQ(net.cut_deliveries(), 0u);
}

TEST_F(NetworkTest, CutAndHealAreIdempotent) {
  net.CutLink(0, 1);
  net.CutLink(0, 1);
  EXPECT_TRUE(net.any_cut());
  net.HealLink(0, 1);
  EXPECT_FALSE(net.any_cut());
  net.HealLink(0, 1);
  EXPECT_FALSE(net.any_cut());
}

TEST_F(NetworkTest, ParkedMessageKeepsItsSendTimePerturbation) {
  // Draws are keyed by the send-time link_seq, so parking and releasing a
  // message must not shift any draw: the held message carries its
  // already-drawn duplicate count through the pen.
  costs.message_overhead_bytes = 0;
  net.set_perturbation([](NodeId, NodeId, uint64_t, SimTime, uint64_t seq) {
    Perturbation p;
    p.duplicates = seq == 0 ? 1 : 0;
    return p;
  });
  net.CutLink(0, 1);
  int deliveries = 0;
  Send(0, 1, 1000, [&] { ++deliveries; });  // seq 0: duplicated
  Send(0, 1, 1000, [&] { ++deliveries; });  // seq 1: clean
  net.HealLink(0, 1);
  sim.RunAll();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(net.bytes_sent(0), 3000u);      // dup costs the sender at send
  EXPECT_EQ(net.bytes_received(1), 3000u);  // and the receiver at release
  EXPECT_EQ(net.messages_received(1), 3u);
  EXPECT_EQ(net.messages_duplicated(), 1u);
}

TEST_F(NetworkTest, PerturbationIgnoresSelfSends) {
  int consulted = 0;
  net.set_perturbation([&](NodeId, NodeId, uint64_t, SimTime, uint64_t) {
    ++consulted;
    return Perturbation{};
  });
  Send(1, 1, 100, [] {});
  Send(0, 1, 100, [] {});
  sim.RunAll();
  EXPECT_EQ(consulted, 1);
}

// --- Bounded path over the pens: cuts landing on a busy serializer. ---

TEST_F(NetworkTest, CutWhileTransmitQueueNonEmptyParksQueuedMessagesFifo) {
  EnableSubstrate(/*coalesce_window_us=*/0);
  // m1 transmits immediately (serialization 10us) and is on the wire when
  // the cut lands; m2/m3 are still sitting in the transmit queue.
  net.Send(0, 1, 10'000, TrafficClass::kForeground, Record(1));
  net.Send(0, 1, 10'000, TrafficClass::kForeground, Record(2));
  net.Send(0, 1, 10'000, TrafficClass::kForeground, Record(3));
  sim.Schedule(5, [&] { net.CutLink(0, 1); });
  // A send issued under the cut goes straight to the pen behind them.
  sim.Schedule(20, [&] {
    net.Send(0, 1, 10'000, TrafficClass::kForeground, Record(4));
  });
  sim.Schedule(600, [&] { net.HealLink(0, 1); });
  sim.RunAll();

  // In-flight m1 still lands (send-time cut semantics); the queued pair
  // parked FIFO and re-measure their wire time from the heal point.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(at, (std::vector<SimTime>{110, 710, 710, 710}));
  EXPECT_EQ(net.cut_deliveries(), 0u);
  EXPECT_EQ(net.messages_held(), 0u);
  EXPECT_EQ(net.queued_now(), 0u) << "the drain must empty the queue";
}

TEST_F(NetworkTest, CutFlushesOpenEnvelopeIntoThePen) {
  EnableSubstrate(/*coalesce_window_us=*/1000);  // still open at the cut
  net.Send(0, 1, 100, TrafficClass::kBulk, Record(1));
  net.Send(0, 1, 100, TrafficClass::kBulk, Record(2));
  sim.Schedule(5, [&] {
    net.CutLink(0, 1);
    // The open envelope sealed and parked as ONE wire message.
    EXPECT_EQ(net.messages_held(), 1u);
  });
  sim.Schedule(600, [&] { net.HealLink(0, 1); });
  sim.RunAll();

  EXPECT_EQ(order, (std::vector<int>{1, 2}))
      << "envelope must open in append order at delivery";
  // 200 bytes round to zero wire time.
  EXPECT_EQ(at, (std::vector<SimTime>{700, 700}));
  EXPECT_EQ(net.envelopes_sent(), 1u);
  EXPECT_EQ(net.coalesced_messages(), 2u);
  EXPECT_EQ(net.cut_deliveries(), 0u);
}

TEST_F(NetworkTest, GrowDuringPartitionKeepsEveryLinksState) {
  // Growth moves every Link into a larger matrix; the cut flag, the pen,
  // the counters and the drained queue must all survive the move.
  EnableSubstrate(/*coalesce_window_us=*/1000);
  // Equal sizes give every parked message the same wire time, so arrival
  // order is release order.
  net.Send(0, 1, 100, TrafficClass::kForeground, Record(1));
  net.Send(0, 1, 100, TrafficClass::kForeground, Record(2));
  net.Send(0, 1, 100, TrafficClass::kBulk, Record(3));
  net.Send(0, 1, 100, TrafficClass::kBulk, Record(4));
  net.CutLink(0, 1);  // drains m1, m2 and the sealed {m3, m4} envelope
  EXPECT_EQ(net.messages_held(), 3u);
  EXPECT_EQ(net.link_messages(0, 1), 3u);
  EXPECT_EQ(net.bytes_sent(0), 400u);

  net.Grow(4);
  EXPECT_FALSE(net.reachable(0, 1));
  EXPECT_TRUE(net.any_cut());
  net.Send(3, 0, 1'000, TrafficClass::kForeground, Record(5));
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{5})) << "the pen released under the cut";
  EXPECT_FALSE(net.reachable(0, 1));
  EXPECT_EQ(net.messages_held(), 3u);

  net.HealLink(0, 1);
  EXPECT_TRUE(net.reachable(0, 1));
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 2, 3, 4}))
      << "the pen must release FIFO after the heal";
  EXPECT_EQ(net.link_messages(0, 1), 3u);
  EXPECT_EQ(net.bytes_sent(0), 400u);
  EXPECT_EQ(net.bytes_received(1), 400u);
  EXPECT_EQ(net.total_held(), 3u);
  EXPECT_EQ(net.cut_deliveries(), 0u);
}

}  // namespace
}  // namespace hermes::net
