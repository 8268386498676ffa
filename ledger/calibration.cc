#include "calibration.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace hermes::ledger {
namespace {
volatile uint64_t g_sink = 0;
}  // namespace

double ReferenceKernelSeconds() {
  constexpr uint64_t kKeys = 1'500'000;
  constexpr int kRounds = 400'000;
  constexpr size_t kClosureBatch = 1024;
  constexpr size_t kQueueDepth = 4096;

  struct Event {
    uint64_t time;
    uint64_t seq;
    bool operator<(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  const int64_t start = WallNs();
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(kKeys);
  std::priority_queue<Event> queue;
  std::vector<std::function<void()>> closures;
  std::vector<std::unique_ptr<std::vector<uint64_t>>> blobs(4096);
  uint64_t x = 88172645463325252ULL;
  uint64_t sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int round = 0; round < kRounds; ++round) {
    table[next() % kKeys] += round;
    if (auto it = table.find(next() % kKeys); it != table.end()) {
      sum += it->second;
    }
    if (round % 4 == 0) table.erase(next() % kKeys);

    queue.push(Event{next() % 1000, static_cast<uint64_t>(round)});
    if (queue.size() > kQueueDepth) {
      sum += queue.top().time;
      queue.pop();
    }

    const uint64_t a = next(), b = next(), c = next(), d = next(), e = next();
    closures.emplace_back([a, b, c, d, e, &sum] { sum += a ^ b ^ c ^ d ^ e; });
    if (closures.size() >= kClosureBatch) {
      for (auto& fn : closures) fn();
      closures.clear();
    }

    auto& blob = blobs[next() % blobs.size()];
    blob = std::make_unique<std::vector<uint64_t>>(1 + next() % 24, sum);
  }
  // Every step feeds `sum`; the volatile store keeps the work observable.
  g_sink = sum;
  return static_cast<double>(WallNs() - start) / 1e9;
}

}  // namespace hermes::ledger
