#include "routing/metis_lite.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "digest_oracle.h"

namespace hermes::routing {
namespace {

Graph ChainGraph(size_t n, uint64_t edge_weight) {
  Graph g;
  g.vertex_weight.assign(n, 1);
  g.adj.assign(n, {});
  for (uint32_t v = 0; v + 1 < n; ++v) {
    g.adj[v].emplace_back(v + 1, edge_weight);
    g.adj[v + 1].emplace_back(v, edge_weight);
  }
  return g;
}

TEST(MetisLiteTest, AssignsEveryVertex) {
  Graph g = ChainGraph(100, 1);
  const auto part = PartitionGraph(g, 4, 0.1);
  ASSERT_EQ(part.size(), 100u);
  for (int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(MetisLiteTest, BalancesVertexWeight) {
  Graph g = ChainGraph(100, 1);
  const auto part = PartitionGraph(g, 4, 0.1);
  std::vector<uint64_t> weight(4, 0);
  for (size_t v = 0; v < 100; ++v) weight[part[v]] += g.vertex_weight[v];
  for (uint64_t w : weight) {
    EXPECT_LE(w, static_cast<uint64_t>(1.1 * 100 / 4) + 1);
  }
}

TEST(MetisLiteTest, ChainCutIsSmall) {
  // An optimal 4-way partition of a chain cuts 3 edges.
  Graph g = ChainGraph(100, 1);
  const auto part = PartitionGraph(g, 4, 0.1);
  EXPECT_LE(g.CutWeight(part), 8u);
}

TEST(MetisLiteTest, KeepsCliquesTogether) {
  // Four 10-vertex cliques, no inter-clique edges: zero cut achievable.
  Graph g;
  g.vertex_weight.assign(40, 1);
  g.adj.assign(40, {});
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        if (i == j) continue;
        g.adj[c * 10 + i].emplace_back(c * 10 + j, 100);
      }
    }
  }
  const auto part = PartitionGraph(g, 4, 0.1);
  EXPECT_EQ(g.CutWeight(part), 0u);
  for (int c = 0; c < 4; ++c) {
    for (int i = 1; i < 10; ++i) {
      EXPECT_EQ(part[c * 10 + i], part[c * 10]);
    }
  }
}

TEST(MetisLiteTest, SinglePartitionTakesAll) {
  Graph g = ChainGraph(10, 1);
  const auto part = PartitionGraph(g, 1, 0.1);
  for (int p : part) EXPECT_EQ(p, 0);
}

TEST(MetisLiteTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(PartitionGraph(g, 3, 0.1).empty());
}

TEST(MetisLiteTest, DeterministicAcrossRuns) {
  Rng rng(3);
  Graph g;
  g.vertex_weight.assign(200, 1);
  g.adj.assign(200, {});
  for (int e = 0; e < 600; ++e) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(200));
    const auto b = static_cast<uint32_t>(rng.NextBounded(200));
    if (a == b) continue;
    g.adj[a].emplace_back(b, 1 + rng.NextBounded(5));
    g.adj[b].emplace_back(a, g.adj[a].back().second);
  }
  EXPECT_EQ(PartitionGraph(g, 5, 0.1), PartitionGraph(g, 5, 0.1));
}

TEST(MetisLiteTest, RefinementImprovesCut) {
  Rng rng(9);
  Graph g;
  g.vertex_weight.assign(100, 1);
  g.adj.assign(100, {});
  // Two communities with dense intra edges and sparse cross edges.
  for (int e = 0; e < 800; ++e) {
    const int side = static_cast<int>(rng.NextBounded(2)) * 50;
    const auto a = static_cast<uint32_t>(side + rng.NextBounded(50));
    const auto b = static_cast<uint32_t>(side + rng.NextBounded(50));
    if (a == b) continue;
    g.adj[a].emplace_back(b, 10);
    g.adj[b].emplace_back(a, 10);
  }
  for (int e = 0; e < 20; ++e) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(50));
    const auto b = static_cast<uint32_t>(50 + rng.NextBounded(50));
    g.adj[a].emplace_back(b, 1);
    g.adj[b].emplace_back(a, 1);
  }
  const auto with = PartitionGraph(g, 2, 0.1, /*refinement_passes=*/8);
  const auto without = PartitionGraph(g, 2, 0.1, /*refinement_passes=*/0);
  EXPECT_LE(g.CutWeight(with), g.CutWeight(without));
  // The communities should largely end up separated.
  EXPECT_LE(g.CutWeight(with), 100u);
}

// Golden assignment of a seeded 300-vertex graph with uneven vertex
// weights and parallel edges, large enough to coarsen several levels
// (each level merges parallel coarse edges). Pinned as an order-sensitive
// fingerprint plus the cut, under two hash salts.
TEST(MetisLiteTest, SeededPartitionIsPinned) {
  Rng rng(4242);
  Graph g;
  g.vertex_weight.assign(300, 0);
  for (uint64_t& w : g.vertex_weight) w = 1 + rng.NextBounded(4);
  g.adj.assign(300, {});
  for (int e = 0; e < 1500; ++e) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(300));
    // Mostly local edges, so matching finds heavy neighbourhoods.
    const auto b = static_cast<uint32_t>(
        e % 4 == 0 ? rng.NextBounded(300)
                   : (a + 1 + rng.NextBounded(8)) % 300);
    if (a == b) continue;
    const uint64_t w = 1 + rng.NextBounded(9);
    g.adj[a].emplace_back(b, w);
    g.adj[b].emplace_back(a, w);
  }
  for (uint64_t salt : {uint64_t{1}, uint64_t{0xdeadbeefcafef00d}}) {
    oracle::SaltGuard guard(salt);
    const std::vector<int> part = PartitionGraph(g, 5, 0.1);
    uint64_t fingerprint = 0;
    for (int p : part) {
      fingerprint = Mix64(fingerprint ^ static_cast<uint64_t>(p));
    }
    EXPECT_EQ(fingerprint, 0xdb74eaf5d3504849ULL) << "salt " << salt;
    EXPECT_EQ(g.CutWeight(part), 1777u) << "salt " << salt;
  }
}

}  // namespace
}  // namespace hermes::routing
