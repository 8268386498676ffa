#include "routing/metis_lite.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/flat_map.h"

namespace hermes::routing {
namespace {

/// Greedy affinity seeding: vertices in descending weight order go to the
/// partition they have the most edge weight to, subject to the cap.
std::vector<int> GreedySeed(const Graph& g, int k, uint64_t cap,
                            std::vector<uint64_t>& part_weight) {
  const size_t n = g.num_vertices();
  std::vector<int> part(n, -1);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return g.vertex_weight[a] > g.vertex_weight[b];
  });

  std::vector<uint64_t> affinity(k, 0);
  for (uint32_t v : order) {
    std::fill(affinity.begin(), affinity.end(), 0);
    for (const auto& [u, w] : g.adj[v]) {
      if (part[u] >= 0) affinity[part[u]] += w;
    }
    int best = -1;
    for (int p = 0; p < k; ++p) {
      if (part_weight[p] + g.vertex_weight[v] > cap) continue;
      if (best < 0 || affinity[p] > affinity[best] ||
          (affinity[p] == affinity[best] &&
           part_weight[p] < part_weight[best])) {
        best = p;
      }
    }
    if (best < 0) {
      best = static_cast<int>(std::min_element(part_weight.begin(),
                                               part_weight.end()) -
                              part_weight.begin());
    }
    part[v] = best;
    part_weight[best] += g.vertex_weight[v];
  }
  return part;
}

/// Kernighan–Lin-style single-vertex refinement under the cap.
void Refine(const Graph& g, int k, uint64_t cap, int passes,
            std::vector<int>& part, std::vector<uint64_t>& part_weight) {
  const size_t n = g.num_vertices();
  std::vector<uint64_t> affinity(k, 0);
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (size_t v = 0; v < n; ++v) {
      std::fill(affinity.begin(), affinity.end(), 0);
      for (const auto& [u, w] : g.adj[v]) affinity[part[u]] += w;
      const int cur = part[v];
      int best = cur;
      for (int p = 0; p < k; ++p) {
        if (p == cur) continue;
        if (part_weight[p] + g.vertex_weight[v] > cap) continue;
        if (affinity[p] > affinity[best]) best = p;
      }
      if (best != cur) {
        part_weight[cur] -= g.vertex_weight[v];
        part_weight[best] += g.vertex_weight[v];
        part[v] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

/// Heavy-edge matching: each vertex pairs with its heaviest-edge unmatched
/// neighbor (visiting heavy vertices first), the classic METIS coarsening
/// step that glues strongly co-accessed vertices together before any
/// partitioning decision is made.
std::vector<uint32_t> HeavyEdgeMatch(const Graph& g, uint64_t cap) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> match(n);
  std::iota(match.begin(), match.end(), 0);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return g.vertex_weight[a] > g.vertex_weight[b];
  });
  std::vector<bool> matched(n, false);
  for (uint32_t v : order) {
    if (matched[v]) continue;
    uint32_t best = v;
    uint64_t best_w = 0;
    for (const auto& [u, w] : g.adj[v]) {
      if (u == v || matched[u]) continue;
      // Never grow a supervertex past the partition cap, or it could not
      // be placed anywhere later.
      if (g.vertex_weight[v] + g.vertex_weight[u] > cap) continue;
      if (w > best_w || (w == best_w && u < best)) {
        best = u;
        best_w = w;
      }
    }
    matched[v] = true;
    if (best != v) {
      matched[best] = true;
      match[v] = best;
      match[best] = v;
    }
  }
  return match;
}

/// Moves vertices off overweight partitions (cheapest cut increase first)
/// until every partition fits under the cap or no further move helps.
void RepairBalance(const Graph& g, int k, uint64_t cap,
                   std::vector<int>& part,
                   std::vector<uint64_t>& part_weight) {
  const size_t n = g.num_vertices();
  std::vector<uint64_t> affinity(k, 0);
  for (int guard = 0; guard < static_cast<int>(n) + 16; ++guard) {
    int heavy = -1;
    for (int p = 0; p < k; ++p) {
      if (part_weight[p] > cap && (heavy < 0 || part_weight[p] > part_weight[heavy])) {
        heavy = p;
      }
    }
    if (heavy < 0) return;
    // Cheapest vertex to shed: minimizes lost affinity minus gained.
    int best_v = -1, best_target = -1;
    int64_t best_cost = 0;
    for (size_t v = 0; v < n; ++v) {
      if (part[v] != heavy) continue;
      std::fill(affinity.begin(), affinity.end(), 0);
      for (const auto& [u, w] : g.adj[v]) affinity[part[u]] += w;
      for (int p = 0; p < k; ++p) {
        if (p == heavy) continue;
        if (part_weight[p] + g.vertex_weight[v] > cap) continue;
        const int64_t cost = static_cast<int64_t>(affinity[heavy]) -
                             static_cast<int64_t>(affinity[p]);
        if (best_v < 0 || cost < best_cost) {
          best_v = static_cast<int>(v);
          best_target = p;
          best_cost = cost;
        }
      }
    }
    if (best_v < 0) return;  // nothing movable
    part_weight[heavy] -= g.vertex_weight[best_v];
    part_weight[best_target] += g.vertex_weight[best_v];
    part[best_v] = best_target;
  }
}

std::vector<int> PartitionRecursive(const Graph& g, int k, uint64_t cap,
                                    int refinement_passes, int depth) {
  const size_t n = g.num_vertices();
  // Base case: small enough (or max depth) for direct greedy + refine.
  if (n <= static_cast<size_t>(2 * k) || depth >= 16) {
    std::vector<uint64_t> part_weight(k, 0);
    std::vector<int> part = GreedySeed(g, k, cap, part_weight);
    Refine(g, k, cap, refinement_passes, part, part_weight);
    return part;
  }

  // Coarsen.
  const std::vector<uint32_t> match = HeavyEdgeMatch(g, cap);
  std::vector<uint32_t> coarse_id(n);
  uint32_t next = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (match[v] >= v) coarse_id[v] = next++;  // v is group representative
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (match[v] < v) coarse_id[v] = coarse_id[match[v]];
  }
  if (next == n) {  // no edges matched: stop coarsening
    std::vector<uint64_t> part_weight(k, 0);
    std::vector<int> part = GreedySeed(g, k, cap, part_weight);
    Refine(g, k, cap, refinement_passes, part, part_weight);
    return part;
  }

  Graph coarse;
  coarse.vertex_weight.assign(next, 0);
  coarse.adj.assign(next, {});
  for (uint32_t v = 0; v < n; ++v) {
    coarse.vertex_weight[coarse_id[v]] += g.vertex_weight[v];
  }
  FlatMap<uint64_t, uint64_t> edges;  // (a << 32 | b) -> weight, a < b
  for (uint32_t v = 0; v < n; ++v) {
    for (const auto& [u, w] : g.adj[v]) {
      const uint32_t a = coarse_id[v];
      const uint32_t b = coarse_id[u];
      if (a >= b) continue;  // undirected: count each pair once, skip self
      edges[(static_cast<uint64_t>(a) << 32) | b] += w;
    }
  }
  // Ascending (a, b) pairs with a < b reach each vertex's list as its lower
  // neighbours, then its higher ones: every list comes out sorted.
  for (uint64_t packed : edges.SortedKeys()) {
    const auto a = static_cast<uint32_t>(packed >> 32);
    const auto b = static_cast<uint32_t>(packed & 0xffffffffULL);
    const uint64_t w = edges.at(packed);
    coarse.adj[a].emplace_back(b, w);
    coarse.adj[b].emplace_back(a, w);
  }

  // Partition the coarse graph, project back, refine at this level.
  const std::vector<int> coarse_part =
      PartitionRecursive(coarse, k, cap, refinement_passes, depth + 1);
  std::vector<int> part(n);
  std::vector<uint64_t> part_weight(k, 0);
  for (uint32_t v = 0; v < n; ++v) {
    part[v] = coarse_part[coarse_id[v]];
    part_weight[part[v]] += g.vertex_weight[v];
  }
  RepairBalance(g, k, cap, part, part_weight);
  Refine(g, k, cap, refinement_passes, part, part_weight);
  return part;
}

}  // namespace

uint64_t Graph::CutWeight(const std::vector<int>& assignment) const {
  uint64_t cut = 0;
  for (size_t v = 0; v < adj.size(); ++v) {
    for (const auto& [u, w] : adj[v]) {
      if (u > v && assignment[u] != assignment[v]) cut += w;
    }
  }
  return cut;
}

std::vector<int> PartitionGraph(const Graph& graph, int k, double imbalance,
                                int refinement_passes) {
  assert(k > 0);
  if (graph.num_vertices() == 0) return {};
  const uint64_t total = std::accumulate(graph.vertex_weight.begin(),
                                         graph.vertex_weight.end(), 0ULL);
  const auto cap = static_cast<uint64_t>(
      (1.0 + imbalance) * static_cast<double>(total) / k) + 1;
  return PartitionRecursive(graph, k, cap, refinement_passes, 0);
}

}  // namespace hermes::routing
