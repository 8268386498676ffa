// Server consolidation (§3.3): the paper evaluates scale-out (Fig. 14) and
// argues the same hybrid hot/cold mechanism covers consolidation; this
// bench exercises that direction. A 4-node cluster removes node 3 at
// runtime: its hot records leave via the fusion table (evicted to their
// future homes by the removal marker), the cold ranges via chunk
// transactions, and the survivors absorb the load.

#include <cstdio>

#include "bench_common.h"

namespace {

using hermes::workload::Scenario;

std::vector<double> RunScaleIn(const char* line) {
  const Scenario scenario = hermes::workload::MustParse(line);
  const hermes::workload::DrainedRun run =
      hermes::workload::RunScenario(scenario);
  std::printf("  [%s] node 3 records after drain: %zu\n",
              hermes::engine::RouterKindName(scenario.router),
              run.cluster->node(3).store().size());
  return hermes::bench::Measure(scenario, *run.cluster).throughput;
}

}  // namespace

int main() {
  const Scenario& consolidation =
      hermes::workload::Registered("consolidation");
  std::printf("Consolidation (§3.3): remove node 3 from a 4-node cluster "
              "at t=%llus\n",
              static_cast<unsigned long long>(consolidation.steps[0].at /
                                              1'000'000));

  // Node 3's ranges re-home round-robin across the survivors.
  const auto calvin = RunScaleIn("consolidation router=calvin");
  const auto hermes_series = RunScaleIn("consolidation");

  hermes::bench::PrintSeriesTable(
      "Consolidation: throughput during scale-in", {"calvin_squall", "hermes"},
      {calvin, hermes_series}, consolidation.window / 1e6,
      "committed txns per 2s window");
  std::printf("\nexpected shape: both drop to ~3/4 capacity after the node "
              "leaves; hermes transitions smoothly (hot records leave via "
              "data fusion, chunks skip them), calvin+squall dips during "
              "the migration\n");
  return 0;
}
