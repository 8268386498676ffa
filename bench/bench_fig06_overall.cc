// Reproduces Fig. 6(a)(b): overall throughput of Hermes and the baselines
// under the complex Google workload.
//
//  (a) vs look-back approaches: Calvin (range), Clay, Schism 1/2 (offline
//      "optimal" plans trained on two distinct trace windows).
//  (b) vs on-line approaches: Calvin, G-Store, T-Part, LEAP.
//
// Expected shape (paper): Clay ~ Calvin; each Schism plan helps only near
// its training window; G-Store ~ Calvin (+2%), LEAP above them, T-Part
// higher still, Hermes best overall (29%-137% over the baselines).

#include <cstdio>

#include "bench_common.h"

using hermes::bench::MeanOf;
using hermes::bench::PrintSeriesTable;
using hermes::bench::Run;
using hermes::bench::RunResult;

int main() {
  std::printf("Fig. 6 reproduction: overall throughput under the synthetic "
              "Google workload\n");
  const hermes::workload::Scenario& google =
      hermes::workload::Registered("google");
  const double window_s = google.window / 1e6;
  const size_t n = google.horizon / google.window;

  // ---- (a) look-back approaches ----
  const RunResult calvin = Run("google router=calvin");
  const RunResult clay = Run("google router=calvin clay=1");
  // Schism's offline plans, trained on trace windows [1, 4) and [7, 10).
  const RunResult schism1 =
      Run("google router=calvin placement=schism schism_from=4s "
          "schism_to=16s");
  const RunResult schism2 =
      Run("google router=calvin placement=schism schism_from=28s "
          "schism_to=40s");
  const RunResult hermes = Run("google");

  PrintSeriesTable(
      "Fig 6a: Hermes vs look-back approaches",
      {"calvin", "clay", "schism1", "schism2", "hermes"},
      {calvin.throughput, clay.throughput, schism1.throughput,
       schism2.throughput, hermes.throughput},
      window_s, "committed txns per window");

  // ---- (b) on-line approaches ----
  const RunResult gstore = Run("google router=gstore");
  const RunResult tpart = Run("google router=tpart");
  const RunResult leap = Run("google router=leap");

  PrintSeriesTable(
      "Fig 6b: Hermes vs on-line approaches",
      {"calvin", "gstore", "tpart", "leap", "hermes"},
      {calvin.throughput, gstore.throughput, tpart.throughput,
       leap.throughput, hermes.throughput},
      window_s, "committed txns per window");

  std::printf("\nsummary (mean txn/window, windows 2..%zu):\n", n);
  auto row = [&](const char* name, const RunResult& r) {
    std::printf("  %-8s %8.0f  (%+.0f%% vs calvin)\n", name,
                MeanOf(r.throughput, 2, n),
                100.0 * (MeanOf(r.throughput, 2, n) /
                             MeanOf(calvin.throughput, 2, n) -
                         1.0));
  };
  row("calvin", calvin);
  row("clay", clay);
  row("schism1", schism1);
  row("schism2", schism2);
  row("gstore", gstore);
  row("tpart", tpart);
  row("leap", leap);
  row("hermes", hermes);
  return 0;
}
