// trace_dump — runs one scenario line (workload/scenarios.h) and writes the
// Chrome trace_event JSON to the given path (default trace.json). Load the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing. The default
// line is the digest oracle's traced chaos lifetime, a seeded crash/rejoin
// plan under link chaos; CI uploads its trace as a build artifact so every
// run has a browsable timeline of a crash/rejoin cycle. A digest-oracle
// failure prints the line that replays it here.
//
//   trace_dump [out.json] ['scenario line']
//
// e.g. trace_dump out.json 'chaos obs.trace_enabled=1 plan_seed=20260007'.
// The run is a pure function of (line, HERMES_HASH_SALT): the printed
// TRACE_DIGEST is bit-identical across reruns and salts. A line without
// obs.trace_enabled=1 records nothing (unless HERMES_TRACE is set).

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/scenarios.h"

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace.json";
  const char* line = argc > 2 ? argv[2] : "chaos obs.trace_enabled=1";
  hermes::workload::Scenario scenario;
  const hermes::Status status =
      hermes::workload::Scenario::Parse(line, &scenario);
  if (!status.ok()) {
    std::fprintf(stderr, "trace_dump: %s\n", status.message().c_str());
    return 2;
  }
  const hermes::workload::DrainedRun run =
      hermes::workload::RunScenario(scenario);
  const hermes::engine::Cluster& cluster = *run.cluster;

  std::ofstream out(out_path, std::ios::binary);
  out << cluster.TraceJson();
  out.close();
  if (!out) {
    std::fprintf(stderr, "trace_dump: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("TRACE_DIGEST %016llx events=%llu dropped=%llu\n",
              static_cast<unsigned long long>(cluster.trace_digest().value()),
              static_cast<unsigned long long>(
                  cluster.tracer().total_recorded()),
              static_cast<unsigned long long>(
                  cluster.tracer().total_dropped()));
  std::printf("commits=%llu aborts=%llu -> %s\n",
              static_cast<unsigned long long>(
                  cluster.metrics().total_commits()),
              static_cast<unsigned long long>(cluster.metrics().total_aborts()),
              out_path.c_str());
  if (!run.monitors_ok) {
    std::printf("%s", run.report.c_str());
    return 1;
  }
  return 0;
}
