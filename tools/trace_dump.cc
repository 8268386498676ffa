// trace_dump — runs the digest oracle's chaos lifetime (a seeded
// crash/rejoin plan under link chaos) with tracing enabled and writes the
// Chrome trace_event JSON to the given path (default trace.json). Load the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing; CI uploads one
// as a build artifact so every run has a browsable timeline of a
// crash/rejoin cycle under link chaos.
//
//   trace_dump [out.json] [plan_seed]
//
// The run is a pure function of (plan_seed, config, HERMES_HASH_SALT):
// the printed TRACE_DIGEST is bit-identical across reruns and salts.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "digest_oracle.h"

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace.json";
  const uint64_t plan_seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20'260'000ULL;

  const hermes::oracle::Profile run =
      hermes::oracle::RunChaos(plan_seed, {.traced = true});

  std::ofstream out(out_path, std::ios::binary);
  out << run.Text("trace_json");
  out.close();
  if (!out) {
    std::fprintf(stderr, "trace_dump: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("TRACE_DIGEST %s events=%llu dropped=%llu\n",
              run.Text("trace").c_str(),
              static_cast<unsigned long long>(run.Get("events")),
              static_cast<unsigned long long>(run.Get("trace_dropped")));
  std::printf("commits=%llu aborts=%llu -> %s\n",
              static_cast<unsigned long long>(run.Get("commits")),
              static_cast<unsigned long long>(run.Get("aborts")),
              out_path.c_str());
  return 0;
}
