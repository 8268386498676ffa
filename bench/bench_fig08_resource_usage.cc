// Reproduces Fig. 8: average CPU utilization and network bytes per
// transaction over time under the Google workload.
//
// Expected shape (paper): Hermes sustains the highest CPU utilization
// (better load balancing lets it use the cluster) while its per-txn
// network usage is comparable to — sometimes below — the baselines
// (fewer distributed transactions); Clay shows network spikes from its
// dedicated migration phases.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using hermes::bench::Columns;
using hermes::bench::PrintSeriesTable;
using hermes::bench::Run;
using hermes::bench::RunResult;

namespace {

// Wire-substrate section (DESIGN.md §5 "Wire substrate"): the same
// workload on a congested fabric, over six windows on 5 nodes (fewer links,
// denser per-link streams) with 8-record transactions (multi-record
// returns arrive as bursts). T-Part's return migrations keep a steady
// stream of single-record bulk shipments on the wire; with the substrate
// enabled and a slow per-link serializer, foreground messages queue behind
// them. The fabric is a chatty RPC one: small records behind a large
// per-message framing header, with little serializer headroom. This is
// where envelopes pay: every record folded into one saves a whole header
// (T-Part returns each record as its own bulk message). Envelope
// coalescing folds those records into fewer framed messages — the saved
// framing headers are the difference between a serializer that keeps up
// and one that builds a queue.
constexpr const char* kCongested =
    "google router=tpart clients=800 horizon=24s num_nodes=5 "
    "costs.record_bytes=128 costs.message_overhead_bytes=512 net.enabled=1 "
    "net.bytes_per_us=1.2 ycsb.distributed_ratio=0.7 ycsb.length_mean=8";

void PrintNetLine(const char* label, const RunResult& r) {
  std::printf("NET %s fg_delay_p50_us=%llu fg_delay_p99_us=%llu "
              "bulk_delay_p99_us=%llu envelopes=%llu coalesced=%llu "
              "credit_stalls=%llu p99_latency_us=%llu throughput=%.0f\n",
              label,
              static_cast<unsigned long long>(r.wire_fg_delay_p50_us),
              static_cast<unsigned long long>(r.wire_fg_delay_p99_us),
              static_cast<unsigned long long>(r.wire_bulk_delay_p99_us),
              static_cast<unsigned long long>(r.wire_envelopes),
              static_cast<unsigned long long>(r.wire_coalesced),
              static_cast<unsigned long long>(r.wire_credit_stalls),
              static_cast<unsigned long long>(r.latency_p99_us),
              r.mean_throughput);
}

}  // namespace

int main() {
  std::printf("Fig. 8 reproduction: CPU and network usage over time\n");
  const double window_s = hermes::workload::Registered("google").window / 1e6;

  std::vector<std::string> names;
  std::vector<RunResult> runs;
  for (const hermes::bench::System& system : hermes::bench::Systems()) {
    names.push_back(system.name);
    runs.push_back(Run("google " + system.keys));
  }

  PrintSeriesTable("Fig 8a: average CPU usage", names,
                   Columns(runs, &RunResult::cpu, 100.0), window_s,
                   "percent of worker capacity");

  PrintSeriesTable("Fig 8b: network usage per transaction", names,
                   Columns(runs, &RunResult::net_per_txn), window_s,
                   "bytes per committed txn");

  // Receiver-side view of the same traffic. On the fault-free runs here it
  // tracks Fig 8b modulo messages in flight across a window boundary; under
  // a chaos profile (bench_fault_recovery) the two diverge by the dropped
  // and duplicated wire attempts.
  PrintSeriesTable("Fig 8c: network bytes received per transaction", names,
                   Columns(runs, &RunResult::net_recv_per_txn), window_s,
                   "bytes per committed txn");

  // Fig 8d: migration traffic vs a bounded wire. Both runs below enable
  // the wire substrate with a slow serializer; they differ only in
  // whether bulk shipments coalesce into envelopes. Coalescing folds one
  // sequencing epoch of returns per envelope; the size cap keeps
  // head-of-line blocking near a single raw message.
  const RunResult raw =
      Run(std::string(kCongested) + " net.coalesce_window_us=0");
  const RunResult coalesced = Run(std::string(kCongested) +
                                  " net.coalesce_window_us=10ms "
                                  "net.coalesce_max_bytes=768");

  PrintSeriesTable(
      "Fig 8d: per-class wire bytes per transaction (congested fabric)",
      {"fg_raw", "bulk_raw", "fg_coalesced", "bulk_coalesced"},
      {raw.net_fg_per_txn, raw.net_bulk_per_txn, coalesced.net_fg_per_txn,
       coalesced.net_bulk_per_txn},
      window_s, "bytes per committed txn");

  PrintNetLine("congested_raw", raw);
  PrintNetLine("congested_coalesced", coalesced);

  std::printf("\npaper shape: hermes uses the most CPU (balanced load) with "
              "network per txn at or below the baselines; on the congested "
              "fabric, coalescing the bulk migration stream cuts the "
              "foreground p99 queueing delay\n");
  return 0;
}
