#!/usr/bin/env python3
"""Alternating A/B pairs of two bench_ledger binaries, workload by workload.

    scripts/ledger_ab.py PARENT_BIN CHANGE_BIN WORKLOAD[,WORKLOAD...] PAIRS
                         [SECONDS] [SEED]

For each workload in the comma-separated list, in turn, runs PAIRS pairs of
`bench_ledger --mode=e2e --workload=WORKLOAD --seconds=SECONDS --seed=SEED`
(defaults: 20 s, seed 42), one run of each binary per pair. The order
alternates between pairs (parent first, then change first), so a drift in
host load falls on both sides alike. Each workload gets its own summary
block, printed once its pairs are done.

For the wall-clock metrics `wall_s`, `setup_s` and `peak_rss_mb` (lower is
better) it prints the parent's and the change's medians, the change's share
of the parent median, the pairs the change wins, and the interquartile range
of the parent's runs. A gain counts when the change wins at least nine
tenths of the pairs and its median beats the parent's by more than that
range.

Exit status: 0 when, on every workload, every run passed bench_ledger's
correctness gate and the deterministic metrics (txn/s, latency percentiles,
commit ratio, KB/txn) and the decision and placement digests are identical
across all runs of both binaries; 1 otherwise; 2 on bad arguments.
"""

import json
import statistics
import subprocess
import sys

WALL_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
EXACT_METRICS = ("txn_per_s", "latency_p50_ms", "latency_p99_ms",
                 "latency_p999_ms", "commit_ratio", "net_kb_per_txn")


def run(binary, workload, seconds, seed):
    """One e2e run: (metric values, digest line, correct flag)."""
    cmd = [binary, "--workload=" + workload, "--mode=e2e",
           "--seconds=" + seconds, "--seed=" + seed]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("error: %s printed nothing (exit %d): %s" %
                 (binary, proc.returncode, proc.stderr.strip()))
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    digests = next(
        (line for line in lines if line.startswith("decision_digest ")), "")
    return values, digests, proc.returncode == 0 and result["correct"]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def compare(parent_bin, change_bin, workload, pairs, seconds, seed):
    """Runs and summarises one workload's pairs; returns its exit status."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            binary = parent_bin if side == "parent" else change_bin
            runs[side].append(run(binary, workload, seconds, seed))
        p, c = runs["parent"][-1][0], runs["change"][-1][0]
        print("pair %d/%d: wall_s parent %.4f change %.4f" %
              (i + 1, pairs, p["wall_s"], c["wall_s"]), flush=True)

    print("%s seed=%s seconds=%s pairs=%d" % (workload, seed, seconds, pairs))
    print("%-12s %14s %14s %9s %7s %12s" %
          ("metric", "parent_median", "change_median", "change", "wins",
           "parent_iqr"))
    for m in WALL_METRICS:
        p = [r[0][m] for r in runs["parent"]]
        c = [r[0][m] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum(1 for a, b in zip(p, c) if b < a)
        share = (cm / pm - 1) * 100 if pm else 0.0
        print("%-12s %14.5g %14.5g %+8.1f%% %3d/%-3d %12.3g" %
              (m, pm, cm, share, wins, pairs, iqr(p)))

    status = 0
    if not all(r[2] for side in runs.values() for r in side):
        print("FAIL: a run failed bench_ledger's correctness gate")
        status = 1
    reference = runs["parent"][0]
    for side, results in runs.items():
        for values, digests, _ in results:
            for m in EXACT_METRICS:
                if values[m] != reference[0][m]:
                    print("FAIL: %s %s %r differs from %r" %
                          (side, m, values[m], reference[0][m]))
                    status = 1
            if digests != reference[1]:
                print("FAIL: %s digests '%s' differ from '%s'" %
                      (side, digests, reference[1]))
                status = 1
    if status == 0:
        print("deterministic metrics and digests identical: %s" %
              reference[1])
    return status


def main(argv):
    if not 5 <= len(argv) <= 7:
        print(" ".join(line.strip() for line in
                       __doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    parent_bin, change_bin, workloads, pairs = argv[1:5]
    seconds = argv[5] if len(argv) > 5 else "20"
    seed = argv[6] if len(argv) > 6 else "42"
    pairs = int(pairs)
    workloads = workloads.split(",")
    if pairs < 1:
        print("error: PAIRS must be at least 1", file=sys.stderr)
        return 2
    if "" in workloads:
        print("error: empty workload name in '%s'" % argv[3], file=sys.stderr)
        return 2

    status = 0
    for i, workload in enumerate(workloads):
        if i > 0:
            print()
        status |= compare(parent_bin, change_bin, workload, pairs, seconds,
                          seed)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
