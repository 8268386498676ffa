#!/usr/bin/env sh
# Multi-salt determinism check, cross-process edition.
#
# The in-process determinism_perturbation_test already reruns the workload
# under several SetHashSalt() values. This wrapper additionally proves the
# HERMES_HASH_SALT *environment* path: it runs the test binary in separate
# processes under distinct env salts and requires every DECISION_DIGEST it
# prints — across all processes and all in-process salts — to be one value.
# Any difference means some decision depends on hash iteration order.
#
# The chaos profile does the same for a seeded fault plan (mid-run crash
# + rejoin + link drop/duplicate/jitter): every CHAOS_PROFILE line —
# decision digest, placement digest, state checksum, commit count, chaos
# counters and recovery times — must be one value across the env salts.
#
# The degraded profile covers the kCrashNoStall path: the cluster keeps
# sequencing through the outage, so the DEGRADED_PROFILE line additionally
# folds in the retry-transcript digest and the park/retry/watchdog
# counters — the full degraded decision history must be salt-invariant,
# not just the end state.
#
# The partition profile covers the network-partition path: a seeded
# plan cuts links (two-sided and one-way), runs a gray link, and lets
# the heartbeat failure detector drive membership epochs; its
# PARTITION_PROFILE line (digests, checksums, held/miss/suspect/restore
# counters, retry digest) must be one value across the env salts.
#
# The trace block does the same for the observability subsystem: every
# TRACE_DIGEST line trace_determinism_test prints (the FNV-1a digest over
# the full structured event stream) must be one value across the env
# salts — the trace, like the decisions it observes, is a pure function
# of (config, seeds).
#
# Usage: scripts/check_determinism.sh [build-dir]   (default: build)

set -eu

BUILD_DIR="${1:-build}"
TEST_BIN="$BUILD_DIR/tests/determinism_perturbation_test"
CHAOS_BIN="$BUILD_DIR/tests/chaos_property_test"
TRACE_BIN="$BUILD_DIR/tests/trace_determinism_test"
LEASE_BIN="$BUILD_DIR/tests/replica_lease_test"

PARTITION_BIN="$BUILD_DIR/tests/partition_chaos_test"
NET_BIN="$BUILD_DIR/tests/wire_determinism_test"

for bin in "$TEST_BIN" "$CHAOS_BIN" "$TRACE_BIN" "$LEASE_BIN" \
    "$PARTITION_BIN" "$NET_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
    exit 2
  fi
done

# Env salts for the separate processes. 0 is the unsalted default; the
# others are arbitrary and distinct from the test's in-process constants.
SALTS="0 0x5bd1e9955bd1e995 0x94d049bb133111eb"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

for salt in $SALTS; do
  echo "== HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$TEST_BIN" \
    --gtest_filter='DeterminismPerturbationTest.*' | tee -a "$out"
done

digests="$(sed -n 's/.*DECISION_DIGEST \([0-9a-f]*\) .*/\1/p' "$out" | sort -u)"
count="$(printf '%s\n' "$digests" | grep -c . || true)"

if [ "$count" -ne 1 ]; then
  echo "FAIL: expected one decision digest across all salts, got $count:" >&2
  printf '%s\n' "$digests" >&2
  exit 1
fi

echo "OK: decision digest $digests identical across all env and in-process salts"

# Chaos profile: one seeded fault plan per process, identical outcome line
# (digests, checksum, commits, drop/dup counts, recovery times) required.
chaos_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out"' EXIT

for salt in $SALTS; do
  echo "== chaos HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$CHAOS_BIN" \
    --gtest_filter='ChaosScriptProfile.*' | tee -a "$chaos_out"
done

profiles="$(sed -n 's/^CHAOS_PROFILE //p' "$chaos_out" | sort -u)"
profile_count="$(printf '%s\n' "$profiles" | grep -c . || true)"

if [ "$profile_count" -ne 1 ]; then
  echo "FAIL: expected one chaos outcome across all salts, got $profile_count:" >&2
  printf '%s\n' "$profiles" >&2
  exit 1
fi

echo "OK: chaos outcome identical across all env salts:"
echo "  $profiles"

# Degraded profile: the same processes also print a DEGRADED_PROFILE line
# for a seeded no-stall plan (crash without intake pause). Its retry
# transcript digest and counters must be one value across the env salts.
degraded="$(sed -n 's/^DEGRADED_PROFILE //p' "$chaos_out" | sort -u)"
degraded_count="$(printf '%s\n' "$degraded" | grep -c . || true)"

if [ "$degraded_count" -ne 1 ]; then
  echo "FAIL: expected one degraded outcome across all salts, got $degraded_count:" >&2
  printf '%s\n' "$degraded" >&2
  exit 1
fi

echo "OK: degraded outcome identical across all env salts:"
echo "  $degraded"

# Trace digests: every TRACE_DIGEST printed by trace_determinism_test —
# across all processes and all in-process salts — must be one value.
trace_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out" "$trace_out"' EXIT

for salt in $SALTS; do
  echo "== trace HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$TRACE_BIN" \
    --gtest_filter='TraceDeterminismTest.TraceBitIdenticalAcrossSalts' \
    | tee -a "$trace_out"
done

trace_digests="$(sed -n 's/.*TRACE_DIGEST \([0-9a-f]*\) .*/\1/p' "$trace_out" | sort -u)"
trace_count="$(printf '%s\n' "$trace_digests" | grep -c . || true)"

if [ "$trace_count" -ne 1 ]; then
  echo "FAIL: expected one trace digest across all salts, got $trace_count:" >&2
  printf '%s\n' "$trace_digests" >&2
  exit 1
fi

echo "OK: trace digest $trace_digests identical across all env and in-process salts"

# Replication profile: the replica-lease digest oracle reruns a
# read-heavy leased workload (with a mid-run crash/rejoin lapsing every
# lease) per in-process salt and prints a REPLICATION_PROFILE line —
# decision/placement/trace digests, replica checksum, state checksum,
# commit and lease counters. Every line across env and in-process salts
# must be one value.
lease_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out" "$trace_out" "$lease_out"' EXIT

for salt in $SALTS; do
  echo "== replication HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$LEASE_BIN" \
    --gtest_filter='ReplicaLeaseTest.DigestsInvariantAcrossSalts' \
    | tee -a "$lease_out"
done

lease_profiles="$(sed -n 's/^REPLICATION_PROFILE //p' "$lease_out" | sort -u)"
lease_count="$(printf '%s\n' "$lease_profiles" | grep -c . || true)"

if [ "$lease_count" -ne 1 ]; then
  echo "FAIL: expected one replication profile across salts, got $lease_count:" >&2
  printf '%s\n' "$lease_profiles" >&2
  exit 1
fi

echo "OK: replication profile identical across all env and in-process salts:"
echo "  $lease_profiles"

# Partition profile: a seeded partition plan (two-sided + one-way cuts,
# gray link, heartbeat failure detector converting sustained
# unreachability into membership epochs) runs once per env salt and
# prints a PARTITION_PROFILE line — decision/placement/trace
# digests, state checksum, replica checksum, commit count, held-message
# and heartbeat-miss counters, suspect/restore counts, and the degraded
# retry-transcript digest. The detector's verdicts and the holding-pen
# release order must be pure functions of (plan seed, config), so every
# line across salts must be one value.

partition_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out" "$trace_out" "$lease_out" "$partition_out"' EXIT

for salt in $SALTS; do
  echo "== partition HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$PARTITION_BIN" \
    --gtest_filter='PartitionScriptProfile.*' | tee -a "$partition_out"
done

partition_profiles="$(sed -n 's/^PARTITION_PROFILE //p' "$partition_out" | sort -u)"
partition_count="$(printf '%s\n' "$partition_profiles" | grep -c . || true)"

if [ "$partition_count" -ne 1 ]; then
  echo "FAIL: expected one partition profile across salts, got $partition_count:" >&2
  printf '%s\n' "$partition_profiles" >&2
  exit 1
fi

echo "OK: partition profile identical across all env salts:"
echo "  $partition_profiles"

# Net profile: a seeded net-enabled lifetime (bounded-bandwidth links,
# envelope coalescing, credit backpressure; plus a mid-run AddNode and a
# partition cut/heal cycle draining a transmit queue into the pens) runs
# once per env salt and prints a NET_PROFILE line —
# decision/placement/trace digests, state checksum, commit count,
# envelope/coalesce/transmit/stall counters, and the per-class queueing
# p99s. Queueing, arbitration and coalescing must be pure functions of
# (config, send order, virtual time), so every line across salts must be
# one value.

net_out="$(mktemp)"
trap 'rm -f "$out" "$chaos_out" "$trace_out" "$lease_out" "$partition_out" "$net_out"' EXIT

for salt in $SALTS; do
  echo "== net HERMES_HASH_SALT=$salt =="
  HERMES_HASH_SALT="$salt" "$NET_BIN" \
    --gtest_filter='NetScriptProfile.*' | tee -a "$net_out"
done

net_profiles="$(sed -n 's/^NET_PROFILE //p' "$net_out" | sort -u)"
net_count="$(printf '%s\n' "$net_profiles" | grep -c . || true)"

if [ "$net_count" -ne 1 ]; then
  echo "FAIL: expected one net profile across salts, got $net_count:" >&2
  printf '%s\n' "$net_profiles" >&2
  exit 1
fi

echo "OK: net profile identical across all env salts:"
echo "  $net_profiles"
