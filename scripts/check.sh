#!/usr/bin/env bash
# CI check: configure, build and test the whole tree with warnings as
# errors.  This is the tier-1 verify pipeline (ROADMAP.md) plus
# -Wall -Wextra -Werror, suitable for a CI job:
#
#   ./scripts/check.sh [--tsan | --asan | --bench | --stress | --crash] \
#                      [build-dir]
#
#   --tsan   build and test under ThreadSanitizer (certifies the blocking
#            concurrent session API; see tests/concurrency_test.cc)
#   --asan   build and test under AddressSanitizer
#   --bench  build, run the perf-regression benches (bench_lock_manager,
#            bench_mvcc_store, bench_throughput, bench_sharding,
#            bench_wal, bench_sessions, bench_obs, bench_checker) with the pinned
#            baseline configurations, and gate
#            the JSON against the committed BENCH_*.json baselines via
#            scripts/bench_gate.py (tolerance via BENCH_GATE_TOLERANCE,
#            default 0.5 = fail on >50% regression).  See
#            docs/benchmarks.md.
#   --stress build under ThreadSanitizer and loop, STRESS_RUNS times each
#            (default 30): the formerly-flaky SSI serializability stress
#            test (ConcurrencyTest.
#            CommittedSerializableHistoriesStaySerializable, which before
#            the commit-pipeline fix failed ~1/15 TSan runs) together with
#            ConcurrencyTest.BeginRacesWatermarkGc (begins under the
#            shared table latch racing a GC pass after every commit: no
#            begin refused below the floor, no read of a pruned chain),
#            then the blocking lock-wait suite (LockManagerBlockingTest.*,
#            LockStripingTest.Blocking*, LockStripingStressTest.*: park
#            slots, FIFO handoff, timeouts racing wakeups).  Zero failures
#            required; any data race, non-serializable committed history,
#            lost wakeup or stranded lock fails the loop.
#   --crash  build under AddressSanitizer and run the durability crash
#            matrix: the WAL format/pipeline suite plus every
#            kill-and-recover test (single-site, group commit, and the
#            sharded 2PC matrix with a crash injected at each stage of
#            the commit protocol).  ASan catches recovery touching freed
#            engine state; the tests themselves assert no acked commit is
#            lost and no in-doubt transaction leaks locks.  CRASH_FILTER
#            overrides the gtest filter (CI smoke narrows it; nightly
#            runs the default full matrix).
#
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER=""
BENCH=0
STRESS=0
CRASH=0
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --tsan) SANITIZER="thread" ;;
    --asan) SANITIZER="address" ;;
    --bench) BENCH=1 ;;
    --stress) STRESS=1 ;;
    --crash) CRASH=1 ;;
    --*) echo "unknown option: $arg" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [[ "$CRASH" -eq 1 ]]; then
  # The crash matrix is an AddressSanitizer pin: recovery rebuilds engine
  # state from log bytes, exactly where a stale pointer into the dead
  # instance would hide.
  if [[ -n "$SANITIZER" && "$SANITIZER" != "address" ]]; then
    echo "--crash runs under AddressSanitizer; it cannot be combined" >&2
    echo "with --tsan/--stress" >&2
    exit 2
  fi
  SANITIZER="address"
fi
if [[ "$STRESS" -eq 1 ]]; then
  # The stress loop is a ThreadSanitizer data-race pin; any other
  # sanitizer would report green while detecting no races at all.
  if [[ -n "$SANITIZER" && "$SANITIZER" != "thread" ]]; then
    echo "--stress runs under ThreadSanitizer; it cannot be combined" >&2
    echo "with --asan" >&2
    exit 2
  fi
  SANITIZER="thread"
fi
if [[ "$BENCH" -eq 1 && -n "$SANITIZER" ]]; then
  echo "--bench cannot be combined with --tsan/--asan/--stress: the" >&2
  echo "committed BENCH_*.json baselines are from non-sanitized builds," >&2
  echo "so every metric would spuriously 'regress' under a sanitizer" >&2
  echo "slowdown" >&2
  exit 2
fi
if [[ -z "$BUILD_DIR" ]]; then
  case "$SANITIZER" in
    thread) BUILD_DIR="build-tsan" ;;
    address) BUILD_DIR="build-asan" ;;
    *) BUILD_DIR="build-check" ;;
  esac
fi
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . -DCRITIQUE_WERROR=ON \
  -DCRITIQUE_SANITIZER="$SANITIZER"
cmake --build "$BUILD_DIR" -j "$JOBS"

if [[ "$BENCH" -eq 1 ]]; then
  # Pinned configurations: these are exactly the runs that produced the
  # committed BENCH_*.json baselines (docs/benchmarks.md records them).
  # Keep flags and baselines in lockstep or the gate compares apples to
  # oranges.
  "$BUILD_DIR"/bench_lock_manager --stripes 1,16 --threads 4 --items 256 \
    --held 512 --ops 200000 --blocking-ops 2000 --quiet \
    --json "$BUILD_DIR/BENCH_lock.json"
  # The --backend sweep runs every registered version-store backend; the
  # binary itself fails when the hash backend loses a read-heavy probe
  # row to the map reference backend.
  "$BUILD_DIR"/bench_mvcc_store --backend map,hash --txns 20000 --items 64 \
    --gc-every 64 --chain 1024 --reads 200000 --point-items 4096 --quiet \
    --json "$BUILD_DIR/BENCH_mvcc.json"
  "$BUILD_DIR"/bench_throughput --threads 4 --txns-per-thread 100 \
    --items 64 --gc-every 64 --disjoint --group-commit --fsync-us 100 \
    --quiet --json "$BUILD_DIR/BENCH_throughput.json"
  "$BUILD_DIR"/bench_sharding --threads 4 --txns-per-thread 50 \
    --items 64 --shards 1,2,4 --cross-shard 0,0.2,0.5 --quiet \
    --json "$BUILD_DIR/BENCH_sharding.json"
  "$BUILD_DIR"/bench_wal --appends 100000 --syncs 2000 --threads 4 \
    --commits 50 --fsync-us 200 --replay-txns 5000 --quiet \
    --json "$BUILD_DIR/BENCH_wal.json"
  "$BUILD_DIR"/bench_sessions --sessions 100000 --workers 8 \
    --hot-sessions 2000 --hot-keys 16 --durable-sessions 5000 \
    --fsync-us 100 --quiet --json "$BUILD_DIR/BENCH_sessions.json"
  # bench_obs exits 1 itself when the metrics-overhead ratio drops below
  # its --min-ratio floor (default 0.90), on top of the JSON gate below.
  "$BUILD_DIR"/bench_obs --threads 4 --txns-per-thread 400 --items 64 \
    --trials 3 --quiet --json "$BUILD_DIR/BENCH_obs.json"
  # bench_checker is also the PR's scale acceptance: 1M+ commits certified
  # online with a bounded checker graph (live_nodes_peak in the JSON).  It
  # exits 1 itself when the checked/unchecked ratio drops below its
  # --min-ratio floor (default 0.50), on top of the JSON gate below.
  "$BUILD_DIR"/bench_checker --threads 4 --txns-per-thread 250000 \
    --items 256 --trials 2 --quiet --json "$BUILD_DIR/BENCH_checker.json"

  python3 scripts/bench_gate.py BENCH_lock.json "$BUILD_DIR/BENCH_lock.json"
  python3 scripts/bench_gate.py BENCH_mvcc.json "$BUILD_DIR/BENCH_mvcc.json"
  python3 scripts/bench_gate.py BENCH_throughput.json \
    "$BUILD_DIR/BENCH_throughput.json"
  python3 scripts/bench_gate.py BENCH_sharding.json \
    "$BUILD_DIR/BENCH_sharding.json"
  python3 scripts/bench_gate.py BENCH_wal.json "$BUILD_DIR/BENCH_wal.json"
  python3 scripts/bench_gate.py BENCH_sessions.json \
    "$BUILD_DIR/BENCH_sessions.json"
  python3 scripts/bench_gate.py BENCH_obs.json "$BUILD_DIR/BENCH_obs.json"
  python3 scripts/bench_gate.py BENCH_checker.json \
    "$BUILD_DIR/BENCH_checker.json"
  echo "check.sh: bench gate green (build dir: $BUILD_DIR)"
  exit 0
fi

if [[ "$CRASH" -eq 1 ]]; then
  # The durability crash matrix under ASan.  The default filter is the
  # full matrix: WAL format/pipeline unit tests, single-site recovery
  # across all five isolation levels, the concurrent group-commit
  # recovery test, and the sharded 2PC crash matrix (a failure injected
  # at every stage of the commit protocol x {Serializable, SI}).
  FILTER="${CRASH_FILTER:-WalTest.*:*RecoveryTest*:*CrashMatrix*:*ShardedRecovery*}"
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
  "$BUILD_DIR"/critique_tests --gtest_filter="$FILTER"
  echo "check.sh: crash matrix green (filter: $FILTER)"
  exit 0
fi

if [[ "$STRESS" -eq 1 ]]; then
  # The stress loops: the SSI commit-pipeline regression pin and the
  # begin-versus-GC race, then the lock-wait pin (a blocked thread parks on its registration's one-shot
  # slot; a release signals it outside the latches, possibly racing the
  # waiter's own timeout).  One gtest process per loop repeats its tests
  # so every iteration reuses the warmed TSan runtime;
  # --gtest_break_on_failure turns the first failure into a non-zero
  # exit.  TSan itself fails the run on any data race.
  RUNS="${STRESS_RUNS:-30}"
  for FILTER in \
      'ConcurrencyTest.CommittedSerializableHistoriesStaySerializable:ConcurrencyTest.BeginRacesWatermarkGc' \
      'LockManagerBlockingTest.*:LockStripingTest.Blocking*:LockStripingStressTest.*'; do
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$BUILD_DIR"/critique_tests --gtest_filter="$FILTER" \
      --gtest_repeat="$RUNS" --gtest_break_on_failure
  done
  echo "check.sh: stress loops green ($RUNS TSan runs each)"
  exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "check.sh: all green${SANITIZER:+ (sanitizer: $SANITIZER)}"
