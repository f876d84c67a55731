// Lock-table performance: the striped LockManager measured against its
// own degenerate configuration (--stripes 1 == the old single global
// table).  Four workloads isolate what striping buys:
//
//   uncontended      1 thread, acquire/release over K items — the pure
//                    fast-path cost (one bucket latch, short scan)
//   scan_heavy       1 thread probing while H unrelated locks are held —
//                    the conflict-scan length a bucket bounds to ~H/N
//   mt_disjoint      T threads on disjoint key ranges, TryAcquire/Release
//                    — latch contention, the headline striping number
//   mt_blocking      T threads, blocking Acquire on a small hot set with
//                    ReleaseAll transactions — cv handoff + waits-for
//                    probes under the global slow path
//   pred_scan        1 thread acquiring/releasing a predicate lock while
//                    H item locks are held — the all-buckets global view
//                    a predicate pays for (striping's known worst path)
//   pred_conflict    1 thread probing covered item writes against a held
//                    predicate lock — the image-precise conflict answer
//   deadlock_probe   1 thread re-running the waits-for DFS against a
//                    16-deep wait chain — the global detection cost
//
//   bench_lock_manager [--stripes 1,16] [--threads 4] [--items 256]
//                      [--held 512] [--ops 200000] [--blocking-ops 2000]
//                      [--json PATH] [--quiet]
//
// A plain binary (no google-benchmark dependency): the JSON it emits is a
// committed baseline (BENCH_lock.json) that scripts/bench_gate.py
// compares against on every CI run, so the schema must stay ours.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "critique/common/json_writer.h"
#include "critique/lock/lock_manager.h"

namespace critique {
namespace {

struct Config {
  std::vector<int64_t> stripes{1, 16};
  int threads = 4;
  int64_t items = 256;
  int64_t held = 512;
  int64_t ops = 200000;          // per single-threaded workload
  int64_t blocking_ops = 2000;   // per thread in mt_blocking
  bool quiet = false;
};

struct WorkloadResult {
  size_t stripes = 0;  ///< effective (clamped) bucket count actually run
  double uncontended_ops_per_sec = 0;
  double scan_heavy_ops_per_sec = 0;
  double mt_disjoint_ops_per_sec = 0;   // total across threads
  double mt_blocking_txns_per_sec = 0;  // total across threads
  uint64_t mt_blocking_deadlocks = 0;
  uint64_t mt_blocking_timeouts = 0;
  double pred_scan_ops_per_sec = 0;
  double pred_conflict_ops_per_sec = 0;
  double deadlock_probe_ops_per_sec = 0;
  LockStats mt_blocking_stats;  ///< full counter line for the human report
};

ItemId Key(int64_t k) { return "k" + std::to_string(k); }

double OpsPerSec(int64_t ops, std::chrono::steady_clock::duration d) {
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
  return secs > 0 ? static_cast<double>(ops) / secs : 0.0;
}

// 1 thread: S-lock acquire + targeted release round-robin over the items.
double RunUncontended(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < cfg.ops; ++i) {
    auto h = lm.TryAcquire(
        LockSpec::ReadItem(1, Key(i % cfg.items), std::nullopt));
    lm.Release(*h);
  }
  return OpsPerSec(cfg.ops, std::chrono::steady_clock::now() - t0);
}

// 1 thread probing one item while `held` unrelated locks sit in the
// table: the probe's conflict scan covers only its own bucket (~held/N).
double RunScanHeavy(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  for (int64_t k = 0; k < cfg.held; ++k) {
    (void)lm.TryAcquire(LockSpec::ReadItem(1, "bg" + std::to_string(k),
                                           std::nullopt));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < cfg.ops; ++i) {
    auto h = lm.TryAcquire(LockSpec::ReadItem(2, "probe", std::nullopt));
    lm.Release(*h);
  }
  return OpsPerSec(cfg.ops, std::chrono::steady_clock::now() - t0);
}

// T threads, disjoint key ranges: every acquire succeeds, so the only
// cross-thread cost is the table latch — one global mutex at stripes=1,
// mostly-disjoint bucket latches otherwise.
double RunMtDisjoint(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  const int64_t per_thread = cfg.ops / std::max(1, cfg.threads);
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&lm, &cfg, per_thread, t] {
      const TxnId txn = static_cast<TxnId>(t + 1);
      for (int64_t i = 0; i < per_thread; ++i) {
        ItemId id = "t" + std::to_string(t) + "." +
                    std::to_string(i % cfg.items);
        auto h = lm.TryAcquire(
            LockSpec::WriteItem(txn, id, std::nullopt, std::nullopt));
        if (h.ok()) lm.Release(*h);
      }
    });
  }
  for (auto& w : workers) w.join();
  return OpsPerSec(per_thread * cfg.threads,
                   std::chrono::steady_clock::now() - t0);
}

// T threads of two-lock "transactions" over a small hot set, blocking
// protocol: Acquire both (ascending key order, so waits resolve), then
// ReleaseAll.  Exercises parking, notification, and the global deadlock
// probe path.
void RunMtBlocking(size_t stripes, const Config& cfg, WorkloadResult& out) {
  LockManager lm(stripes);
  const int64_t hot = std::max<int64_t>(4, cfg.threads * 2);
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&lm, &cfg, hot, t] {
      const TxnId base = static_cast<TxnId>(t + 1);
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int64_t i = 0; i < cfg.blocking_ops; ++i) {
        // One transaction per iteration (unique id per txn).
        const TxnId txn = base + static_cast<TxnId>(i) * cfg.threads;
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        int64_t a = static_cast<int64_t>((rng >> 33) % hot);
        int64_t b = static_cast<int64_t>((rng >> 13) % hot);
        if (a == b) b = (b + 1) % hot;
        if (a > b) std::swap(a, b);
        auto h1 = lm.Acquire(
            LockSpec::WriteItem(txn, Key(a), std::nullopt, std::nullopt),
            std::chrono::milliseconds(100));
        if (!h1.ok()) continue;  // deadlock victim / timeout: give up
        auto h2 = lm.Acquire(
            LockSpec::WriteItem(txn, Key(b), std::nullopt, std::nullopt),
            std::chrono::milliseconds(100));
        (void)h2;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& w : workers) w.join();
  out.mt_blocking_txns_per_sec = OpsPerSec(
      cfg.blocking_ops * cfg.threads, std::chrono::steady_clock::now() - t0);
  const LockStats st = lm.stats();
  out.mt_blocking_deadlocks = st.deadlocks;
  out.mt_blocking_timeouts = st.timeouts;
  out.mt_blocking_stats = st;
}

// 1 thread: a Read predicate lock granted/released while `held` item
// read locks sit across the buckets — every predicate acquire takes the
// global view (all bucket latches) and scans every bucket.
double RunPredScan(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  for (int64_t k = 0; k < cfg.held; ++k) {
    (void)lm.TryAcquire(LockSpec::ReadItem(1, "bg" + std::to_string(k),
                                           std::nullopt));
  }
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);
  const int64_t ops = std::max<int64_t>(1, cfg.ops / 10);  // slow path
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < ops; ++i) {
    auto h = lm.TryAcquire(LockSpec::ReadPredicate(2, actives));
    if (h.ok()) lm.Release(*h);
  }
  return OpsPerSec(ops, std::chrono::steady_clock::now() - t0);
}

// 1 thread probing covered item writes against a held predicate lock:
// the image-precise conflict answer (WouldBlock each time), i.e. the
// phantom-inclusive rule of Section 2.3 on the striped table.
double RunPredConflict(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);
  (void)lm.TryAcquire(LockSpec::ReadPredicate(1, actives));
  Row covered = Row().Set("active", true);
  const int64_t ops = std::max<int64_t>(1, cfg.ops / 10);  // slow path
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < ops; ++i) {
    auto r = lm.TryAcquire(
        LockSpec::WriteItem(2, Key(i % cfg.items), covered, covered));
    (void)r;  // WouldBlock every time
  }
  return OpsPerSec(ops, std::chrono::steady_clock::now() - t0);
}

// 1 thread re-running the deadlock probe against a 16-deep wait chain:
// the requester's acquire closes a cycle, so every call walks the
// global waits-for graph and answers Deadlock.
double RunDeadlockProbe(size_t stripes, const Config& cfg) {
  LockManager lm(stripes);
  const TxnId chain = 16;
  for (TxnId t = 1; t <= chain; ++t) {
    (void)lm.TryAcquire(
        LockSpec::WriteItem(t, Key(static_cast<int64_t>(t)), std::nullopt,
                            std::nullopt));
  }
  for (TxnId t = 1; t < chain; ++t) {
    (void)lm.TryAcquire(
        LockSpec::WriteItem(t, Key(static_cast<int64_t>(t) + 1), std::nullopt,
                            std::nullopt));
  }
  const int64_t ops = std::max<int64_t>(1, cfg.ops / 10);  // slow path
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < ops; ++i) {
    auto r = lm.TryAcquire(
        LockSpec::WriteItem(chain, Key(1), std::nullopt, std::nullopt));
    (void)r;  // Deadlock every time
  }
  return OpsPerSec(ops, std::chrono::steady_clock::now() - t0);
}

WorkloadResult RunAll(size_t stripes, const Config& cfg) {
  WorkloadResult r;
  r.stripes = LockManager(stripes).stripe_count();  // effective, clamped
  r.uncontended_ops_per_sec = RunUncontended(stripes, cfg);
  r.scan_heavy_ops_per_sec = RunScanHeavy(stripes, cfg);
  r.mt_disjoint_ops_per_sec = RunMtDisjoint(stripes, cfg);
  RunMtBlocking(stripes, cfg, r);
  r.pred_scan_ops_per_sec = RunPredScan(stripes, cfg);
  r.pred_conflict_ops_per_sec = RunPredConflict(stripes, cfg);
  r.deadlock_probe_ops_per_sec = RunDeadlockProbe(stripes, cfg);
  return r;
}

void PrintHuman(const Config& cfg, const std::vector<WorkloadResult>& results) {
  std::printf("==== Lock-table bench: %d threads, %lld items, %lld held ====\n\n",
              cfg.threads, static_cast<long long>(cfg.items),
              static_cast<long long>(cfg.held));
  std::printf("%-8s %12s %12s %12s %12s %11s %11s %11s %5s %5s\n", "stripes",
              "uncont op/s", "scan op/s", "mt-disj o/s", "mt-blk t/s",
              "pscan op/s", "pconf op/s", "dlkprb o/s", "dlk", "tmo");
  for (const WorkloadResult& r : results) {
    std::printf(
        "%-8zu %12.0f %12.0f %12.0f %12.0f %11.0f %11.0f %11.0f %5llu %5llu\n",
        r.stripes, r.uncontended_ops_per_sec, r.scan_heavy_ops_per_sec,
        r.mt_disjoint_ops_per_sec, r.mt_blocking_txns_per_sec,
        r.pred_scan_ops_per_sec, r.pred_conflict_ops_per_sec,
        r.deadlock_probe_ops_per_sec,
        static_cast<unsigned long long>(r.mt_blocking_deadlocks),
        static_cast<unsigned long long>(r.mt_blocking_timeouts));
  }
  std::printf("\nmt_blocking lock stats per stripe count:\n");
  for (const WorkloadResult& r : results) {
    std::printf("  %4zu: %s\n", r.stripes,
                r.mt_blocking_stats.ToString().c_str());
  }
  std::printf(
      "\nExpected shape: scan_heavy and mt_disjoint improve with stripes\n"
      "(shorter bucket scans, mostly-disjoint latches); uncontended stays\n"
      "flat; pred_scan/pred_conflict/deadlock_probe pay for the global\n"
      "view as stripes grow — the design's explicit trade-off.  The\n"
      "'stripes' column is the effective (clamped) bucket count run.\n");
}

std::string ToJson(const Config& cfg, const std::vector<WorkloadResult>& results) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench"); w.String("lock_manager");
  w.Key("threads"); w.Int(cfg.threads);
  w.Key("items"); w.Int(cfg.items);
  w.Key("held"); w.Int(cfg.held);
  w.Key("ops"); w.Int(cfg.ops);
  w.Key("blocking_ops"); w.Int(cfg.blocking_ops);
  w.Key("configs");
  w.BeginArray();
  for (const WorkloadResult& r : results) {
    w.BeginObject();
    // The effective (clamped) bucket count actually run, so baseline
    // rows are never attributed to configurations that never executed.
    w.Key("stripes"); w.UInt(r.stripes);
    w.Key("uncontended_ops_per_sec"); w.Double(r.uncontended_ops_per_sec);
    w.Key("scan_heavy_ops_per_sec"); w.Double(r.scan_heavy_ops_per_sec);
    w.Key("mt_disjoint_ops_per_sec"); w.Double(r.mt_disjoint_ops_per_sec);
    w.Key("mt_blocking_txns_per_sec"); w.Double(r.mt_blocking_txns_per_sec);
    w.Key("mt_blocking_deadlocks"); w.UInt(r.mt_blocking_deadlocks);
    w.Key("mt_blocking_timeouts"); w.UInt(r.mt_blocking_timeouts);
    w.Key("pred_scan_ops_per_sec"); w.Double(r.pred_scan_ops_per_sec);
    w.Key("pred_conflict_ops_per_sec"); w.Double(r.pred_conflict_ops_per_sec);
    w.Key("deadlock_probe_ops_per_sec");
    w.Double(r.deadlock_probe_ops_per_sec);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  using namespace critique;
  using namespace critique::bench;

  Config cfg;
  auto json_path = TakeJsonFlag(argc, argv);
  cfg.stripes = TakeIntListFlag(argc, argv, "--stripes", {1, 16});
  cfg.threads = static_cast<int>(TakeIntFlag(argc, argv, "--threads", 4));
  cfg.items = TakeIntFlag(argc, argv, "--items", 256);
  cfg.held = TakeIntFlag(argc, argv, "--held", 512);
  cfg.ops = TakeIntFlag(argc, argv, "--ops", 200000);
  cfg.blocking_ops = TakeIntFlag(argc, argv, "--blocking-ops", 2000);
  cfg.quiet = TakeBoolFlag(argc, argv, "--quiet");
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\n", argv[1]);
    return 2;
  }
  if (cfg.threads < 1 || cfg.items < 1) {
    std::fprintf(stderr, "--threads and --items must be >= 1\n");
    return 2;
  }

  std::vector<WorkloadResult> results;
  for (int64_t s : cfg.stripes) {
    results.push_back(RunAll(static_cast<size_t>(std::max<int64_t>(1, s)),
                             cfg));
  }

  if (!cfg.quiet) PrintHuman(cfg, results);
  if (json_path.has_value()) {
    WriteJsonFile(*json_path, ToJson(cfg, results));
  }
  return 0;
}
