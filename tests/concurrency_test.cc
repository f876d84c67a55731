// Multi-threaded stress tests of the blocking session API: the engines
// must produce consistent stats and anomaly-free histories under genuine
// concurrency, not just under cooperative interleaving.  Run these under
// `./scripts/check.sh --tsan` to certify the thread-safety contract.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/db/database.h"
#include "critique/lock/lock_manager.h"
#include "critique/workload/parallel_driver.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

using std::chrono::milliseconds;

// --- LockManager blocking protocol -----------------------------------------

TEST(LockManagerBlockingTest, AcquireWaitsUntilRelease) {
  LockManager lm;
  auto h1 = lm.TryAcquire(LockSpec::WriteItem(1, "x", std::nullopt,
                                              std::nullopt));
  ASSERT_TRUE(h1.ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto h2 = lm.Acquire(LockSpec::WriteItem(2, "x", std::nullopt,
                                             std::nullopt),
                         milliseconds(5000));
    EXPECT_TRUE(h2.ok()) << h2.status().ToString();
    granted.store(true);
  });

  // Handshake: wait until the waiter has really parked (its wait episode
  // shows up in stats) before releasing — a bare sleep is flaky on slow
  // single-core CI.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (lm.stats().blocked < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_FALSE(granted.load());

  lm.Release(*h1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.stats().blocked, 1u);
  EXPECT_EQ(lm.stats().deadlocks, 0u);
}

TEST(LockManagerBlockingTest, TimeoutAnswersWouldBlock) {
  LockManager lm;
  auto h1 = lm.TryAcquire(LockSpec::WriteItem(1, "x", std::nullopt,
                                              std::nullopt));
  ASSERT_TRUE(h1.ok());

  auto h2 = lm.Acquire(LockSpec::WriteItem(2, "x", std::nullopt,
                                           std::nullopt),
                       milliseconds(40));
  ASSERT_FALSE(h2.ok());
  EXPECT_TRUE(h2.status().IsWouldBlock()) << h2.status().ToString();
  EXPECT_EQ(lm.stats().timeouts, 1u);

  // The timed-out waiter left no stale wait edges: T1 can still release
  // and a retry succeeds.
  lm.Release(*h1);
  auto h3 = lm.Acquire(LockSpec::WriteItem(2, "x", std::nullopt,
                                           std::nullopt),
                       milliseconds(40));
  EXPECT_TRUE(h3.ok());
}

TEST(LockManagerBlockingTest, CustomDbOptionsTimeout) {
  // The knob rides DbOptions end to end: a short custom lock-wait timeout
  // must answer kWouldBlock in roughly that time (not the 250ms default).
  DbOptions opts(IsolationLevel::kSerializable);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.lock_wait_timeout = milliseconds(120);
  Database db(opts);
  EXPECT_EQ(db.engine().concurrency().lock_wait_timeout, milliseconds(120));
  ASSERT_TRUE(db.Load("x", Value(1)).ok());

  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());  // long X lock until commit

  Transaction contender = db.Begin();
  const auto t0 = std::chrono::steady_clock::now();
  Status s = contender.Put("x", Value(3));
  const auto waited = std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(s.IsWouldBlock()) << s.ToString();
  // The wait honored the configured budget: at least ~the timeout (minus
  // scheduler slop), and nowhere near unbounded.  1-core CI: generous cap.
  EXPECT_GE(waited, milliseconds(80)) << waited.count() << "ms";
  EXPECT_LT(waited, milliseconds(5000)) << waited.count() << "ms";

  ASSERT_TRUE(holder.Commit().ok());
  EXPECT_TRUE(contender.Put("x", Value(3)).ok());  // lock free again
  EXPECT_TRUE(contender.Commit().ok());
}

TEST(LockManagerBlockingTest, DeadlockAcrossSleepingWaitersIsDetected) {
  LockManager lm;
  auto hx = lm.TryAcquire(LockSpec::WriteItem(1, "x", std::nullopt,
                                              std::nullopt));
  auto hy = lm.TryAcquire(LockSpec::WriteItem(2, "y", std::nullopt,
                                              std::nullopt));
  ASSERT_TRUE(hx.ok());
  ASSERT_TRUE(hy.ok());

  // T1 (holds x) wants y; T2 (holds y) wants x.  Whichever request closes
  // the cycle — possibly while the other thread is already asleep — must
  // be answered Deadlock; the survivor is granted once the victim's locks
  // go away.
  std::atomic<int> deadlocks{0};
  std::atomic<int> grants{0};
  auto contend = [&](TxnId me, const ItemId& want) {
    auto r = lm.Acquire(LockSpec::WriteItem(me, want, std::nullopt,
                                            std::nullopt),
                        milliseconds(5000));
    if (r.ok()) {
      ++grants;
    } else if (r.status().IsDeadlock()) {
      ++deadlocks;
      lm.ReleaseAll(me);  // what an engine's rollback would do
    } else {
      ADD_FAILURE() << "unexpected status: " << r.status().ToString();
    }
  };
  std::thread t1(contend, 1, "y");
  std::thread t2(contend, 2, "x");
  t1.join();
  t2.join();

  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_EQ(grants.load(), 1);
  EXPECT_EQ(lm.stats().deadlocks, 1u);
}

// Spins until `lm` has counted `n` blocked acquires (each parked
// `Acquire` counts once when its wait begins): the handshake that orders
// parks without a bare sleep.
void AwaitBlocked(const LockManager& lm, uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (lm.stats().blocked < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_GE(lm.stats().blocked, n);
}

// Thread-safe record of the order in which parked acquirers were granted.
class GrantLog {
 public:
  void Add(TxnId t) {
    std::lock_guard<std::mutex> g(mu_);
    order_.push_back(t);
  }
  std::vector<TxnId> Order() const {
    std::lock_guard<std::mutex> g(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TxnId> order_;
};

TEST(LockManagerBlockingTest, WaitersAreGrantedInParkOrder) {
  // Three X waiters park behind T1's X lock in a fixed order.  Each
  // release wakes only the head of the queue, so the grants follow the
  // park order: T1's release grants T2, T2's grants T3, T3's grants T4.
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(LockSpec::WriteItem(1, "k", std::nullopt,
                                                std::nullopt))
                  .ok());
  GrantLog log;
  std::vector<std::thread> waiters;
  for (TxnId t : {2, 3, 4}) {
    waiters.emplace_back([&lm, &log, t] {
      auto r = lm.Acquire(LockSpec::WriteItem(t, "k", std::nullopt,
                                              std::nullopt),
                          milliseconds(10000));
      EXPECT_TRUE(r.ok()) << "T" << t << ": " << r.status().ToString();
      log.Add(t);
      lm.ReleaseAll(t);  // hands the item to the next waiter
    });
    AwaitBlocked(lm, t - 1);  // T<t> has parked before the next one starts
  }
  lm.ReleaseAll(1);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(log.Order(), (std::vector<TxnId>{2, 3, 4}));
  EXPECT_EQ(lm.stats().blocked, 3u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  EXPECT_EQ(lm.stats().deadlocks, 0u);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(LockManagerBlockingTest, SharedWaitersAreGrantedTogetherUpToFirstX) {
  // Park order S(T2), S(T3), X(T4), S(T5) behind T1's X lock.  T1's
  // release wakes the S head and batches T3 with it, but stops at T4: T5,
  // compatible with the granted readers, still queues behind the writer.
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(LockSpec::WriteItem(1, "k", std::nullopt,
                                                std::nullopt))
                  .ok());
  GrantLog log;
  std::atomic<bool> release_readers{false};
  std::vector<std::thread> waiters;
  const std::vector<std::pair<TxnId, LockMode>> order = {
      {2, LockMode::kShared},
      {3, LockMode::kShared},
      {4, LockMode::kExclusive},
      {5, LockMode::kShared}};
  for (const auto& [t, mode] : order) {
    waiters.emplace_back([&, t = t, mode = mode] {
      LockSpec spec = mode == LockMode::kShared
                          ? LockSpec::ReadItem(t, "k", std::nullopt)
                          : LockSpec::WriteItem(t, "k", std::nullopt,
                                                std::nullopt);
      auto r = lm.Acquire(spec, milliseconds(10000));
      EXPECT_TRUE(r.ok()) << "T" << t << ": " << r.status().ToString();
      log.Add(t);
      // The batched readers hold their S locks until both are granted.
      while (t <= 3 && !release_readers.load()) {
        std::this_thread::sleep_for(milliseconds(1));
      }
      lm.ReleaseAll(t);
    });
    AwaitBlocked(lm, t - 1);
  }
  lm.ReleaseAll(1);
  // The wakeups were chosen inside ReleaseAll: the writer and the reader
  // behind it are still registered.
  std::vector<TxnId> still_waiting;
  for (const auto& w : lm.DebugSnapshot().waiters) {
    still_waiting.push_back(w.txn);
  }
  EXPECT_EQ(still_waiting, (std::vector<TxnId>{4, 5}));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (log.Order().size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::vector<TxnId> readers = log.Order();
  std::sort(readers.begin(), readers.end());
  EXPECT_EQ(readers, (std::vector<TxnId>{2, 3}));
  release_readers.store(true);
  for (auto& w : waiters) w.join();
  const std::vector<TxnId> all = log.Order();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[2], 4u);
  EXPECT_EQ(all[3], 5u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(LockManagerBlockingTest, DebugSnapshotTellsBlockedThreadFromParkedSession) {
  // Both kinds of waiter share one registration; the dump must still say
  // which is which.  T2 is a thread parked in Acquire, T3 a cooperative
  // session registered for the hook.
  LockManager lm;
  std::vector<TxnId> hooked;  // written by ReleaseAll on this thread
  lm.SetWakeupHook([&](TxnId t) { hooked.push_back(t); });
  ASSERT_TRUE(lm.TryAcquire(LockSpec::WriteItem(1, "a", std::nullopt,
                                                std::nullopt))
                  .ok());
  ASSERT_TRUE(lm.TryAcquire(LockSpec::WriteItem(1, "b", std::nullopt,
                                                std::nullopt))
                  .ok());
  std::atomic<bool> granted{false};
  std::thread parked([&] {
    auto r = lm.Acquire(LockSpec::WriteItem(2, "a", std::nullopt,
                                            std::nullopt),
                        milliseconds(10000));
    granted.store(r.ok());
  });
  AwaitBlocked(lm, 1);
  EXPECT_TRUE(lm.TryAcquire(LockSpec::WriteItem(3, "b", std::nullopt,
                                                std::nullopt))
                  .status()
                  .IsWouldBlock());

  const LockDebugSnapshot snap = lm.DebugSnapshot();
  ASSERT_EQ(snap.waiters.size(), 2u);
  EXPECT_EQ(snap.waiters[0].txn, 2u);
  EXPECT_FALSE(snap.waiters[0].cooperative);
  EXPECT_EQ(snap.waiters[1].txn, 3u);
  EXPECT_TRUE(snap.waiters[1].cooperative);
  const std::string dump = snap.ToString();
  EXPECT_NE(dump.find("T2 wants X on item 'a' [blocked thread]"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("T3 wants X on item 'b' [parked session]"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("T2 -> T1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("T3 -> T1"), std::string::npos) << dump;

  lm.ReleaseAll(1);
  parked.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(hooked, (std::vector<TxnId>{3}));  // the thread got no hook call
  // The hook ledger counts sessions only: one park, one wakeup.
  EXPECT_EQ(lm.stats().coop_parks, 1u);
  EXPECT_EQ(lm.stats().wakeups, 1u);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
}

// --- engine stress under the blocking Database ------------------------------

DbOptions BlockingOptions(IsolationLevel level, uint64_t seed = 7) {
  DbOptions opts(level);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.lock_wait_timeout = milliseconds(2000);  // 1-core CI: be generous
  opts.seed = seed;
  return opts;
}

struct StressOutcome {
  ParallelRunStats run;
  EngineStats stats;
};

StressOutcome StressMixed(Database& db, int threads, uint64_t per_thread) {
  WorkloadOptions wopts;
  wopts.num_items = 16;
  wopts.zipf_theta = 0.8;
  wopts.ops_per_txn = 4;
  wopts.write_fraction = 0.5;
  WorkloadGenerator gen(wopts);
  EXPECT_TRUE(gen.LoadInitial(db).ok());

  ParallelDriverOptions dopts;
  dopts.threads = threads;
  dopts.txns_per_thread = per_thread;
  ParallelDriver driver(db, dopts);
  StressOutcome out;
  out.run = driver.Run([&gen](Transaction& txn, Rng& rng) {
    return gen.ApplyMixedTxn(txn, rng);
  });
  out.stats = db.StatsSnapshot();
  return out;
}

class EngineStressTest : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(EngineStressTest, StatsStayConsistentUnderConcurrentSessions) {
  Database db(BlockingOptions(GetParam()));
  StressOutcome out = StressMixed(db, /*threads=*/4, /*per_thread=*/25);

  // Client and engine views of the run must agree exactly:
  // every successful Execute is one engine commit ...
  EXPECT_EQ(out.run.committed, out.run.engine_commits);
  // ... every attempt or policy retry began exactly one engine
  // transaction, and every one of them reached a terminal state.
  EXPECT_EQ(out.run.attempts + out.run.retries,
            out.stats.finished_txns());
  EXPECT_EQ(out.stats.finished_txns(),
            out.run.engine_commits + out.run.engine_aborts);
  EXPECT_EQ(db.open_transactions(), 0);

  // The recorded history agrees with the counters action-for-action.
  const History& h = db.history();
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_EQ(h.Committed().size(), out.stats.commits);
  EXPECT_EQ(h.Aborted().size(), out.stats.total_aborts());
  EXPECT_TRUE(h.ActiveAtEnd().empty());

  // Under 4 threads the run must make real progress, whatever the level.
  EXPECT_GT(out.run.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineStressTest,
    ::testing::Values(IsolationLevel::kSerializable,
                      IsolationLevel::kSnapshotIsolation,
                      IsolationLevel::kSerializableSI,
                      IsolationLevel::kOracleReadConsistency,
                      IsolationLevel::kReadCommitted),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      switch (info.param) {
        case IsolationLevel::kSerializable: return "LockingSerializable";
        case IsolationLevel::kSnapshotIsolation: return "SnapshotIsolation";
        case IsolationLevel::kSerializableSI: return "SSI";
        case IsolationLevel::kOracleReadConsistency: return "OracleRC";
        case IsolationLevel::kReadCommitted: return "LockingReadCommitted";
        default: return "Other";
      }
    });

// --- lost updates -----------------------------------------------------------

class NoLostUpdateTest : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(NoLostUpdateTest, HotCounterNeverLosesIncrements) {
  Database db(BlockingOptions(GetParam(), /*seed=*/11));
  const uint64_t kItems = 4;
  WorkloadOptions wopts;
  wopts.num_items = kItems;
  wopts.zipf_theta = 0.99;  // hammer the hot keys
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.LoadInitial(db).ok());
  const int64_t initial = WorkloadGenerator::TotalBalance(db, kItems);

  ParallelDriverOptions dopts;
  dopts.threads = 4;
  dopts.txns_per_thread = 25;
  ParallelDriver driver(db, dopts);
  // Each transaction increments exactly one item, so the committed count
  // is the exact expected gain — a lost update shows as a shortfall.
  ParallelRunStats run = driver.Run([&gen](Transaction& txn, Rng& rng) {
    const ItemId item = WorkloadGenerator::ItemName(
        rng.Uniform(gen.options().num_items));
    auto v = txn.GetScalar(item);
    if (!v.ok()) return v.status();
    auto n = v->AsNumeric();
    return txn.Put(item, Value(static_cast<int64_t>(n.value_or(0)) + 1));
  });

  const int64_t final_sum = WorkloadGenerator::TotalBalance(db, kItems);
  EXPECT_EQ(final_sum, initial + static_cast<int64_t>(run.committed));
  EXPECT_GT(run.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StrongLevels, NoLostUpdateTest,
    ::testing::Values(IsolationLevel::kSerializable,
                      IsolationLevel::kSnapshotIsolation,
                      IsolationLevel::kSerializableSI),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      switch (info.param) {
        case IsolationLevel::kSerializable: return "LockingSerializable";
        case IsolationLevel::kSnapshotIsolation: return "SnapshotIsolation";
        case IsolationLevel::kSerializableSI: return "SSI";
        default: return "Other";
      }
    });

TEST(ConcurrencyTest, TransferSumInvariantHolds) {
  for (IsolationLevel level : {IsolationLevel::kSerializable,
                               IsolationLevel::kSnapshotIsolation}) {
    Database db(BlockingOptions(level, /*seed=*/13));
    const uint64_t kItems = 8;
    WorkloadOptions wopts;
    wopts.num_items = kItems;
    wopts.zipf_theta = 0.7;
    WorkloadGenerator gen(wopts);
    ASSERT_TRUE(gen.LoadInitial(db).ok());
    const int64_t initial = WorkloadGenerator::TotalBalance(db, kItems);

    ParallelDriverOptions dopts;
    dopts.threads = 4;
    dopts.txns_per_thread = 20;
    ParallelDriver driver(db, dopts);
    (void)driver.Run([&gen](Transaction& txn, Rng& rng) {
      return gen.ApplyTransferTxn(txn, rng, /*amount=*/3);
    });

    EXPECT_EQ(WorkloadGenerator::TotalBalance(db, kItems), initial)
        << db.name();
  }
}

// --- serializability of concurrent histories --------------------------------

TEST(ConcurrencyTest, CommittedSerializableHistoriesStaySerializable) {
  // The property the whole suite leans on — engines produce, detectors
  // judge — extended to true parallelism: whatever interleaving the OS
  // produced, the committed projection of a Serializable run must be
  // serializable *by the criterion that matches the engine's history
  // kind*.
  //
  //  * The locking engine executes in place: its recorded order is the
  //    lock-serialized single-version execution, so the single-version
  //    dependency-graph acyclicity check applies directly.
  //  * The SSI engine records a *multiversion* history, judged by MVSG
  //    acyclicity ([BHG] Ch. 5 — one-copy serializability, the Section
  //    4.2 touchstone).  The raw single-version reading this test once
  //    applied was wrong in both directions there: an old-snapshot read
  //    recorded after a newer commit is legal SI behavior but parses as a
  //    backward wr edge (the source of this test's historical ~1/15 TSan
  //    flake), while a genuine dangerous-structure escape can parse as
  //    forward edges and hide (tests/ssi_escape_test.cc pins that case
  //    deterministically).  `scripts/check.sh --stress` loops this test
  //    30x under TSan to keep it pinned.
  for (IsolationLevel level : {IsolationLevel::kSerializable,
                               IsolationLevel::kSerializableSI}) {
    Database db(BlockingOptions(level, /*seed=*/17));
    StressOutcome out = StressMixed(db, /*threads=*/3, /*per_thread=*/12);
    EXPECT_GT(out.run.committed, 0u) << db.name();
    if (level == IsolationLevel::kSerializable) {
      EXPECT_TRUE(IsSerializable(db.history())) << db.name();
    } else {
      EXPECT_TRUE(IsMVSerializable(db.history()))
          << db.name() << "\n"
          << MVSerializationGraph::Build(db.history()).ToString();
    }
  }
}

TEST(ConcurrencyTest, BeginRacesWatermarkGc) {
  // Begin registers under the *shared* table latch, so it runs alongside
  // every other session operation; only a GC pass takes the latch
  // exclusive.  With a pass after every commit, passes interleave with
  // begins all the time.  A pass that computed its watermark past a
  // snapshot drawn but not yet registered would prune versions that
  // snapshot still reads, then refuse the begin below the raised floor or
  // hand its reads an empty chain.  Transfers also keep the total
  // balance fixed, so a lost or torn write shows in the sum.
  for (IsolationLevel level : {IsolationLevel::kSnapshotIsolation,
                               IsolationLevel::kSerializableSI}) {
    DbOptions opts = BlockingOptions(level, /*seed=*/23);
    opts.version_gc = VersionGcMode::kWatermark;
    opts.version_gc_interval = 1;
    Database db(opts);
    const uint64_t kItems = 64;
    WorkloadOptions wopts;
    wopts.num_items = kItems;
    WorkloadGenerator gen(wopts);
    ASSERT_TRUE(gen.LoadInitial(db).ok());
    const int64_t initial = WorkloadGenerator::TotalBalance(db, kItems);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> refused_begins{0};
    std::atomic<uint64_t> empty_reads{0};
    std::vector<Rng> rngs;
    for (int t = 0; t < kThreads; ++t) rngs.push_back(db.ForkRng());
    {
      std::vector<std::thread> workers;
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
          Rng& rng = rngs[static_cast<size_t>(t)];
          for (int i = 0; i < kPerThread; ++i) {
            Result<Transaction> begun = db.Begin(BeginOptions{});
            if (!begun.ok()) {
              refused_begins.fetch_add(1);
              continue;
            }
            Transaction txn = std::move(*begun);
            const ItemId src = WorkloadGenerator::ItemName(rng.Uniform(kItems));
            ItemId dst = src;
            while (dst == src) {
              dst = WorkloadGenerator::ItemName(rng.Uniform(kItems));
            }
            auto a = txn.Get(src);
            auto b = txn.Get(dst);
            if (!a.ok() || !b.ok()) continue;  // rolled back on scope exit
            if (!a->has_value() || !b->has_value()) {
              empty_reads.fetch_add(1);
              continue;
            }
            const int64_t av = static_cast<int64_t>(
                (*a)->scalar().AsNumeric().value_or(0));
            const int64_t bv = static_cast<int64_t>(
                (*b)->scalar().AsNumeric().value_or(0));
            if (!txn.Put(src, Value(av - 5)).ok()) continue;
            if (!txn.Put(dst, Value(bv + 5)).ok()) continue;
            if (txn.Commit().ok()) committed.fetch_add(1);
          }
        });
      }
      for (auto& w : workers) w.join();
    }

    EXPECT_EQ(refused_begins.load(), 0u) << db.name();
    EXPECT_EQ(empty_reads.load(), 0u) << db.name();
    EXPECT_GT(committed.load(), 0u) << db.name();
    EXPECT_EQ(WorkloadGenerator::TotalBalance(db, kItems), initial)
        << db.name();
    EXPECT_GT(db.engine().version_gc_stats().runs, 0u) << db.name();
    EXPECT_EQ(db.open_transactions(), 0) << db.name();
  }
}

TEST(ConcurrencyTest, InsertPreconditionRecheckedAfterBlockingWait) {
  // A duplicate Insert whose precondition passed before parking on the
  // first inserter's X lock must still fail once the first insert
  // commits — the re-check runs after the wait, under the granted lock.
  for (IsolationLevel level : {IsolationLevel::kSerializable,
                               IsolationLevel::kOracleReadConsistency}) {
    Database db(BlockingOptions(level));
    Transaction t1 = db.Begin();
    ASSERT_TRUE(t1.Insert("x", Row::Scalar(Value(int64_t{1}))).ok())
        << db.name();

    Status t2_status;
    std::thread worker([&] {
      Transaction t2 = db.Begin();
      t2_status = t2.Insert("x", Row::Scalar(Value(int64_t{2})));
      (void)t2.Rollback();
    });
    std::this_thread::sleep_for(milliseconds(50));  // let T2 park
    ASSERT_TRUE(t1.Commit().ok()) << db.name();
    worker.join();

    // Whether T2 parked or arrived after the commit, the answer is the
    // same: the item exists.
    EXPECT_TRUE(t2_status.IsFailedPrecondition())
        << db.name() << ": " << t2_status.ToString();
  }
}

// --- facade-level thread-safety pieces --------------------------------------

TEST(ConcurrencyTest, ForkRngGivesDeterministicIndependentStreams) {
  Database a(BlockingOptions(IsolationLevel::kSnapshotIsolation, 42));
  Database b(BlockingOptions(IsolationLevel::kSnapshotIsolation, 42));
  Rng a1 = a.ForkRng(), a2 = a.ForkRng();
  Rng b1 = b.ForkRng(), b2 = b.ForkRng();
  // Same facade seed => same forks, in order (reproducible runs) ...
  EXPECT_EQ(a1.Next(), b1.Next());
  EXPECT_EQ(a2.Next(), b2.Next());
  // ... and sibling forks are distinct streams.
  Rng c1 = a.ForkRng();
  EXPECT_NE(a1.Next(), c1.Next());
}

TEST(ConcurrencyTest, ConcurrentBeginsAssignUniqueIds) {
  Database db(BlockingOptions(IsolationLevel::kSnapshotIsolation));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<TxnId>> ids(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&db, &ids, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Transaction txn = db.Begin();
          ids[static_cast<size_t>(t)].push_back(txn.id());
          (void)txn.Rollback();
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  std::set<TxnId> unique;
  for (const auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(db.open_transactions(), 0);
}

}  // namespace
}  // namespace critique
