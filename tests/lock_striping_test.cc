// Striped lock table: configuration, cross-bucket conflict correctness,
// predicate locks against the striped item table, deadlock detection
// across buckets (cooperative and blocking), and a blocking stress run
// asserting no lost wakeups — every acquire terminates — with consistent
// counters.  Run under --tsan for the data-race certificate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/lock/lock_manager.h"

namespace critique {
namespace {

using std::chrono::milliseconds;

LockSpec W(TxnId t, const ItemId& id) {
  return LockSpec::WriteItem(t, id, std::nullopt, std::nullopt);
}
LockSpec R(TxnId t, const ItemId& id) {
  return LockSpec::ReadItem(t, id, std::nullopt);
}

TEST(LockStripingTest, StripeCountConfigurable) {
  LockManager lm(7);
  EXPECT_EQ(lm.stripe_count(), 7u);
  EXPECT_TRUE(lm.SetStripeCount(32));
  EXPECT_EQ(lm.stripe_count(), 32u);
  // Clamped to at least one bucket.
  EXPECT_TRUE(lm.SetStripeCount(0));
  EXPECT_EQ(lm.stripe_count(), 1u);
}

TEST(LockStripingTest, SetStripeCountRefusedWhileLocksHeld) {
  LockManager lm(4);
  auto h = lm.TryAcquire(R(1, "x"));
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(lm.SetStripeCount(8));
  EXPECT_EQ(lm.stripe_count(), 4u);
  lm.Release(*h);
  EXPECT_TRUE(lm.SetStripeCount(8));
}

TEST(LockStripingTest, ConflictsDetectedAtEveryStripeCount) {
  // Same-item conflicts must be found whatever the partitioning; items
  // spread across buckets must not conflict.
  for (size_t stripes : {1u, 2u, 16u, 48u}) {
    LockManager lm(stripes);
    std::vector<LockHandle> held;
    for (int k = 0; k < 64; ++k) {
      auto h = lm.TryAcquire(W(1, "item" + std::to_string(k)));
      ASSERT_TRUE(h.ok()) << "stripes=" << stripes << " k=" << k;
      held.push_back(*h);
    }
    EXPECT_EQ(lm.HeldCountBy(1), 64u);
    for (int k = 0; k < 64; ++k) {
      EXPECT_TRUE(lm.TryAcquire(W(2, "item" + std::to_string(k)))
                      .status()
                      .IsWouldBlock())
          << "stripes=" << stripes << " k=" << k;
    }
    lm.ReleaseAll(1);
    EXPECT_EQ(lm.HeldCount(), 0u);
    for (int k = 0; k < 64; ++k) {
      EXPECT_TRUE(lm.TryAcquire(W(2, "item" + std::to_string(k))).ok());
    }
  }
}

TEST(LockStripingTest, PredicateLockCoversItemsInAllBuckets) {
  LockManager lm(16);
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);
  ASSERT_TRUE(lm.TryAcquire(LockSpec::ReadPredicate(1, actives)).ok());
  // Covered writes conflict wherever their item hashes.
  Row covered = Row().Set("active", true);
  Row uncovered = Row().Set("active", false);
  for (int k = 0; k < 32; ++k) {
    ItemId id = "emp" + std::to_string(k);
    EXPECT_TRUE(lm.TryAcquire(LockSpec::WriteItem(2, id, covered, covered))
                    .status()
                    .IsWouldBlock())
        << id;
    EXPECT_TRUE(
        lm.TryAcquire(LockSpec::WriteItem(2, id, uncovered, uncovered)).ok())
        << id;
  }
}

TEST(LockStripingTest, ItemLocksInAllBucketsBlockPredicate) {
  LockManager lm(16);
  Row covered = Row().Set("active", true);
  std::vector<LockHandle> held;
  for (int k = 0; k < 8; ++k) {
    auto h = lm.TryAcquire(
        LockSpec::WriteItem(1, "emp" + std::to_string(k), covered, covered));
    ASSERT_TRUE(h.ok());
    held.push_back(*h);
  }
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);
  // The predicate read must see the conflicting X lock whatever bucket it
  // lives in: release one at a time and re-probe.
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(lm.TryAcquire(LockSpec::ReadPredicate(2, actives))
                    .status()
                    .IsWouldBlock())
        << "after " << i << " releases";
    lm.Release(held[i]);
  }
  EXPECT_TRUE(lm.TryAcquire(LockSpec::ReadPredicate(2, actives)).ok());
}

TEST(LockStripingTest, CooperativeDeadlockAcrossBuckets) {
  // The classic 2-cycle with items that (at 16 stripes) land in distinct
  // buckets: detection must walk the global graph, not one bucket's view.
  LockManager lm(16);
  ASSERT_TRUE(lm.TryAcquire(W(1, "alpha")).ok());
  ASSERT_TRUE(lm.TryAcquire(W(2, "omega")).ok());
  EXPECT_TRUE(lm.TryAcquire(W(1, "omega")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(W(2, "alpha")).status().IsDeadlock());
  EXPECT_EQ(lm.stats().deadlocks, 1u);
}

// Spins until `lm` has counted `n` blocked acquires (each parked
// `Acquire` counts once when its wait begins), so a test never relies on
// a bare sleep to know a thread has parked.
void AwaitBlocked(const LockManager& lm, uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (lm.stats().blocked < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_GE(lm.stats().blocked, n);
}

TEST(LockStripingTest, BlockingDeadlockAcrossBucketsDetectedWhileParked) {
  // T1 parks waiting for T2's lock; T2 then closes the cycle from another
  // thread.  The requester that closes the cycle is the victim: T2's own
  // probe, run when its wait would begin, finds the cycle through T1's
  // live edge.  T2's rollback then hands omega to T1.
  LockManager lm(16);
  ASSERT_TRUE(lm.TryAcquire(W(1, "alpha")).ok());
  ASSERT_TRUE(lm.TryAcquire(W(2, "omega")).ok());

  Status t1_status = Status::OK();
  std::thread t1([&] {
    auto r = lm.Acquire(W(1, "omega"), milliseconds(5000));
    t1_status = r.status();
    lm.ReleaseAll(1);
  });
  AwaitBlocked(lm, 1);  // T1 has parked
  auto r2 = lm.Acquire(W(2, "alpha"), milliseconds(5000));
  EXPECT_TRUE(r2.status().IsDeadlock()) << r2.status().ToString();
  lm.ReleaseAll(2);
  t1.join();
  EXPECT_TRUE(t1_status.ok()) << t1_status.ToString();
  EXPECT_EQ(lm.stats().deadlocks, 1u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(LockStripingTest, BlockingHandoffAcrossReleaseAll) {
  // A waiter parked on the wait list must be woken by ReleaseAll from
  // another thread (no lost wakeup), well before its timeout.
  LockManager lm(16);
  ASSERT_TRUE(lm.TryAcquire(W(1, "hot")).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto r = lm.Acquire(W(2, "hot"), milliseconds(5000));
    granted.store(r.ok());
  });
  AwaitBlocked(lm, 1);
  const auto t0 = std::chrono::steady_clock::now();
  lm.ReleaseAll(1);
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(granted.load());
  // The release's wakeup, not the 5000ms timeout, must have woken it.
  EXPECT_LT(waited, milliseconds(900));
  lm.ReleaseAll(2);
}

TEST(LockStripingTest, BlockingPredicateWaiterWokenByItemRelease) {
  // A parked predicate waiter is blocked by an item lock that lives in
  // some bucket; that item's release must wake it directly (the predicate
  // wait list is scanned on every release), well before its timeout.
  LockManager lm(16);
  Row covered = Row().Set("active", true);
  ASSERT_TRUE(lm.TryAcquire(LockSpec::WriteItem(1, "emp7", covered, covered))
                  .ok());
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto r = lm.Acquire(LockSpec::ReadPredicate(2, actives),
                        milliseconds(5000));
    granted.store(r.ok());
  });
  AwaitBlocked(lm, 1);
  const auto t0 = std::chrono::steady_clock::now();
  lm.ReleaseAll(1);
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(granted.load());
  EXPECT_LT(waited, milliseconds(900));
  EXPECT_EQ(lm.stats().timeouts, 0u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

// Stress: threads hammer overlapping hot keys through the blocking
// protocol with two-lock transactions in *descending-then-ascending*
// mixed order, so real deadlocks occur.  Every acquire must terminate
// (grant, deadlock, or timeout), all locks drain, and the counters add
// up — the "no lost wakeups, no missed deadlocks" certificate.
TEST(LockStripingStressTest, NoLostWakeupsNoStrandedLocks) {
  LockManager lm(16);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 120;
  constexpr int kHot = 6;
  std::atomic<uint64_t> granted_pairs{0}, deadlock_aborts{0}, timeouts{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = 0x243f6a8885a308d3ull * (t + 1);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnId txn =
            static_cast<TxnId>(t + 1 + (i + 1) * kThreads);
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        int a = static_cast<int>((rng >> 33) % kHot);
        int b = static_cast<int>((rng >> 17) % kHot);
        if (a == b) b = (b + 1) % kHot;
        // Mixed order on purpose: half the threads go high->low.
        if ((t % 2 == 0) == (a < b)) std::swap(a, b);
        auto h1 = lm.Acquire(W(txn, "hot" + std::to_string(a)),
                             milliseconds(500));
        if (!h1.ok()) {
          if (h1.status().IsDeadlock()) deadlock_aborts.fetch_add(1);
          if (h1.status().IsWouldBlock()) timeouts.fetch_add(1);
          lm.ReleaseAll(txn);
          continue;
        }
        auto h2 = lm.Acquire(W(txn, "hot" + std::to_string(b)),
                             milliseconds(500));
        if (h2.ok()) {
          granted_pairs.fetch_add(1);
        } else {
          if (h2.status().IsDeadlock()) deadlock_aborts.fetch_add(1);
          if (h2.status().IsWouldBlock()) timeouts.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Everyone terminated (join returned) and nothing is stranded.
  EXPECT_EQ(lm.HeldCount(), 0u);
  const LockStats st = lm.stats();
  EXPECT_EQ(st.acquired, st.released);
  EXPECT_EQ(st.deadlocks, deadlock_aborts.load());
  EXPECT_EQ(st.timeouts, timeouts.load());
  // The mixed acquisition order over a tiny hot set makes real cycles all
  // but certain; "no missed deadlocks" here means the run neither hung
  // nor leaked — and most transactions still succeeded.
  EXPECT_GT(granted_pairs.load(),
            static_cast<uint64_t>(kThreads * kTxnsPerThread / 2));
}

// End-to-end: the stripes knob reaches the engines through DbOptions, and
// a striped engine run behaves identically (same invariant) to stripes=1.
TEST(LockStripingTest, DbOptionsStripesPlumbedThroughEngines) {
  for (size_t stripes : {1u, 32u}) {
    DbOptions opts(IsolationLevel::kSerializable);
    opts.mode = ConcurrencyMode::kBlocking;
    opts.lock_stripes = stripes;
    Database db(opts);
    for (int k = 0; k < 4; ++k) {
      (void)db.Load("acct" + std::to_string(k), Value(int64_t{100}));
    }
    constexpr int kThreads = 3;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&db, t] {
        for (int i = 0; i < 30; ++i) {
          (void)db.Execute([&](Transaction& txn) {
            const std::string from = "acct" + std::to_string((t + i) % 4);
            const std::string to = "acct" + std::to_string((t + i + 1) % 4);
            auto a = txn.GetScalar(from);
            if (!a.ok()) return a.status();
            auto b = txn.GetScalar(to);
            if (!b.ok()) return b.status();
            auto s = txn.Put(from, Value(*a->AsNumeric() - 1));
            if (!s.ok()) return s;
            return txn.Put(to, Value(*b->AsNumeric() + 1));
          });
        }
      });
    }
    for (auto& w : workers) w.join();
    // Transfers preserve the sum at Serializable whatever the striping.
    int64_t sum = 0;
    auto t = db.Begin();
    for (int k = 0; k < 4; ++k) {
      auto v = t.GetScalar("acct" + std::to_string(k));
      ASSERT_TRUE(v.ok());
      sum += static_cast<int64_t>(*v->AsNumeric());
    }
    EXPECT_EQ(sum, 400) << "stripes=" << stripes;
  }
}

}  // namespace
}  // namespace critique
