#ifndef CRITIQUE_LOCK_LOCK_MANAGER_H_
#define CRITIQUE_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/history/action.h"
#include "critique/model/predicate.h"
#include "critique/model/row.h"
#include "critique/obs/metrics.h"

namespace critique {

/// Lock modes: Read (Share) and Write (Exclusive), Section 2.3.
enum class LockMode { kShared, kExclusive };

/// Lock durations of Table 2.  Durations are enforced by the engines (the
/// manager releases by handle); the enum exists so policies can be stated
/// in the paper's vocabulary.
enum class LockDuration { kShort, kLong };

/// "S" / "X".
std::string_view LockModeName(LockMode m);

/// Identifies one granted lock for targeted release. 0 is never granted.
using LockHandle = uint64_t;

/// \brief What a transaction asks to lock.
///
/// Item locks (`is_item == true`) name a specific record; predicate locks
/// carry a <search condition>.  Conflicts between an item lock and a
/// predicate lock are decided by coverage of the item's row *images* —
/// a write's before- or after-image satisfying the predicate conflicts,
/// which is exactly the phantom-inclusive conflict rule of Section 2.3.
/// Images should be attached whenever known; without them the manager
/// answers conservatively (may block more, never less).
struct LockSpec {
  TxnId txn = 0;
  LockMode mode = LockMode::kShared;
  bool is_item = true;
  ItemId item;                       // when is_item
  std::optional<Predicate> pred;     // when !is_item
  std::optional<Row> before_image;   // item side: current row (if any)
  std::optional<Row> after_image;    // item side: row after the write

  /// Item S lock on `item`, with the row being read as image.
  static LockSpec ReadItem(TxnId t, ItemId item, std::optional<Row> row);
  /// Item X lock on `item` with before/after images of the write.
  static LockSpec WriteItem(TxnId t, ItemId item, std::optional<Row> before,
                            std::optional<Row> after);
  /// Predicate S lock.
  static LockSpec ReadPredicate(TxnId t, Predicate p);
  /// Predicate X lock (bulk writes; rare).
  static LockSpec WritePredicate(TxnId t, Predicate p);
};

/// Counters exposed for benchmarks and tests.
struct LockStats {
  uint64_t acquired = 0;
  uint64_t blocked = 0;   ///< conflicts: failed TryAcquire calls + waits begun
  uint64_t deadlocks = 0;
  uint64_t released = 0;
  uint64_t timeouts = 0;  ///< blocking acquires that hit the wait timeout
  uint64_t coop_parks = 0;  ///< cooperative waiters registered for a wakeup
  uint64_t wakeups = 0;     ///< release notifications delivered to the hook

  /// One line: "acquired=12 blocked=3 deadlocks=0 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const LockStats& stats);

/// \brief Point-in-time picture of the lock table for stall diagnosis
/// (`Database::DebugDump`): who holds what, who waits on what, and the
/// waits-for edges connecting them.
struct LockDebugSnapshot {
  struct HeldEntry {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
    std::string what;  ///< "item 'x'" / "predicate <p>"
  };
  struct WaiterEntry {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
    std::string what;
    bool cooperative = false;  ///< registered for a hook wakeup (vs parked)
  };
  std::vector<HeldEntry> held;
  std::vector<WaiterEntry> waiters;
  /// Edge (a, b): transaction a waits for transaction b.
  std::vector<std::pair<TxnId, TxnId>> waits_for;

  /// Multi-line report: held locks, waiters, then waits-for edges.
  std::string ToString() const;
};

/// \brief A striped lock table with item and predicate locks, a waits-for
/// graph, and deterministic deadlock handling.
///
/// Layout: held item locks are hash-partitioned across `stripe_count()`
/// independently latched buckets (the data-item hash picks the bucket, so
/// two locks on the same item always meet in the same bucket).  The
/// conflict-free fast path — by far the common case — touches exactly one
/// bucket mutex and scans only that bucket's held locks, so disjoint
/// acquires in different buckets neither contend nor lengthen each other's
/// conflict scans.  Three kinds of state are deliberately *not* striped
/// and are reached only on slow paths:
///
///  * predicate locks, which can conflict with an item in any bucket, live
///    in a side table mutated only while every bucket latch is held
///    (ascending order) and readable under any single bucket latch — so
///    the fast path can still check them without extra locking;
///  * the waits-for graph (`waits_for_` / `waiting_`) sits behind one
///    graph mutex, touched only when a conflict was actually found;
///  * deadlock detection takes the global view (all bucket latches, then
///    the graph mutex) so it can recompute parked waiters' edges live —
///    it runs only on the conflict path (cooperative `TryAcquire`) or when
///    a parked waiter's bucket-local recheck timeout fires (blocking
///    `Acquire`), never on a granted acquire.
///
/// Latch order (strict, everywhere): bucket 0 < bucket 1 < ... <
/// bucket N-1 < graph mutex.  Waiters park on their item's bucket
/// condition variable (predicate waiters park on bucket 0 by convention);
/// releases notify the affected bucket, and cross-bucket notifications
/// that cannot be made race-free without a global latch are bounded by the
/// recheck slice — a waiter never sleeps past it without re-running the
/// full conflict check.
///
/// Two acquisition protocols share the conflict/waits-for core:
///
///  * `TryAcquire` never blocks the calling thread.  On conflict it records
///    waits-for edges from the requester to every conflicting holder and
///    answers `WouldBlock` — unless granting the wait would close a cycle,
///    in which case it answers `Deadlock` and the caller (the engine)
///    aborts the requesting transaction (deterministic requester-as-victim
///    policy).  Cooperative runners retry `WouldBlock` steps when other
///    transactions make progress.
///  * `Acquire` parks the calling thread on its bucket's condition variable
///    until the conflict clears, the wait would close a waits-for cycle
///    (`Deadlock`, same requester-as-victim policy), or `timeout` elapses
///    (`WouldBlock` carrying a lock-wait-timeout message — the caller
///    treats it like any other retryable conflict).  Every relevant
///    release notifies the bucket, and each waiter re-runs global deadlock
///    detection when its recheck slice fires, so cycles formed while
///    threads sleep are still caught.
///
/// Thread-safe; at most one in-flight acquire per transaction at a time
/// (a transaction is one session driven by one thread).
class LockManager {
 public:
  /// Default bucket count; `DbOptions::lock_stripes` overrides per
  /// database.
  static constexpr size_t kDefaultStripes = 16;

  explicit LockManager(size_t stripes = kDefaultStripes);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Re-partitions the table into `stripes` buckets (clamped to
  /// [1, kMaxStripes]).  Precondition: the manager is QUIESCENT — no
  /// locks held, no waiters, and no concurrent calls of any kind; the
  /// engines satisfy this by calling it only from `SetConcurrency`,
  /// before any session starts.  Returns false (changing nothing) when
  /// locks or waiters exist, but that refusal is a best-effort guard for
  /// sequential misuse only: a call racing other operations is undefined
  /// behaviour (the bucket vector, mutexes included, is rebuilt).
  bool SetStripeCount(size_t stripes);

  /// Number of hash buckets the item-lock table is partitioned into.
  size_t stripe_count() const { return buckets_.size(); }

  /// Non-blocking acquire; see class comment for the protocol.
  Result<LockHandle> TryAcquire(const LockSpec& spec);

  /// Blocking acquire; see class comment for the protocol.  `recheck`
  /// bounds how long a parked waiter may sleep before re-running deadlock
  /// detection even without a release notification (the engine exposes it
  /// as `EngineConcurrency::deadlock_check_interval`).
  Result<LockHandle> Acquire(
      const LockSpec& spec, std::chrono::milliseconds timeout,
      std::chrono::milliseconds recheck = std::chrono::milliseconds(50));

  /// \brief Installs the cooperative release-notification hook (the sched
  /// layer's event-driven park/wakeup path; nullptr uninstalls).
  ///
  /// With a hook installed, a `TryAcquire` that answers `WouldBlock`
  /// registers the requester on its item's bucket wait list (predicate
  /// specs on a global list) *under the same latches as the conflict
  /// decision itself* — the atomicity that makes the path lost-wakeup
  /// free: no release can slip between "conflict seen" and "waiter
  /// visible".  Registrations are one-shot and FIFO.  When a conflicting
  /// lock is released, the manager removes the longest-waiting conflicting
  /// waiter — plus, when that head waiter wants Shared mode, every later
  /// conflicting Shared waiter up to the first Exclusive one (reader
  /// batching) — and invokes the hook once per removed waiter, outside
  /// every lock-table latch.  A woken requester either acquires on its
  /// retry or re-registers against whoever still holds the item, so a
  /// conflicting holder always exists while anyone waits and the
  /// notification chain never breaks; FIFO order is what keeps a hot item
  /// from starving old waiters behind fresh arrivals.  Seniority is
  /// assigned once per request: a woken waiter that re-registers for the
  /// same unchanged request keeps its original place in the queue, so
  /// reader churn cannot rotate an upgrade/X waiter to the back every
  /// time one release of several wakes it prematurely.
  ///
  /// `ReleaseAll(txn)` cancels `txn`'s own registration (an aborted
  /// requester never gets a stale notification) and wakes waiters for
  /// every lock it drops.  A deadlock verdict never leaves a
  /// registration behind (the victim retries through rollback, not
  /// wakeup).  The hook may run under a caller's engine latch — releases
  /// happen inside engine operations — and must not call back into the
  /// lock manager; enqueueing the waiter with its own scheduler is the
  /// intended body.
  ///
  /// Precondition: quiescent, exactly as `SetStripeCount` (install before
  /// any session starts).  Without a hook — the default — nothing is
  /// registered and every path keeps its old cost.
  void SetWakeupHook(std::function<void(TxnId)> hook);

  /// Releases one granted lock (no-op on unknown handles).
  void Release(LockHandle handle);

  /// Releases everything `txn` holds and clears its waits-for edges
  /// (commit/abort time for long locks).
  void ReleaseAll(TxnId txn);

  /// Transactions currently blocking `spec` (diagnostics).
  std::vector<TxnId> Blockers(const LockSpec& spec) const;

  /// Number of locks currently held (all transactions).
  size_t HeldCount() const;

  /// Number of locks currently held by `txn`.
  size_t HeldCountBy(TxnId txn) const;

  LockStats stats() const;

  /// Consistent snapshot of holders, waiters, and waits-for edges (takes
  /// the global view; diagnostics only).
  LockDebugSnapshot DebugSnapshot() const;

  /// Wall time blocked `Acquire` calls spent waiting, microseconds per
  /// wait episode (conflict-free acquires never touch the clock).
  const obs::Histogram& wait_histogram() const { return wait_hist_; }

  /// Cooperative park -> wakeup-collection latency, microseconds per
  /// delivered wakeup (the event-driven analogue of `wait_histogram`).
  const obs::Histogram& park_wakeup_histogram() const {
    return park_wakeup_hist_;
  }

  /// Registers the lock-table counters as gauges and the wait/park
  /// histograms under `prefix` ("engine.lock." by convention) — the one
  /// `lock.*` instrument set every lock-taking engine exports.  The
  /// manager must outlive the registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) const;

 private:
  /// Handles carry their bucket in the low byte (0 = the predicate side
  /// table, i+1 = bucket i), so `Release` goes straight to the right
  /// latch.  The cap keeps the global view (all bucket latches + the
  /// graph mutex + a caller's engine latch) comfortably under
  /// ThreadSanitizer's 64-locks-held-per-thread limit, so the TSan gate
  /// can certify the slow path too; past ~the core count extra stripes
  /// buy nothing anyway.
  static constexpr size_t kMaxStripes = 48;
  static constexpr uint64_t kBucketTagBits = 8;
  static constexpr uint64_t kPredTag = 0;

  struct HeldLock {
    LockHandle handle;
    LockSpec spec;
  };

  /// A cooperative waiter registered for one wakeup (see SetWakeupHook).
  /// An entry is live iff `coop_seq_.at(txn) == seq`: deregistration only
  /// touches the graph-side maps, and stale list entries are pruned the
  /// next time their list is scanned for wakeups (lazy invalidation keeps
  /// `ReleaseAll` off buckets it would otherwise have to latch purely to
  /// remove a registration).
  struct CoopWaiter {
    TxnId txn;
    uint64_t seq;
    LockSpec spec;
    /// Registration time, for the park -> wakeup latency histogram.
    std::chrono::steady_clock::time_point parked_at;
  };

  /// One stripe: a latch, the item locks hashed here, and the condition
  /// variable its blocked acquirers park on.
  struct Bucket {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<HeldLock> held;
    int waiters = 0;  ///< parked Acquire calls (guarded by mu)
    /// Cooperative waiters on items hashed here, in registration order
    /// (guarded by mu for the list, graph_mu_ for liveness).
    std::vector<CoopWaiter> coop_waiters;
  };

  size_t BucketOf(const ItemId& id) const;

  /// Locks every bucket latch in ascending order (the global view).
  std::vector<std::unique_lock<std::mutex>> LockAllBuckets() const;

  bool SpecsConflict(const LockSpec& held, const LockSpec& want) const;

  /// Conflicting holders of an item spec, scanning only its bucket plus
  /// the predicate side table.  Requires that bucket's latch.
  std::vector<TxnId> BlockersBucketLocked(const Bucket& b,
                                          const LockSpec& spec) const;

  /// Conflicting holders under the global view (any spec kind).  Requires
  /// every bucket latch.
  std::vector<TxnId> BlockersGlobalLocked(const LockSpec& spec) const;

  /// Cycle probe from `requester`.  Requires every bucket latch plus the
  /// graph mutex: parked waiters' edges are recomputed live from their
  /// waiting spec instead of trusting `waits_for_`, whose recorded edges
  /// go stale while a thread sleeps.
  bool WouldDeadlockLocked(TxnId requester) const;

  /// Removes `txn`'s outgoing edges.  Requires the graph mutex.
  void EraseEdgesLocked(TxnId txn);

  /// Rewrites `txn`'s outgoing edges to `blockers`.  Requires the graph
  /// mutex.
  void RecordEdgesLocked(TxnId txn, const std::vector<TxnId>& blockers);

  /// Drops `txn`'s stale cooperative edges after a granted fast-path
  /// acquire, when any edges exist at all (the atomic probe keeps the
  /// conflict-free hot path off the graph mutex entirely).
  void MaybeClearStaleEdges(TxnId txn);

  /// Grants an item lock into bucket `bi` (its latch held) or — with every
  /// bucket latch held — a predicate lock into the side table.
  LockHandle GrantItemLocked(size_t bi, const LockSpec& spec);
  LockHandle GrantPredLocked(const LockSpec& spec);

  /// Registers `spec.txn` for one cooperative wakeup (at most one live
  /// registration per transaction).  Requires every bucket latch plus the
  /// graph mutex — the conflict path of `TryAcquire` holds both, which is
  /// what makes registration atomic with the `WouldBlock` answer.
  void RegisterCoopWaiterLocked(const LockSpec& spec);

  /// Drops `txn`'s live registration, waiting entry, and edges (no-op
  /// without one).  Requires the graph mutex; the list entry goes stale
  /// and is pruned lazily.
  void DeregisterCoopLocked(TxnId txn);

  /// FIFO wakeup selection for one released `spec`: scans `bucket`'s wait
  /// list (nullptr = every bucket's; the caller holds the corresponding
  /// latches) plus the predicate wait list, prunes stale entries,
  /// deregisters the chosen waiters, and appends them to `out`.  Requires
  /// the graph mutex.
  void CollectCoopWakeupsLocked(const LockSpec& released, Bucket* bucket,
                                std::vector<TxnId>& out);

  /// Delivers collected wakeups to the hook.  Call with NO latches held.
  void NotifyCoopWaiters(const std::vector<TxnId>& wake);

  /// "item 'x'" / "predicate <p>" for conflict messages.
  static std::string Describe(const LockSpec& spec);
  static std::string JoinTxns(const std::vector<TxnId>& txns);

  /// The stripes.  unique_ptr because Bucket (mutex + condvar) is neither
  /// movable nor copyable; the vector itself is resized only by
  /// `SetStripeCount` on an idle manager.
  std::vector<std::unique_ptr<Bucket>> buckets_;

  /// Predicate locks: mutated only with every bucket latch held, readable
  /// under any single bucket latch (any reader's latch is among the
  /// mutator's held set).
  std::vector<HeldLock> pred_held_;

  /// Parked Acquire calls with predicate specs (they park on bucket 0;
  /// item releases in other buckets poke bucket 0 when this is non-zero).
  std::atomic<int> pred_waiters_{0};

  /// Graph mutex: guards waits_for_ and waiting_.  Always taken after
  /// bucket latches, never before.
  mutable std::mutex graph_mu_;
  std::map<TxnId, std::set<TxnId>> waits_for_;
  /// Requests currently parked in `Acquire`, for live edge recompute.
  std::map<TxnId, LockSpec> waiting_;
  /// Number of transactions with recorded edges (== waits_for_.size(),
  /// maintained under graph_mu_): the fast path's "is the graph empty?"
  /// probe.
  std::atomic<int> edge_txns_{0};

  std::atomic<LockHandle> next_seq_{1};

  // --- cooperative release notification (SetWakeupHook) --------------------

  /// Cooperative waiters with predicate specs (guarded by graph_mu_).
  std::vector<CoopWaiter> coop_pred_waiters_;
  /// Live registrations: txn -> its current seq stamp (guarded by
  /// graph_mu_) — the membership test stale list entries are pruned
  /// against.
  std::map<TxnId, uint64_t> coop_seq_;
  /// Wait-episode seniority memory (guarded by graph_mu_).  A wakeup
  /// deregisters its waiter before the retry proves anything; when the
  /// retry still conflicts and re-registers *the same request*, the
  /// remembered seq is reused so the waiter keeps its FIFO place instead
  /// of rotating to the back of the queue.  An entry outlives its
  /// registration on purpose and is retired when the request is — at a
  /// conflict-path grant or at ReleaseAll (the bucket-local fast-path
  /// grant skips the graph mutex and leaves it for ReleaseAll).
  struct StickySeq {
    uint64_t seq;
    bool is_item;
    LockMode mode;
    std::string key;  ///< the item id, or the predicate's ToString form
  };
  std::map<TxnId, StickySeq> coop_sticky_;
  /// Does `spec` re-issue the request `s` remembers?
  static bool StickyMatches(const StickySeq& s, const LockSpec& spec);
  uint64_t coop_next_seq_ = 0;  ///< guarded by graph_mu_
  /// Fast probe ("anyone registered at all?") so releases skip the graph
  /// mutex when the hook is unused or nobody waits.
  std::atomic<int> coop_waiter_count_{0};
  /// Written only by SetWakeupHook on a quiescent manager; invoked by
  /// releases after probing has_wakeup_hook_.
  std::function<void(TxnId)> wakeup_hook_;
  std::atomic<bool> has_wakeup_hook_{false};

  std::atomic<uint64_t> stat_acquired_{0};
  std::atomic<uint64_t> stat_blocked_{0};
  std::atomic<uint64_t> stat_deadlocks_{0};
  std::atomic<uint64_t> stat_released_{0};
  std::atomic<uint64_t> stat_timeouts_{0};
  std::atomic<uint64_t> stat_coop_parks_{0};
  std::atomic<uint64_t> stat_wakeups_{0};

  obs::Histogram wait_hist_;         ///< blocking-acquire wait episodes (us)
  obs::Histogram park_wakeup_hist_;  ///< cooperative park -> wakeup (us)
};

}  // namespace critique

#endif  // CRITIQUE_LOCK_LOCK_MANAGER_H_
