#ifndef CRITIQUE_LOCK_LOCK_MANAGER_H_
#define CRITIQUE_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
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
  /// Cooperative sessions only: hook registrations and hook wakeups.  A
  /// thread parked in `Acquire` shares the wait list and the wakeup
  /// selection but is counted by `blocked` / `timeouts` and timed by
  /// `LockManager::wait_histogram` instead, so on an executor-driven
  /// manager every park still ends in exactly one wakeup.
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
    /// Taken from the registration: true for a session waiting on the
    /// hook ("[parked session]"), false for a thread parked in `Acquire`
    /// ("[blocked thread]").
    bool cooperative = false;
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
///    the graph mutex) so it can recompute registered waiters' edges live
///    — it runs only on the conflict path, never on a granted acquire.
///
/// Latch order (strict, everywhere): bucket 0 < bucket 1 < ... <
/// bucket N-1 < graph mutex.
///
/// One conflict decision and one wait protocol serve both acquisition
/// styles.  On conflict the requester records waits-for edges to every
/// conflicting holder and — unless that closes a cycle, in which case it
/// is answered `Deadlock` and the caller (the engine) aborts it
/// (deterministic requester-as-victim policy) — registers as a waiter on
/// its item's bucket wait list (predicate specs on a global list), *under
/// the same latches as the conflict decision itself*: no release can slip
/// between "conflict seen" and "waiter visible", so no wakeup is lost.
/// Registrations are one-shot and FIFO.  When a conflicting lock is
/// released, the manager removes the longest-waiting conflicting waiter —
/// plus, when that head waiter wants Shared mode, every later conflicting
/// Shared waiter up to the first Exclusive one (reader batching) — and
/// wakes each removed waiter once, outside every lock-table latch.  A
/// woken requester either acquires on its retry or re-registers against
/// whoever still holds the item, so a conflicting holder always exists
/// while anyone waits and the notification chain never breaks; FIFO order
/// is what keeps a hot item from starving old waiters behind fresh
/// arrivals.  Seniority is assigned once per request: a woken waiter that
/// re-registers for the same unchanged request keeps its original place in
/// the queue.  Only a waiting transaction has outgoing edges, so every
/// cycle is closed by some requester's registration, and the probe that
/// registration runs finds it — no waiter ever re-probes while it sleeps.
///
/// The two styles differ only in what a wakeup does:
///
///  * `TryAcquire` never blocks the calling thread: it answers
///    `WouldBlock`, and the waiter is registered only when a wakeup hook is
///    installed (`SetWakeupHook`), which the wakeup then calls so a
///    scheduler can resume the parked session.  Without a hook,
///    cooperative runners retry `WouldBlock` steps when other transactions
///    make progress.
///  * `Acquire` parks the calling thread on its registration's one-shot
///    slot, which the wakeup signals; the thread then retries.  It returns
///    once granted, on `Deadlock`, or when `timeout` elapses (`WouldBlock`
///    carrying a lock-wait-timeout message — the caller treats it like any
///    other retryable conflict).
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

  /// Blocking acquire: the conflict decision of `TryAcquire`, then — on
  /// conflict — park on a registered slot until a release wakes this
  /// waiter (retry) or `timeout` expires (deregister, answer the
  /// lock-wait-timeout `WouldBlock`).  A non-positive `timeout` answers
  /// that `WouldBlock` at once on conflict.  One call is one wait episode
  /// in `stats().blocked` and `wait_histogram()`, however many wakeups
  /// and retries it takes.
  Result<LockHandle> Acquire(const LockSpec& spec,
                             std::chrono::milliseconds timeout);

  /// \brief Installs the cooperative release-notification hook (the sched
  /// layer's event-driven park/wakeup path; nullptr uninstalls).
  ///
  /// With a hook installed, a `TryAcquire` that answers `WouldBlock` has
  /// registered the requester for exactly one wakeup (see the class
  /// comment), delivered by calling the hook with its TxnId.
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
  /// any session starts).  Without a hook — the default — `TryAcquire`
  /// registers nothing and every path keeps its old cost.
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
  /// hook-delivered wakeup (the event-driven analogue of
  /// `wait_histogram`; parked `Acquire` threads are not sampled here).
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

  /// A waiter's entry on a wait list, in registration order.  An entry is
  /// live iff `waiting_.at(txn).seq == seq`: deregistration only touches
  /// the graph-side maps, and stale list entries are pruned the next time
  /// their list is scanned for wakeups (lazy invalidation keeps
  /// `ReleaseAll` off buckets it would otherwise have to latch purely to
  /// remove a registration).
  struct Waiter {
    TxnId txn;
    uint64_t seq;
  };

  /// A live registration (one per waiting transaction).
  struct Registration {
    uint64_t seq;
    /// The waiting request: what releases are matched against, and what
    /// live edge recompute and diagnostics read.
    LockSpec spec;
    /// Registration time, for the park -> wakeup latency histogram.
    std::chrono::steady_clock::time_point parked_at;
    /// A thread parked in `Acquire` waits on this one-shot slot's future;
    /// empty for a cooperative session, which the wakeup hook resumes.
    /// The wakeup moves the promise out under the graph mutex and signals
    /// it after dropping every latch: the signaller owns what it signals,
    /// so a signal that lands after the waiter gave up and returned
    /// touches nothing the waiter freed.
    std::optional<std::promise<void>> park;
  };

  /// Wakeups collected under the latches, delivered after dropping them.
  struct WakeList {
    std::vector<TxnId> sessions;              ///< for the hook
    std::vector<std::promise<void>> threads;  ///< parked `Acquire` calls
  };

  /// One stripe: a latch, the item locks hashed here, and their waiters.
  struct Bucket {
    mutable std::mutex mu;
    std::vector<HeldLock> held;  ///< guarded by mu
    /// Waiters on items hashed here, in registration order (guarded by
    /// graph_mu_, like every wait list, so a release collects wakeups for
    /// all the locks it dropped in one graph-mutex section).
    std::vector<Waiter> waiters;
    /// Live registrations on items hashed here (see MayHaveWaitersLocked).
    std::atomic<int> registered{0};
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
  /// graph mutex: registered waiters' edges are recomputed live from their
  /// waiting spec instead of trusting `waits_for_`, whose recorded edges
  /// go stale while a waiter sleeps.
  bool WouldDeadlockLocked(TxnId requester) const;

  /// Removes `txn`'s outgoing edges.  Requires the graph mutex.
  void EraseEdgesLocked(TxnId txn);

  /// Rewrites `txn`'s outgoing edges to `blockers`.  Requires the graph
  /// mutex.
  void RecordEdgesLocked(TxnId txn, const std::vector<TxnId>& blockers);

  /// Drops `txn`'s stale edges after a granted fast-path acquire, when
  /// any edges exist at all (the atomic probe keeps the conflict-free hot
  /// path off the graph mutex entirely).
  void MaybeClearStaleEdges(TxnId txn);

  /// Grants an item lock into bucket `bi` (its latch held) or — with every
  /// bucket latch held — a predicate lock into the side table.
  LockHandle GrantItemLocked(size_t bi, const LockSpec& spec);
  LockHandle GrantPredLocked(const LockSpec& spec);

  /// The conflict decision both protocols share: grant, or record edges
  /// and answer `Deadlock` or `WouldBlock`.  A `WouldBlock` answer has
  /// registered the requester when `park` is non-null (a fresh slot whose
  /// future is stored in `*park`) or a wakeup hook is installed.
  Result<LockHandle> AcquireOrRegister(const LockSpec& spec,
                                       std::future<void>* park);

  /// Registers `spec.txn`, which has no live registration, for one
  /// wakeup: through `park` for a blocked thread, through the hook
  /// otherwise.  Requires every bucket latch plus the graph mutex —
  /// the conflict path holds both, which is what makes registration
  /// atomic with the `WouldBlock` answer.
  void RegisterWaiterLocked(const LockSpec& spec,
                            std::optional<std::promise<void>> park);

  /// Drops `txn`'s live registration and edges (no-op without one).
  /// Requires the graph mutex; the list entry goes stale and is pruned
  /// lazily.
  void DeregisterWaiterLocked(TxnId txn);

  /// The live-registration count `spec` belongs to: its item's bucket's,
  /// or the predicate one.
  std::atomic<int>& RegisteredCount(const LockSpec& spec);

  /// Whether a waiter that a lock released from `bucket`'s held list
  /// (nullptr: the predicate table) blocked may still be registered, so
  /// the release must collect wakeups.  Requires that bucket's latch
  /// (every bucket latch for nullptr), and must be read under the same
  /// latch as the erase, never cached across latches: registration
  /// raises the counts under every bucket latch, so it is ordered against
  /// the read — a read taken before the latch could miss a waiter that
  /// registered in between and leave it parked until its timeout (or
  /// forever, for a hook-driven session).  Deregistration lowers the
  /// counts under the graph mutex alone, so a stale read only errs toward
  /// a needless collection.
  bool MayHaveWaitersLocked(const Bucket* bucket) const;

  /// FIFO wakeup selection for one released `spec`: scans its item's
  /// bucket wait list (every bucket's for a predicate) plus the predicate
  /// wait list, prunes stale entries, deregisters the chosen waiters, and
  /// appends them to `out`.  Requires the graph mutex.
  void CollectWakeupsLocked(const LockSpec& released, WakeList& out);

  /// Signals collected parked threads and hands collected sessions to the
  /// hook.  Call with NO latches held.
  void NotifyWaiters(WakeList& wake);

  /// "item 'x'" / "predicate <p>" for conflict messages.
  static std::string Describe(const LockSpec& spec);
  static std::string JoinTxns(const std::vector<TxnId>& txns);

  /// The stripes.  unique_ptr because Bucket (a mutex and an atomic) is
  /// neither movable nor copyable; the vector itself is resized only by
  /// `SetStripeCount` on an idle manager.
  std::vector<std::unique_ptr<Bucket>> buckets_;

  /// Predicate locks: mutated only with every bucket latch held, readable
  /// under any single bucket latch (any reader's latch is among the
  /// mutator's held set).
  std::vector<HeldLock> pred_held_;

  /// Graph mutex: guards waits_for_, waiting_, every wait list (the
  /// buckets' too), and the bookkeeping below.  Always taken after bucket
  /// latches, never before.
  mutable std::mutex graph_mu_;
  std::map<TxnId, std::set<TxnId>> waits_for_;
  /// Live registrations of both kinds: the liveness test stale list
  /// entries are pruned against, and the requests deadlock detection
  /// recomputes edges from.
  std::map<TxnId, Registration> waiting_;
  /// Number of transactions with recorded edges (== waits_for_.size(),
  /// maintained under graph_mu_): the fast path's "is the graph empty?"
  /// probe.
  std::atomic<int> edge_txns_{0};

  std::atomic<LockHandle> next_seq_{1};

  /// Waiters with predicate specs (guarded by graph_mu_).
  std::vector<Waiter> pred_waiters_;
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
  std::map<TxnId, StickySeq> sticky_;
  /// Does `spec` re-issue the request `s` remembers?
  static bool StickyMatches(const StickySeq& s, const LockSpec& spec);
  uint64_t next_waiter_seq_ = 0;  ///< guarded by graph_mu_
  /// Live predicate registrations (see MayHaveWaitersLocked).
  std::atomic<int> pred_registered_{0};
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
