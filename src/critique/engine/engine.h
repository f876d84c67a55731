#ifndef CRITIQUE_ENGINE_ENGINE_H_
#define CRITIQUE_ENGINE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "critique/common/clock.h"
#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/engine/isolation.h"
#include "critique/history/history.h"
#include "critique/lock/lock_manager.h"
#include "critique/model/predicate.h"
#include "critique/model/row.h"
#include "critique/obs/metrics.h"
#include "critique/obs/txn_trace.h"
#include "critique/storage/version_store.h"
#include "critique/wal/wal_sink.h"

namespace critique {

/// Operation counters shared by all engines.
struct EngineStats {
  uint64_t reads = 0;
  uint64_t predicate_reads = 0;
  uint64_t writes = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;            ///< explicit application aborts
  uint64_t deadlock_aborts = 0;   ///< victim aborts by the lock manager
  uint64_t serialization_aborts = 0;  ///< FCW / FWW / SSI aborts
  uint64_t blocked_ops = 0;       ///< operations answered kWouldBlock

  // Breakdown of `serialization_aborts` by the paper's taxonomy (the same
  // tags the `obs::TxnTracer` records).  The aggregate above keeps
  // counting for compatibility; these three always sum to it for the
  // stock engines.
  uint64_t fcw_aborts = 0;      ///< First-Committer/Updater-Wins conflicts
  uint64_t ssi_aborts = 0;      ///< SSI dangerous-structure refusals
  uint64_t in_doubt_aborts = 0; ///< 2PC decision-time revalidation refusals

  /// All aborts, whatever initiated them.
  uint64_t total_aborts() const {
    return aborts + deadlock_aborts + serialization_aborts;
  }

  /// Transactions that reached a terminal state (commit or any abort) —
  /// the invariant the runner tests assert: commits + total_aborts() must
  /// equal the number of finished transactions.
  uint64_t finished_txns() const { return commits + total_aborts(); }

  /// One line: "reads=3 predicate_reads=0 writes=2 commits=1 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const EngineStats& stats);

/// How an engine resolves lock conflicts; set through
/// `Engine::SetConcurrency` before any session starts.
struct EngineConcurrency {
  /// When true, lock conflicts park the calling thread on the lock
  /// manager's FIFO wait list — the same registration a cooperative
  /// session's wakeup hook uses, woken by the conflicting release, with
  /// deadlock detection when the wait begins — instead of answering
  /// `kWouldBlock`.
  bool blocking_locks = false;

  /// Blocking mode only: how long a lock wait may last before the engine
  /// gives up and answers `kWouldBlock` ("lock wait timeout"), which the
  /// session layer treats as a retryable whole-transaction failure.
  std::chrono::milliseconds lock_wait_timeout{250};

  /// How many independently latched buckets the engine's lock table is
  /// hash-partitioned into (lock-based engines only; 1 = the old global
  /// table).  Applied when `SetConcurrency` runs, i.e. before any session.
  size_t lock_stripes = LockManager::kDefaultStripes;

  /// Which `VersionStore` backend multiversion engines run on (see
  /// `StorageBackend`).  Applied when `SetConcurrency` runs, i.e. before
  /// any session — switching backends later is refused by the engines
  /// (the swap would discard loaded data); re-announcing the same backend
  /// is a no-op, so hooks that re-run `SetConcurrency` stay safe.
  /// Single-version engines (the locking levels) accept and ignore it.
  StorageBackend storage_backend = StorageBackend::kMap;

  /// Cooperative mode only: release-notification hook for lock-based
  /// engines (`LockManager::SetWakeupHook`).  When set, every operation
  /// that answers `kWouldBlock` has first registered the transaction for
  /// exactly one wakeup — the hook fires with its TxnId once a conflicting
  /// lock is released, so a scheduler can park the session instead of
  /// polling through timed retries.  The hook runs on the releasing
  /// thread, outside lock-table latches but possibly under engine latches:
  /// it must only hand the id to a queue, never call back into the engine.
  /// Engines without a lock table ignore it (they never answer
  /// `kWouldBlock`).
  std::function<void(TxnId)> lock_wakeup;
};

/// What a multiversion engine does with versions no live snapshot can see.
enum class VersionGcMode {
  /// Keep every version forever: `BeginAtTimestamp` time travel to any
  /// historical snapshot stays exact, and diagnostic chain dumps show the
  /// full write history.  The default — correctness layers (paper
  /// schedules, history/diagnosis) rely on it.
  kRetainAll,
  /// Epoch-based pruning: every `commit_interval` commits the engine
  /// computes a low-watermark from the begin timestamps of the
  /// transactions still open on it and drops versions no live or future
  /// snapshot can observe.  Time travel below the collected floor is
  /// *refused* (FailedPrecondition), never answered from a pruned chain.
  kWatermark,
};

/// Version-GC configuration, set through `Engine::SetVersionGc` before
/// any session starts (the `Database` facade does this from its
/// constructor, from `DbOptions::version_gc` / `version_gc_interval`).
struct VersionGcPolicy {
  VersionGcMode mode = VersionGcMode::kRetainAll;
  /// kWatermark only: commits between automatic GC passes (the epoch
  /// length).  0 behaves as 1.
  uint32_t commit_interval = 64;
};

/// What version GC has done so far (multiversion engines).
struct VersionGcStats {
  uint64_t runs = 0;       ///< GC passes executed (automatic + explicit)
  uint64_t collected = 0;  ///< versions dropped across all passes
};

/// \brief Serializes history appends and stats updates across concurrent
/// sessions.
///
/// Engines mutate their recorded history and operation counters through
/// this recorder only, so the pair stays consistent however many threads
/// drive the engine.  The reference accessors are cheap views for quiescent
/// callers (no sessions in flight — the normal read-the-results point);
/// `HistorySnapshot` / `StatsSnapshot` copy under the recorder mutex for
/// mid-run observers.
class EngineRecorder {
 public:
  /// Observer invoked for every recorded action, under the recorder
  /// mutex: observers see exactly the recorded total order, at the price
  /// of running inside the engine's innermost critical section — keep
  /// them cheap and never call back into the engine.  The online MVSG
  /// checker (check/online_checker.h) feeds from here.
  using Observer = std::function<void(const Action&)>;

  /// Installs (or with nullptr removes) the action observer.  Call
  /// before any session starts — the `Database` facade does this when
  /// `DbOptions::online_check` is set.
  void SetObserver(Observer observer) {
    std::lock_guard<std::mutex> lk(mu_);
    observer_ = std::move(observer);
  }

  /// Appends `a`, bumping `*counter` (when non-null) atomically with it.
  void Record(Action a, uint64_t EngineStats::*counter = nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    if (counter != nullptr) ++(stats_.*counter);
    if (observer_) observer_(a);
    history_.Append(std::move(a));
  }

  /// Bumps `*counter` by `n` with no history append.
  void Count(uint64_t EngineStats::*counter, uint64_t n = 1) {
    std::lock_guard<std::mutex> lk(mu_);
    (stats_.*counter) += n;
  }

  const History& history() const { return history_; }
  const EngineStats& stats() const { return stats_; }

  History HistorySnapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return history_;
  }
  EngineStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  History history_;
  EngineStats stats_;
  Observer observer_;
};

/// \brief The transaction-engine interface every isolation implementation
/// satisfies: the locking levels of Table 2, Snapshot Isolation
/// (Section 4.2), Oracle Read Consistency (Section 4.3) and the SSI
/// extension.
///
/// Conflict protocol:
///
///  * `kWouldBlock` — the operation did nothing; the caller may retry it
///    later (after other transactions progress).  Models waiting on a
///    conflicting lock in cooperative mode; in blocking mode it is only
///    answered after a lock wait timed out.
///  * `kDeadlock` — the lock manager chose this transaction as a deadlock
///    victim; the engine has already rolled it back (undo applied, locks
///    released, `a<t>` recorded).
///  * `kSerializationFailure` — a multiversion engine aborted the
///    transaction (First-Committer-Wins at commit, eager write-write
///    conflict, or an SSI hazard); already rolled back, `a<t>` recorded.
///  * `kTransactionAborted` — operation on a transaction that is not
///    active (never begun, already finished, or rolled back earlier).
///
/// Thread-safety contract (the stock engines all honor it): every
/// operation is safe to call from any thread, provided each transaction is
/// driven by one thread at a time.  Implementations serialize operation
/// bodies behind an internal latch and route every history append / stats
/// update through the `EngineRecorder`; in blocking mode, lock waits park
/// *outside* the latch so other sessions keep running while a thread
/// sleeps.  `SetConcurrency` must be called before the first session
/// begins (the `Database` facade does this from its constructor).
///
/// Every executed operation is recorded into `history()` with observed
/// values, row images, and (for multiversion engines) version subscripts,
/// so any run can be fed to the analysis layer: the engines *produce*
/// histories, the detectors *judge* them, and the two views must agree —
/// the property the test suite leans on hardest.  Concurrent runs record
/// the engine's own linearization of the actions, so the recorded history
/// is judged exactly like a cooperative one.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Selects cooperative (`kWouldBlock`) vs blocking lock-conflict
  /// handling and the lock-table stripe count.  Call before any session
  /// starts; engines without locks accept and ignore it.
  virtual void SetConcurrency(EngineConcurrency c) { concurrency_ = c; }

  /// The conflict-handling mode in force.
  const EngineConcurrency& concurrency() const { return concurrency_; }

  /// Configures version garbage collection.  Call before any session
  /// starts; engines without version chains (the locking levels) accept
  /// and ignore it.
  virtual void SetVersionGc(const VersionGcPolicy& p) { gc_policy_ = p; }

  /// The version-GC policy in force.
  const VersionGcPolicy& version_gc() const { return gc_policy_; }

  /// Attaches the write-ahead-log sink redo records flow into (nullptr
  /// detaches; the engine then runs purely in memory, the historical
  /// default).  Call before any session starts — the `Database` facade
  /// does this when `DbOptions::wal_path` is set.  The emission protocol
  /// engines follow is documented on `WalSink`.
  virtual void SetWal(WalSink* wal) { wal_ = wal; }

  /// The attached WAL sink, or nullptr when running without durability.
  WalSink* wal() const { return wal_; }

  /// Installs an action observer on the recorder (see
  /// `EngineRecorder::SetObserver`).  Call before any session starts.
  void SetActionObserver(EngineRecorder::Observer observer) {
    recorder_.SetObserver(std::move(observer));
  }

  /// Attaches the opt-in transaction tracer (nullptr detaches, the
  /// default).  Engines record begin/prepare/commit/abort events — abort
  /// events tagged with the paper-taxonomy reason — through it.  Call
  /// before any session starts; the tracer must outlive the engine.
  virtual void SetTracer(obs::TxnTracer* tracer) { tracer_ = tracer; }

  /// The attached tracer, or nullptr.
  obs::TxnTracer* tracer() const { return tracer_; }

  /// Registers this engine's instruments with `reg` under `prefix`
  /// ("engine." by convention).  The base registers every `EngineStats`
  /// field as a gauge; lock-based engines add lock-table counters and
  /// wait histograms, the SI engine its commit-pipeline stage histograms.
  /// The engine must outlive the registry entries (`reg.Unregister`).
  virtual void RegisterMetrics(obs::MetricsRegistry& reg,
                               const std::string& prefix);

  /// Multi-line stall-introspection report (lock holders, waiters,
  /// waits-for edges for lock-based engines); "" when the engine has
  /// nothing to say.  Safe to call while sessions are parked mid-conflict.
  virtual std::string DebugDump() const { return std::string(); }

  /// Runs one version-GC pass now (whatever the configured mode), pruning
  /// with the engine's current low-watermark; returns versions dropped.
  /// No-op (0) for engines without version chains.
  virtual size_t GarbageCollectVersions() { return 0; }

  /// Stored version count across all items (0 for single-version engines).
  virtual size_t VersionCount() const { return 0; }

  /// Longest version chain (0 for single-version engines) — the GC
  /// boundedness metric.
  virtual size_t MaxVersionChainLength() const { return 0; }

  /// Version-GC counters (zeros for single-version engines).
  virtual VersionGcStats version_gc_stats() const { return {}; }

  /// Engine display name ("Locking READ COMMITTED (Degree 2)", ...).
  virtual std::string name() const { return IsolationLevelName(level()); }

  /// The isolation level this engine implements.
  virtual IsolationLevel level() const = 0;

  /// Loads an initial row before any transaction begins (bootstrap only).
  virtual Status Load(const ItemId& id, Row row) = 0;

  /// Starts transaction `txn` (ids must be unique per engine instance and
  /// >= 1; 0 is the initial-state pseudo-transaction).
  virtual Status Begin(TxnId txn) = 0;

  /// Starts `txn` with a *per-transaction* isolation level — the paper's
  /// Table 4 reading of isolation as a contract each transaction declares
  /// for itself, not a property of the whole system.  Engines that can
  /// honor `level` alongside their native one override this (the SI
  /// engine runs RC/SI/SSI transactions side by side, the locking engine
  /// any Table 2 lock protocol); the default refuses anything but the
  /// engine's own level, so a declared contract is never silently
  /// weakened or strengthened.
  virtual Status BeginWithLevel(TxnId txn, IsolationLevel level) {
    if (level == this->level()) return Begin(txn);
    return Status::FailedPrecondition(
        name() + " cannot honor a per-transaction " +
        IsolationLevelName(level) + " contract");
  }

  /// Time travel (Section 4.2): starts `txn` reading the historical
  /// snapshot `ts`.  A capability of timestamped multiversion engines
  /// (Snapshot Isolation / SSI — including any decorator wrapping one);
  /// everything else refuses with FailedPrecondition.
  virtual Status BeginAt(TxnId txn, Timestamp ts) {
    (void)txn;
    (void)ts;
    return Status::FailedPrecondition(name() +
                                      " keeps no timestamped history");
  }

  /// The latest committed snapshot timestamp, when the engine keeps one
  /// (the "now" a historical `BeginAt` is relative to); nullopt otherwise.
  virtual std::optional<Timestamp> SnapshotTimestamp() const {
    return std::nullopt;
  }

  /// Reads one item; nullopt when absent (or deleted at the snapshot).
  virtual Result<std::optional<Row>> Read(TxnId txn, const ItemId& id) = 0;

  /// Evaluates a <search condition>; returns matching (id, row) pairs.
  /// `name` is the history label for the predicate (the paper's "P").
  virtual Result<std::vector<std::pair<ItemId, Row>>> ReadPredicate(
      TxnId txn, const std::string& name, const Predicate& pred) = 0;

  /// Upserts one item.
  virtual Status Write(TxnId txn, const ItemId& id, Row row) = 0;

  /// Bulk UPDATE ... WHERE <pred>: transforms every matching row, i.e. the
  /// paper's predicate write `w1[P]` ("writing a set of records satisfying
  /// predicate P", Section 2.1).  Returns the number of rows updated.
  /// The default implementation evaluates the predicate through
  /// `ReadPredicate` and writes item-by-item; the locking engine overrides
  /// it to take a Write *predicate* lock (Table 2: "Write locks on data
  /// items and predicates"), the SI engine to install pending versions
  /// against its snapshot.
  virtual Result<size_t> UpdateWhere(
      TxnId txn, const std::string& name, const Predicate& pred,
      const std::function<Row(const Row&)>& transform);

  /// Bulk DELETE ... WHERE <pred>; returns the number of rows deleted.
  virtual Result<size_t> DeleteWhere(TxnId txn, const std::string& name,
                                     const Predicate& pred);

  /// Inserts; FailedPrecondition when the item is already visible.
  virtual Status Insert(TxnId txn, const ItemId& id, Row row) = 0;

  /// Deletes; NotFound when the item is not visible.
  virtual Status Delete(TxnId txn, const ItemId& id) = 0;

  /// Positions the transaction's default cursor on `id` and reads it
  /// (`rc` in the history).  Under Cursor Stability the read lock is held
  /// until the cursor moves or closes.
  virtual Result<std::optional<Row>> FetchCursor(TxnId txn,
                                                 const ItemId& id) = 0;

  /// Multi-cursor form (Section 4.1: "the technique of putting a cursor on
  /// an item to hold its value stable can be used for multiple items, at
  /// the cost of using multiple cursors").  The default cursor is "".
  /// Engines without per-cursor state delegate to `FetchCursor`.
  virtual Result<std::optional<Row>> FetchCursorNamed(TxnId txn,
                                                      const std::string& cursor,
                                                      const ItemId& id) {
    (void)cursor;
    return FetchCursor(txn, id);
  }

  /// Writes the current of cursor (`wc` in the history).
  virtual Status WriteCursor(TxnId txn, const ItemId& id, Row row) = 0;

  /// Closes the default cursor, releasing any cursor-held lock.
  virtual Status CloseCursor(TxnId txn) = 0;

  /// Closes one named cursor.  Engines without per-cursor state delegate
  /// to `CloseCursor`.
  virtual Status CloseCursorNamed(TxnId txn, const std::string& cursor) {
    (void)cursor;
    return CloseCursor(txn);
  }

  /// Atomic read-modify-write of one item — the model of a single SQL
  /// UPDATE statement ("the SQL standard defines each statement as
  /// atomic", Section 4.3).  The default runs Read-then-Write through the
  /// engine's normal paths; the multiversion engine overrides it so an
  /// Oracle Read Consistency transaction applies the transform to the
  /// latest committed value after its write lock is granted
  /// (statement-level write consistency).
  virtual Status Update(
      TxnId txn, const ItemId& id,
      const std::function<Row(const std::optional<Row>&)>& transform);

  /// Commits; on kSerializationFailure the transaction was aborted instead.
  virtual Status Commit(TxnId txn) = 0;

  /// Rolls back (application-initiated ROLLBACK).
  virtual Status Abort(TxnId txn) = 0;

  // --- two-phase-commit participant protocol -------------------------------
  //
  // A distributed coordinator (shard/TxnCoordinator) ends a transaction in
  // two steps: `Prepare` runs every validation that could still refuse the
  // commit and moves the transaction into a *prepared* (in-doubt) state —
  // locks stay held, pending versions stay pending, and every further
  // operation (including plain Commit/Abort) answers FailedPrecondition
  // until the coordinator's decision arrives as `CommitPrepared` or
  // `AbortPrepared`.
  //
  // After an OK `Prepare`, `CommitPrepared` must not fail for engines
  // whose prepared state pins every conflict it validated (lock
  // schedulers: the locks held across the in-doubt window are the proof).
  // A *certifying* engine (SSI) cannot promise that: certification is only
  // complete at publication, so its `CommitPrepared` re-validates and may
  // answer kSerializationFailure when a dangerous structure completed
  // while the participant was in doubt — the engine has then already
  // rolled the participant back, exactly as a failed `Commit`, and the
  // refusal is an abort *acknowledgement* (the participant is terminal, no
  // locks or versions leak).  Coordinators must treat such a refusal as a
  // participant abort, not a protocol error (see shard/TxnCoordinator).
  //
  // The base-class defaults implement the *trivial participant* for
  // engines whose `Commit` cannot fail (pure lock schedulers): `Prepare`
  // validates nothing and leaves the transaction active, the decision
  // calls forward to `Commit`/`Abort`, and nothing is ever in doubt.
  // Caveat: a trivial participant cannot survive a coordinator crash —
  // after the crash the session layer rolls its still-active transaction
  // back, which is the correct presumed-abort answer for a crash *before*
  // the decision but breaks atomicity if a commit was already logged
  // (other participants recover forward).  Every stock engine therefore
  // overrides the protocol with a real prepared state; the default exists
  // for custom SPI engines that never see a crashing coordinator.  Engines
  // with a fallible commit (First-Committer-Wins, SSI) must override all
  // four regardless.

  /// Phase 1: validate and move `txn` to the prepared (in-doubt) state.
  /// Retryable refusals (`kSerializationFailure`, ...) mean the engine
  /// already rolled the transaction back, exactly as a failed `Commit`.
  virtual Status Prepare(TxnId txn) {
    (void)txn;
    return Status::OK();
  }

  /// Phase 2, commit decision: finishes a prepared transaction.  Succeeds
  /// after an OK `Prepare` except on a certifying engine, whose
  /// re-validation may refuse with kSerializationFailure (participant
  /// already rolled back — see the protocol notes above).
  virtual Status CommitPrepared(TxnId txn) { return Commit(txn); }

  /// Phase 2, abort decision: rolls back a prepared transaction.
  virtual Status AbortPrepared(TxnId txn) { return Abort(txn); }

  /// Transactions prepared but not yet decided — what a recovering
  /// coordinator must resolve (presumed abort: no logged decision means
  /// abort).  Sorted ascending.
  virtual std::vector<TxnId> InDoubtTransactions() const { return {}; }

  /// The history recorded so far.  Reference view for quiescent callers;
  /// use `HistorySnapshot` while sessions are in flight.
  const History& history() const { return recorder_.history(); }

  /// Operation counters.  Reference view for quiescent callers; use
  /// `StatsSnapshot` while sessions are in flight.
  const EngineStats& stats() const { return recorder_.stats(); }

  /// Copies of history / stats taken under the recorder mutex, safe while
  /// other threads are mid-operation.
  History HistorySnapshot() const { return recorder_.HistorySnapshot(); }
  EngineStats StatsSnapshot() const { return recorder_.StatsSnapshot(); }

 protected:
  /// Shared lock-acquisition protocol for lock-based engines: cooperative
  /// `TryAcquire`, or — in blocking mode — `Acquire` parked with the
  /// caller's latch `lk` dropped (and re-taken before returning), so
  /// conflicting sessions can run their releasing operations.  `timeout`
  /// is this call's wait budget (callers redoing an acquire pass the
  /// remaining budget, so one operation never waits longer than the
  /// configured lock-wait timeout in total); non-positive budgets answer
  /// `kWouldBlock` immediately on conflict.  Counts `blocked_ops` on a
  /// conflict answer; on a deadlock verdict counts `deadlock_aborts` and
  /// runs `rollback_requester` under the re-taken latch before returning.
  ///
  /// `Lk` is any lock wrapper with unlock()/lock() — `std::unique_lock`
  /// over a mutex, or `std::shared_lock` over the reader-writer table
  /// latch the stock engines hold during operation bodies.
  template <typename Lk>
  Result<LockHandle> AcquireLockWithProtocol(
      LockManager& lm, Lk& lk, const LockSpec& spec,
      std::chrono::milliseconds timeout,
      const std::function<void()>& rollback_requester) {
    Result<LockHandle> r = [&]() -> Result<LockHandle> {
      if (!concurrency_.blocking_locks) return lm.TryAcquire(spec);
      lk.unlock();
      auto waited = lm.Acquire(spec, timeout);
      lk.lock();
      return waited;
    }();
    if (r.ok()) return r;
    if (r.status().IsWouldBlock()) {
      recorder_.Count(&EngineStats::blocked_ops);
      return r;
    }
    if (r.status().IsDeadlock()) {
      recorder_.Count(&EngineStats::deadlock_aborts);
      Trace(spec.txn, obs::TraceEventType::kAbort,
            obs::AbortReason::kDeadlockVictim, r.status().message());
      rollback_requester();
    }
    return r;
  }

  /// Records a tracer event when a tracer is attached (one branch when
  /// not — tracing is opt-in and off the hot path by default).
  void Trace(TxnId txn, obs::TraceEventType type,
             obs::AbortReason reason = obs::AbortReason::kNone,
             std::string detail = std::string()) const {
    if (tracer_ != nullptr) {
      tracer_->Record(txn, type, reason, std::move(detail));
    }
  }

  EngineRecorder recorder_;
  EngineConcurrency concurrency_;
  VersionGcPolicy gc_policy_;
  WalSink* wal_ = nullptr;  ///< not owned; outlives the engine
  obs::TxnTracer* tracer_ = nullptr;  ///< not owned; outlives the engine
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_ENGINE_H_
