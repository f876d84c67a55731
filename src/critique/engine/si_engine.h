#ifndef CRITIQUE_ENGINE_SI_ENGINE_H_
#define CRITIQUE_ENGINE_SI_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "critique/common/clock.h"
#include "critique/engine/engine.h"
#include "critique/engine/txn_table.h"
#include "critique/lock/lock_manager.h"
#include "critique/storage/version_store.h"

namespace critique {

/// Options for `SnapshotIsolationEngine`.
struct SnapshotIsolationOptions {
  /// First-Updater-Wins ablation: abort a write immediately when another
  /// active transaction holds a pending version of the item (instead of
  /// waiting for the paper's commit-time First-Committer-Wins check).
  bool eager_write_conflicts = false;
};

/// What the commit pipeline has done so far (observability for tests and
/// benches; see the `Commit pipeline` notes on the class).
struct CommitPipelineStats {
  /// Commit-sequence slots issued (one per Commit/Prepare validation).
  uint64_t slots_issued = 0;
  /// Transactions refused by the *re*-validation between slot acquisition
  /// and version publication (a dangerous structure completed inside the
  /// commit window).
  uint64_t revalidation_aborts = 0;
  /// Prepared (in-doubt) participants refused at `CommitPrepared` because
  /// their dangerous structure completed while they were in doubt.
  uint64_t decision_aborts = 0;
};

/// \brief The multiversion engine: Snapshot Isolation (Section 4.2), its
/// Serializable-SI extension, and Oracle Read Consistency (Section 4.3),
/// selected by the native level the engine is built with.
///
///  * Snapshot Isolation: every transaction reads from the committed
///    snapshot at its Start-Timestamp, sees its own writes, and commits
///    only if no concurrent committed transaction wrote the same data
///    (First-Committer-Wins).  "A transaction running in Snapshot
///    Isolation is never blocked attempting a read": no SI operation ever
///    returns kWouldBlock; conflicts surface only as kSerializationFailure
///    aborts.
///  * Serializable SI: SI plus rw-antidependency tracking (the hazard this
///    paper's write-skew analysis exposed; made precise by Cahill et al.
///    2008), aborting pivot transactions at commit.  May abort false
///    positives; never admits an rw-only cycle.
///  * Oracle Read Consistency: SI with two policy changes.  "Each SQL
///    statement [sees] the most recent committed database value at the
///    time the statement began" (the start timestamp advances at every
///    statement, as at Read Committed), and a long item Write lock taken
///    at the write replaces First-Committer-Wins (First-*Writer*-Wins).
///    `FetchCursor` locks the row at fetch (SELECT ... FOR UPDATE, so no
///    P4C) and `Update` applies its transform to the latest committed
///    value once the lock is granted; P2/P3, application-level P4 and
///    A5A stay possible.  ORC is the only level that touches the lock
///    table, so SI/SSI transactions never wait.
///
/// Latching (thread-safe per the `Engine` contract, without an engine-wide
/// latch): disjoint sessions no longer queue behind one mutex.
///
///  * `table_mu_` (reader-writer) — the transaction table.  Every session
///    operation holds it *shared*, `Begin`/`BeginWithLevel`/`BeginAt`
///    included, so a begin never drains the operations in flight.  Only a
///    version-GC pass (which retires states) and `InDoubtTransactions` (a
///    cross-session scan of owner-written flags) take it exclusive.  A GC
///    pass therefore never computes its watermark past a snapshot that has
///    ticked but is not yet registered.  A transaction's own state is
///    mutated only by its driving thread ("one session per thread"), so
///    shared table access suffices for everything per-transaction.
///  * the registry mutex inside `txns_` (`TxnTable`) — the map's structure
///    only: every insert, lookup and whole-table scan.  `Begin` draws its
///    start timestamp and checks the GC floor under it.  It is the
///    innermost latch: taken under any of the others, never held while
///    acquiring one.  A `TxnState&` outlives it (map nodes are stable;
///    only a GC pass, table-exclusive, erases them).
///  * `commit_mu_` — the commit pipeline (below): validation, write-set
///    reservations, publication, and the commit-sequence counter.
///  * `ssi_mu_` — SSI bookkeeping: the SIREAD tables (`readers_`,
///    `predicate_readers_`), the writer index `writers_` (item to the
///    transactions whose live write set holds it: filled by every write,
///    emptied at rollback and at GC retirement), rw-edge sets, and (in SSI
///    mode) cross-transaction state reads, so edge tracking and pivot
///    validation see consistent neighbour states.  A read visits only the
///    item's writers, never the whole table.  Never held across a store
///    scan that doesn't need it; not touched at plain SI.
///  * `store_mu_` (reader-writer) — the physical version store.  Reads and
///    scans share; writes, publication, and GC are exclusive.  A commit
///    timestamp is drawn *inside* the publication's exclusive section, so
///    any snapshot that could observe the timestamp observes the stamped
///    versions too (no torn visibility).
///
///  * `lock_manager_` — ORC's item Write locks (internally striped).  A
///    lock wait in blocking mode parks with `table_mu_` dropped, as in the
///    locking engine, and no other engine latch is held across it.
///
/// Lock order: table_mu_ < commit_mu_ < ssi_mu_ < store_mu_ < the registry
/// mutex (never acquired against this order; non-nested sequential
/// sections are free).
///
/// Commit pipeline (the SSI commit-window fix; Cahill et al. 2008, and
/// Ports & Grittner 2012 for the prepared flavor): ending a transaction is
/// two pipeline stages rather than one latched block.
///
///  1. *Validate + reserve*: under `commit_mu_` the transaction takes the
///     next commit-sequence slot, runs First-Committer-Wins, the in-doubt
///     write-set reservation check, and the SSI dangerous-structure checks
///     (its own pivot status *and* whether its commit would complete a
///     structure through an already-committed pivot).  On success its
///     write set is reserved so no overlapping transaction can slip
///     through validation while this one is between stages.
///  2. *Re-validate + publish*: under `commit_mu_` again, the SSI checks
///     re-run against every rw-edge that appeared since stage 1 — the
///     window in which the old engine-wide latch silently admitted
///     dangerous structures — and only then is the commit timestamp drawn
///     and the versions published.
///
/// `Prepare` is stage 1 with the transaction frozen in doubt (the
/// reservation held until the coordinator decides); `CommitPrepared` is
/// stage 2, so a participant whose dangerous structure completed while in
/// doubt aborts at the decision phase with `kSerializationFailure` instead
/// of publishing a non-serializable commit (see the 2PC notes below).
class SnapshotIsolationEngine : public Engine {
 public:
  /// `level` is the native level: kSnapshotIsolation, kSerializableSI or
  /// kOracleReadConsistency.
  explicit SnapshotIsolationEngine(
      IsolationLevel level = IsolationLevel::kSnapshotIsolation,
      SnapshotIsolationOptions options = {});

  IsolationLevel level() const override { return level_; }

  Status Load(const ItemId& id, Row row) override;
  Status Begin(TxnId txn) override;

  /// Per-transaction isolation contracts inside one engine: an SI or SSI
  /// engine honors Read Committed (each statement reads the latest
  /// committed snapshot, no First-Committer-Wins check) and Snapshot
  /// Isolation; Serializable-SI only when the engine's native level is
  /// SSI, since only then are the rw edges tracked.  An ORC engine honors
  /// ORC alone, so lock-taking and lock-free transactions never share an
  /// engine.  Every transaction — whatever its declared level — still
  /// participates in the others' bookkeeping (its writes feed FCW probes,
  /// its reads feed SSI edges), so weak transactions never weaken a
  /// stronger neighbour's guarantee.
  Status BeginWithLevel(TxnId txn, IsolationLevel level) override;

  /// Time travel (Section 4.2): begin a transaction whose snapshot is the
  /// historical timestamp `ts` ("taking a historical perspective of the
  /// database — while never blocking or being blocked by writes").
  /// Refused at native ORC, whose reads are per-statement.
  Status BeginAt(TxnId txn, Timestamp ts) override;

  /// "Now" at SI/SSI; nullopt at native ORC, which keeps no snapshot a
  /// transaction could pin.
  std::optional<Timestamp> SnapshotTimestamp() const override {
    if (level_ == IsolationLevel::kOracleReadConsistency) return std::nullopt;
    return clock_.Now();
  }

  Result<std::optional<Row>> Read(TxnId txn, const ItemId& id) override;
  Result<std::vector<std::pair<ItemId, Row>>> ReadPredicate(
      TxnId txn, const std::string& name, const Predicate& pred) override;
  Status Write(TxnId txn, const ItemId& id, Row row) override;
  Status Insert(TxnId txn, const ItemId& id, Row row) override;
  Status Delete(TxnId txn, const ItemId& id) override;
  Result<size_t> UpdateWhere(
      TxnId txn, const std::string& name, const Predicate& pred,
      const std::function<Row(const Row&)>& transform) override;
  Result<size_t> DeleteWhere(TxnId txn, const std::string& name,
                             const Predicate& pred) override;
  Result<std::optional<Row>> FetchCursor(TxnId txn, const ItemId& id) override;
  Status WriteCursor(TxnId txn, const ItemId& id, Row row) override;
  Status CloseCursor(TxnId txn) override;
  /// ORC: statement-level write consistency — lock first, then transform
  /// the latest committed value.  Other levels: the base Read-then-Write.
  Status Update(TxnId txn, const ItemId& id,
                const std::function<Row(const std::optional<Row>&)>& transform)
      override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;

  // 2PC participant protocol.  `Prepare` runs commit-pipeline stage 1 (the
  // First-Committer-Wins check, the reservation check, and the SSI
  // dangerous-structure checks) *now* and freezes the transaction in
  // doubt; its write-set reservation stays held, so any other transaction
  // whose write set overlaps a prepared write set is refused at its own
  // validation (kSerializationFailure): the in-doubt window acts as a
  // commit-order reservation on the prepared write set, preserving
  // First-Committer-Wins across the coordinator boundary.  Reads are
  // untouched — pending versions stay invisible and "a transaction
  // running in Snapshot Isolation is never blocked attempting a read".
  //
  // `CommitPrepared` is commit-pipeline stage 2: it *re-runs* the SSI
  // dangerous-structure checks against every rw-antidependency that formed
  // while the participant was in doubt.  If the participant became the
  // pivot of a completed dangerous structure during that window (its
  // in-edge source committed or prepared, its out-edge target committed
  // first — the Ports & Grittner prepared-transaction hazard), the
  // decision phase refuses with kSerializationFailure and the engine has
  // already rolled the participant back, exactly as a failed `Commit`.
  // This binds into the coordinator's presumed-abort rules: the refusal is
  // an abort acknowledgement, never an open question (the participant is
  // terminal either way), and `AbortPrepared` is unaffected.  Engines
  // whose prepare pins every conflict under locks still promise an
  // infallible CommitPrepared; a *certifying* engine cannot, because
  // certification is only complete at publication.  An ORC participant
  // additionally keeps its Write locks through the in-doubt window.
  Status Prepare(TxnId txn) override;
  Status CommitPrepared(TxnId txn) override;
  Status AbortPrepared(TxnId txn) override;
  std::vector<TxnId> InDoubtTransactions() const override;

  /// Latest committed timestamp (the "now" a new snapshot would see).
  Timestamp Now() const { return clock_.Now(); }

  // Version GC.  The low-watermark is the smallest begin timestamp of any
  // transaction still open on this engine (prepared in-doubt participants
  // and Read Committed readers included: SSI's committed-pivot check needs
  // their neighbours' states), else "now"; at native ORC, whose statements
  // never read below it, it is always "now".  Versions superseded at or
  // below it are invisible to every live and future snapshot.  In
  // `kWatermark` mode a pass runs automatically every `commit_interval`
  // commits (the epoch), finished transaction states and their SSI SIREAD
  // bookkeeping are retired alongside the versions, and `BeginAt` below
  // the collected floor is refused — time travel is never answered from a
  // pruned chain.  In `kRetainAll` (the default) nothing is pruned unless
  // a pass is requested explicitly.

  /// Runs one GC pass now; returns the number of versions discarded.
  size_t GarbageCollectVersions() override;

  /// Backwards-compatible alias for `GarbageCollectVersions`.
  size_t GarbageCollect() { return GarbageCollectVersions(); }

  /// Stored version count (GC observability).
  size_t VersionCount() const override {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_->VersionCount();
  }

  /// Longest version chain (GC boundedness metric).
  size_t MaxVersionChainLength() const override {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_->MaxChainLength();
  }

  /// Adopts `c.storage_backend` alongside the base behavior: the version
  /// store is swapped for a fresh store of the selected backend.  Only
  /// legal before any data is loaded — re-announcing the backend already
  /// in force (as `Database::SetLockWakeupHook` does when it re-runs
  /// SetConcurrency) is a no-op that never touches the store.
  /// Also applies `c.lock_stripes` and `c.lock_wakeup` to the ORC lock
  /// table.
  void SetConcurrency(EngineConcurrency c) override;

  VersionGcStats version_gc_stats() const override {
    std::lock_guard<std::mutex> lk(gc_stats_mu_);
    return gc_stats_;
  }

  /// Highest watermark any GC pass has pruned to; `BeginAt` refuses
  /// snapshots below it.
  Timestamp gc_floor() const {
    return gc_floor_.load(std::memory_order_acquire);
  }

  /// Commit-pipeline counters (slots issued, window re-validation aborts,
  /// in-doubt decision aborts).
  CommitPipelineStats commit_pipeline_stats() const {
    std::lock_guard<std::mutex> lk(commit_mu_);
    return pipeline_stats_;
  }

  /// Base gauges plus pipeline counters and per-stage latency histograms
  /// (and, at native ORC, the lock table's `lock.*` instruments).
  void RegisterMetrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) override;

  /// ORC lock holders, waiters, and waits-for edges; "" at SI/SSI.
  std::string DebugDump() const override;

  /// ORC lock-table counters (all zero at SI/SSI).
  LockStats lock_stats() const { return lock_manager_.stats(); }

  /// Commit-pipeline stage-1 (validate + reserve) latency, microseconds.
  const obs::Histogram& validate_histogram() const { return stage1_hist_; }

  /// Commit-pipeline stage-2 (re-validate + publish) latency, microseconds.
  const obs::Histogram& publish_histogram() const { return stage2_hist_; }

  /// Test-only failpoint: runs between commit-pipeline stages 1 and 2 of
  /// every `Commit`, with *no engine latch held*, on the committing
  /// thread.  The hook may drive other transactions on this engine to
  /// force an rw-antidependency into the commit window — the deterministic
  /// reproduction of the escape stage 2 exists to close.  Install before
  /// any session starts; pass nullptr to clear.
  void SetCommitWindowHook(std::function<void(TxnId)> hook) {
    commit_window_hook_ = std::move(hook);
  }

  const SnapshotIsolationOptions& options() const { return options_; }

 private:
  struct TxnState {
    bool active = false;
    bool committed = false;
    bool aborted = false;
    /// Prepared (in doubt): validated, pending versions reserved, waiting
    /// for the coordinator's decision.
    bool prepared = false;
    /// Declared isolation contract (BeginWithLevel); governs read
    /// timestamps (RC and ORC read per-statement), the FCW probe (skipped
    /// at RC and ORC), ORC's Write locks, and which transactions the SSI
    /// certifier refuses as pivots.
    IsolationLevel level = IsolationLevel::kSnapshotIsolation;
    Timestamp start_ts = kInvalidTimestamp;
    Timestamp commit_ts = kInvalidTimestamp;
    /// Sticky GC summary: some committed rw-successor of this (committed)
    /// transaction committed *before* it and was then retired by version
    /// GC.  Keeps the dangerous-structure completion check sound after
    /// the successor's state is gone.
    bool committed_first_out = false;
    /// Items with pending versions.  Cleared once the transaction ends,
    /// except for a committed SSI transaction, whose writes still feed
    /// its neighbours' rw edges.
    std::set<ItemId> write_set;
    /// Redo after-images (nullopt = tombstone), collected only while a WAL
    /// sink is attached; drained into a kWriteSet record at Prepare or
    /// immediately before the kCommit append.  Owner-thread-only.
    std::map<ItemId, std::optional<Row>> redo;
    // SSI rw-antidependency neighbours: `in_from` holds U with U -rw-> this
    // (U read something this wrote over); `out_to` holds W with
    // this -rw-> W.  A transaction with live edges on both sides is a
    // pivot of a dangerous structure and must not commit.
    std::set<TxnId> in_from;
    std::set<TxnId> out_to;
  };

  // --- helpers; each names the latches it requires ---------------------------

  /// Registers `txn` at snapshot `ts`, or at a fresh tick when `ts` is
  /// nullopt.  Requires `table_mu_` shared (held from the tick to the
  /// insert); the tick and the floor check run under the registry mutex.
  Status BeginAtLocked(TxnId txn, std::optional<Timestamp> ts,
                       IsolationLevel level);

  /// True for the levels whose statements each read the latest committed
  /// state and that skip First-Committer-Wins: Read Committed and ORC.
  static bool PerStatement(IsolationLevel level) {
    return level == IsolationLevel::kReadCommitted ||
           level == IsolationLevel::kOracleReadConsistency;
  }

  /// The snapshot a read of `st` uses *now*: the begin snapshot, except
  /// at the per-statement levels ("read committed data" — no
  /// repeatable-read promise).
  Timestamp ReadTs(const TxnState& st) const {
    return PerStatement(st.level) ? clock_.Now() : st.start_ts;
  }

  bool ssi() const { return level_ == IsolationLevel::kSerializableSI; }

  /// ORC transactions take long item Write locks; no other level touches
  /// the lock table.
  static bool TakesWriteLocks(const TxnState& st) {
    return st.level == IsolationLevel::kOracleReadConsistency;
  }

  using TableLock = std::shared_lock<std::shared_mutex>;

  /// Rolls `txn` back: discards its pending versions, records `a<t>`
  /// (charging `counter` when non-null), marks the state aborted and
  /// releases ORC Write locks.  Requires `table_mu_` shared; takes
  /// `ssi_mu_`/`store_mu_` internally.
  void Rollback(TxnId txn, uint64_t EngineStats::*counter);

  /// `Rollback` charging `counter`, plus the abort's paper-taxonomy tag:
  /// the matching `EngineStats` breakdown counter (serialization aborts
  /// only) plus a tracer event when a tracer is attached.  Same latch
  /// contract as `Rollback`, so the caller may hold `commit_mu_` but not
  /// `ssi_mu_` or `store_mu_`.
  Status AbortInternal(TxnId txn, Status reason,
                       uint64_t EngineStats::*counter, obs::AbortReason why);

  /// Commit-pipeline stage 1: First-Committer-Wins + reservation overlap +
  /// SSI dangerous-structure checks; on success reserves the write set and
  /// issues a commit slot.  Requires `table_mu_` shared + `commit_mu_`;
  /// takes `ssi_mu_`/`store_mu_` internally.  On failure the transaction
  /// is aborted and the refusal returned.
  Status ValidateAndReserve(TxnId txn, TxnState& st);

  /// Commit-pipeline stage 2 for `txn` (already validated): re-runs the
  /// SSI checks, then publishes versions at a fresh commit timestamp and
  /// retires the reservation.  `decision` distinguishes a CommitPrepared
  /// (refined in-doubt completion check, decision_aborts counter) from a
  /// plain Commit window re-validation.  Same latch contract as stage 1.
  /// When a WAL is attached, the publication section appends the redo +
  /// commit records and stores the commit LSN in `*wal_lsn` (untouched
  /// when nothing was logged); the caller waits on it *after* releasing
  /// every latch.
  Status RevalidateAndPublish(TxnId txn, TxnState& st, bool decision,
                              std::optional<uint64_t>* wal_lsn);

  /// Drops `txn`'s write-set reservations.  Requires `commit_mu_`.
  void ReleaseReservations(TxnId txn, const TxnState& st);

  /// Counts a published commit toward the GC epoch; true when a periodic
  /// pass is due (kWatermark mode).  Requires `commit_mu_`.
  bool GcTick();

  /// ORC's long item Write lock on `id` for `txn`.  May drop and re-take
  /// `tl` around a blocking wait; a deadlock victim is rolled back.
  Result<LockHandle> LockItem(TableLock& tl, TxnId txn, const ItemId& id);

  /// The Insert (item absent) or Delete (item present) precondition,
  /// against what `txn` reads now.  Requires `table_mu_` shared; takes
  /// `store_mu_` shared.
  Status CheckWritable(TxnId txn, const TxnState& st, const ItemId& id,
                       bool is_insert) const;

  Result<std::optional<Row>> DoRead(TxnId txn, const ItemId& id,
                                    Action::Type type);
  /// Requires `table_mu_` shared (`tl`).  At ORC, takes the Write lock
  /// first unless `locked` (the caller already holds it).
  Status DoWrite(TableLock& tl, TxnId txn, const ItemId& id,
                 std::optional<Row> new_row, Action::Type type,
                 bool is_insert, bool locked = false);

  // True when U (by state) was concurrent with T (by state): their
  // [start, commit] intervals overlap (an active transaction's commit is
  // "infinity").  Requires `ssi_mu_` (neighbour states are read).
  bool Concurrent(const TxnState& a, const TxnState& b) const;

  // SSI edge tracking; all require `table_mu_` shared + `ssi_mu_`.
  void AddRwEdge(TxnId reader, TxnState& rd, TxnId writer, TxnState& wr);
  /// reader -rw-> U for every concurrent U in `writers_[id]`.
  void TrackReadConflicts(TxnId reader, TxnState& rd, const ItemId& id);
  /// U -rw-> writer for every concurrent SIREAD reader U of `id` (aborted
  /// readers met on the way are dropped) and every predicate reader whose
  /// predicate covers either image.
  void TrackWriteConflicts(TxnId writer, TxnState& wr, const ItemId& id,
                           const std::optional<Row>& before,
                           const std::optional<Row>& after);
  /// Removes `txn` from the writer index at `items`.  Requires `ssi_mu_`
  /// or `table_mu_` exclusive.
  void EraseWriter(TxnId txn, const std::set<ItemId>& items);

  /// Conservative pivot test: a live (non-aborted) rw edge on both sides.
  /// Requires `ssi_mu_`.
  bool SsiPivot(const TxnState& st) const;

  /// True when committing `st` (id `self`) would complete a dangerous
  /// structure whose pivot P is already *committed*: self -rw-> P and some
  /// other W in P's out-edges committed before P did (Cahill's
  /// committed-pivot rule — P can no longer abort, so self must).
  /// Requires `ssi_mu_`.
  bool CompletesCommittedPivot(TxnId self, const TxnState& st) const;

  /// The refined decision-phase test for a prepared participant: its
  /// dangerous structure *completed* while in doubt — an in-edge source
  /// committed or prepared AND an out-edge target committed (committed
  /// first, since this participant has no commit timestamp yet).
  /// Requires `ssi_mu_`.
  bool CompletedPivotInDoubt(const TxnState& st) const;

  /// Guard over the per-transaction state that SSI bookkeeping reads
  /// across sessions: locked in SSI mode, disengaged (and free) at plain
  /// SI, where all such state is owner-thread-only.  Every mutation of
  /// TxnState fields outside a table-exclusive section goes through it.
  std::unique_lock<std::mutex> SsiLock() {
    std::unique_lock<std::mutex> lk(ssi_mu_, std::defer_lock);
    if (ssi()) lk.lock();
    return lk;
  }

  /// The SSI refusals shared by stage 1 and the stage-2 re-validation.
  /// Returns the refusal message, or nullopt to admit.  Requires
  /// `table_mu_` shared; takes `ssi_mu_` internally.  No-op at plain SI.
  std::optional<std::string> SsiRefusal(TxnId txn, const TxnState& st,
                                        bool decision);

  /// One GC pass: compute the watermark, prune chains, raise the floor,
  /// and (kWatermark mode) retire finished transaction states plus their
  /// SSI bookkeeping.  Takes `table_mu_` exclusive (and `store_mu_`
  /// inside); call with no engine latch held.  Returns versions dropped.
  size_t RunGcPass();

  const IsolationLevel level_;
  SnapshotIsolationOptions options_;

  /// Reader-writer latch over the transaction table (see class comment for
  /// the full latching map).
  mutable std::shared_mutex table_mu_;
  /// Commit pipeline: validation order, reservations, publication.
  mutable std::mutex commit_mu_;
  /// SSI bookkeeping (SIREAD tables, edges, neighbour-state reads).
  mutable std::mutex ssi_mu_;
  /// Physical version store.
  mutable std::shared_mutex store_mu_;
  mutable std::mutex gc_stats_mu_;

  LogicalClock clock_;
  std::unique_ptr<VersionStore> store_;     ///< store_mu_
  TxnTable<TxnState> txns_;  ///< own registry mutex (+ ssi_mu_ rules)
  // SSI SIREAD bookkeeping: item readers and predicate readers (ssi_mu_).
  std::map<ItemId, std::set<TxnId>> readers_;
  std::vector<std::pair<Predicate, TxnId>> predicate_readers_;
  // SSI writer index: item -> transactions whose live write set holds it
  // (ssi_mu_; empty at plain SI and ORC).  Mirrors the write sets
  // exactly, so a read probes only the item's writers for rw edges.
  std::map<ItemId, std::set<TxnId>> writers_;
  // Write-set reservations of transactions between pipeline stage 1 and
  // publication — in-flight committers and prepared (in-doubt)
  // participants (commit_mu_).
  std::map<ItemId, TxnId> reservations_;
  // `slots_issued` doubles as the commit-sequence counter: stage-1
  // entries are serialized by commit_mu_, so each validation owns a
  // distinct slot number.
  CommitPipelineStats pipeline_stats_;      ///< commit_mu_
  // Per-stage commit-pipeline latency (internally synchronized).
  obs::Histogram stage1_hist_;
  obs::Histogram stage2_hist_;
  uint32_t commits_since_gc_ = 0;           ///< commit_mu_
  std::atomic<Timestamp> gc_floor_{kInvalidTimestamp};
  VersionGcStats gc_stats_;                 ///< gc_stats_mu_
  LockManager lock_manager_;                ///< ORC Write locks
  std::function<void(TxnId)> commit_window_hook_;  ///< test failpoint
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_SI_ENGINE_H_
