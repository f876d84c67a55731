#include "critique/engine/si_engine.h"

#include <algorithm>

namespace critique {
namespace {

std::optional<Value> HistoryValue(const std::optional<Row>& row) {
  if (row.has_value() && row->Has("val")) return row->scalar();
  return std::nullopt;
}

}  // namespace

SnapshotIsolationEngine::SnapshotIsolationEngine(
    IsolationLevel level, SnapshotIsolationOptions options)
    : level_(level),
      options_(options),
      store_(MakeVersionStore(StorageBackend::kMap)) {
  store_->DiscourageUnhinted();
}

void SnapshotIsolationEngine::SetConcurrency(EngineConcurrency c) {
  Engine::SetConcurrency(c);
  (void)lock_manager_.SetStripeCount(c.lock_stripes);
  lock_manager_.SetWakeupHook(concurrency().lock_wakeup);
  std::unique_lock<std::shared_mutex> sl(store_mu_);
  if (store_->backend() == c.storage_backend) return;  // idempotent re-set
  store_ = MakeVersionStore(c.storage_backend);
  store_->DiscourageUnhinted();
}

Status SnapshotIsolationEngine::Load(const ItemId& id, Row row) {
  std::unique_lock<std::shared_mutex> sl(store_mu_);
  store_->Bootstrap(id, std::move(row), clock_.Tick());
  return Status::OK();
}

Status SnapshotIsolationEngine::Begin(TxnId txn) {
  TableLock tl(table_mu_);
  return BeginAtLocked(txn, std::nullopt, level());
}

Status SnapshotIsolationEngine::BeginWithLevel(TxnId txn,
                                               IsolationLevel level) {
  const bool honored =
      level_ == IsolationLevel::kOracleReadConsistency
          ? level == IsolationLevel::kOracleReadConsistency
          : level == IsolationLevel::kReadCommitted ||
                level == IsolationLevel::kSnapshotIsolation ||
                (level == IsolationLevel::kSerializableSI && ssi());
  if (!honored) {
    return Status::FailedPrecondition(
        name() + " cannot honor a per-transaction " +
        IsolationLevelName(level) + " contract" +
        (level == IsolationLevel::kSerializableSI &&
                 level_ == IsolationLevel::kSnapshotIsolation
             ? " without the SSI certifier (native level Serializable SI)"
             : ""));
  }
  TableLock tl(table_mu_);
  return BeginAtLocked(txn, std::nullopt, level);
}

Status SnapshotIsolationEngine::BeginAt(TxnId txn, Timestamp ts) {
  if (level_ == IsolationLevel::kOracleReadConsistency) {
    return Engine::BeginAt(txn, ts);  // per-statement reads: no snapshot
  }
  TableLock tl(table_mu_);
  return BeginAtLocked(txn, ts, level());
}

Status SnapshotIsolationEngine::BeginAtLocked(TxnId txn,
                                              std::optional<Timestamp> at,
                                              IsolationLevel level) {
  // The shared table latch, held from the tick to the insert, keeps a GC
  // pass from computing its watermark past this snapshot before it is
  // registered; the floor only rises inside such a pass, so the check
  // below is stable too.
  CRITIQUE_RETURN_NOT_OK(txns_.Register(txn, [&](TxnState& st) {
    const Timestamp ts = at.has_value() ? *at : clock_.Tick();
    const Timestamp floor = gc_floor_.load(std::memory_order_acquire);
    if (ts < floor) {
      // Accurate in both modes: the floor only rises when a GC pass prunes
      // (periodic in kWatermark; explicit GarbageCollectVersions in either
      // mode), so never advise switching to a mode already in force.
      return Status::FailedPrecondition(
          "snapshot timestamp " + std::to_string(ts) +
          " is below the version-GC floor " + std::to_string(floor) +
          ": history up to the floor has been pruned (for exact time travel "
          "stay in VersionGcMode::kRetainAll and run no explicit GC passes)");
    }
    st.active = true;
    st.level = level;
    st.start_ts = ts;
    return Status::OK();
  }));
  // Informational, buffered with the next sync: keeps the log
  // self-describing and advances the recovered id-allocator floor past
  // ids that never reach a terminal record.
  if (wal_ != nullptr) wal_->Append(WalRecord::Begin(txn));
  Trace(txn, obs::TraceEventType::kBegin);
  return Status::OK();
}

void SnapshotIsolationEngine::EraseWriter(TxnId txn,
                                          const std::set<ItemId>& items) {
  for (const ItemId& id : items) {
    auto it = writers_.find(id);
    if (it == writers_.end()) continue;
    it->second.erase(txn);
    if (it->second.empty()) writers_.erase(it);
  }
}

void SnapshotIsolationEngine::Rollback(TxnId txn,
                                       uint64_t EngineStats::*counter) {
  TxnState& st = *txns_.Find(txn);
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    store_->AbortTxn(txn, st.write_set);
    recorder_.Record(Action::Abort(txn), counter);  // under the latch
  }
  {
    auto el = SsiLock();
    st.active = false;
    st.aborted = true;
    st.prepared = false;
    // An aborted write set feeds no rw edge.
    if (ssi()) EraseWriter(txn, st.write_set);
    st.write_set.clear();
  }
  st.redo.clear();
  if (TakesWriteLocks(st)) lock_manager_.ReleaseAll(txn);
}

Status SnapshotIsolationEngine::AbortInternal(TxnId txn, Status reason,
                                              uint64_t EngineStats::*counter,
                                              obs::AbortReason why) {
  Rollback(txn, counter);
  // Breakdown by the paper's taxonomy: only serialization aborts split
  // (coordinator-decided AbortPrepared traces kInDoubtDecision but counts
  // as a plain abort).
  if (counter == &EngineStats::serialization_aborts) {
    switch (why) {
      case obs::AbortReason::kFirstCommitterWins:
        recorder_.Count(&EngineStats::fcw_aborts);
        break;
      case obs::AbortReason::kSsiDangerousStructure:
        recorder_.Count(&EngineStats::ssi_aborts);
        break;
      default:
        break;
    }
  }
  Trace(txn, obs::TraceEventType::kAbort, why,
        reason.ok() ? std::string() : std::string(reason.message()));
  return reason;
}

bool SnapshotIsolationEngine::Concurrent(const TxnState& a,
                                         const TxnState& b) const {
  const Timestamp a_end =
      a.commit_ts == kInvalidTimestamp ? ~Timestamp{0} : a.commit_ts;
  const Timestamp b_end =
      b.commit_ts == kInvalidTimestamp ? ~Timestamp{0} : b.commit_ts;
  return a.start_ts < b_end && b.start_ts < a_end;
}

void SnapshotIsolationEngine::AddRwEdge(TxnId reader, TxnState& rd,
                                        TxnId writer, TxnState& wr) {
  rd.out_to.insert(writer);
  wr.in_from.insert(reader);
}

void SnapshotIsolationEngine::TrackReadConflicts(TxnId reader, TxnState& rd,
                                                 const ItemId& id) {
  readers_[id].insert(reader);
  auto w = writers_.find(id);
  if (w == writers_.end()) return;
  // reader -rw-> U for every concurrent U that produced a newer version.
  for (TxnId u : w->second) {
    if (u == reader) continue;
    TxnState* ust = txns_.Find(u);
    if (ust == nullptr || ust->aborted || !Concurrent(rd, *ust)) continue;
    AddRwEdge(reader, rd, u, *ust);
  }
}

void SnapshotIsolationEngine::TrackWriteConflicts(
    TxnId writer, TxnState& wr, const ItemId& id,
    const std::optional<Row>& before, const std::optional<Row>& after) {
  auto it = readers_.find(id);
  if (it != readers_.end()) {
    std::set<TxnId>& readers = it->second;
    for (auto r = readers.begin(); r != readers.end();) {
      const TxnId u = *r;
      TxnState* ust = txns_.Find(u);
      if (ust != nullptr && ust->aborted) {
        // An aborted reader never feeds an edge again: drop its SIREAD
        // entry instead of rescanning it at every later write.
        r = readers.erase(r);
        continue;
      }
      ++r;
      if (u == writer || ust == nullptr || !Concurrent(wr, *ust)) continue;
      AddRwEdge(u, *ust, writer, wr);  // U read the old version
    }
    if (readers.empty()) readers_.erase(it);
  }
  // Predicate readers: the write (either image) entering the predicate's
  // coverage is the phantom-precise rw edge ordinary SIREAD item tracking
  // misses.
  for (const auto& [pred, u] : predicate_readers_) {
    if (u == writer) continue;
    TxnState* ust = txns_.Find(u);
    if (ust == nullptr || ust->aborted || !Concurrent(wr, *ust)) continue;
    const bool covered =
        (before.has_value() && pred.Covers(id, *before)) ||
        (after.has_value() && pred.Covers(id, *after));
    if (covered) AddRwEdge(u, *ust, writer, wr);
  }
}

std::optional<std::string> SnapshotIsolationEngine::SsiRefusal(
    TxnId txn, const TxnState& st) {
  if (!ssi()) return std::nullopt;
  std::lock_guard<std::mutex> el(ssi_mu_);
  // One pass over each side of `txn`.  A Serializable-SI neighbour P that
  // can no longer abort — committed, or prepared (Ports & Grittner: a
  // prepared transaction counts as committed) — is never the victim of a
  // structure through it, so `txn` is refused instead, whatever its own
  // level: the broken contract would be P's.
  static const char kCompletes[] =
      "ssi: commit would complete a dangerous structure through a "
      "committed or prepared pivot";
  auto final_ssi = [](const TxnState& p) {
    return (p.committed || p.prepared) &&
           p.level == IsolationLevel::kSerializableSI;
  };
  auto live = [&](TxnId u) -> const TxnState* {
    const TxnState* t = txns_.Find(u);
    return t == nullptr || t->aborted ? nullptr : t;  // retired or aborted
  };
  bool live_out = false;
  for (TxnId u : st.out_to) {
    const TxnState* p = live(u);
    if (p == nullptr) continue;
    live_out = true;
    if (!final_ssi(*p)) continue;
    // In-edge side: txn -rw-> P, and another out-neighbour W of P
    // committed before P ("T3 commits first").  A prepared P commits
    // after everything already committed.
    if (p->committed_first_out) return kCompletes;  // witness retired by GC
    const Timestamp p_end = p->committed ? p->commit_ts : ~Timestamp{0};
    for (TxnId w : p->out_to) {
      const TxnState* wt = w == txn ? nullptr : live(w);
      if (wt != nullptr && wt->committed && wt->commit_ts < p_end) {
        return kCompletes;
      }
    }
  }
  bool live_in = false;
  for (TxnId u : st.in_from) {
    const TxnState* p = live(u);
    if (p == nullptr) continue;
    live_in = true;
    if (!p->prepared || !final_ssi(*p)) continue;
    // Out-edge side: P -rw-> txn with P prepared, so txn commits first.
    // If P's in-edge source can no longer abort either — or is txn
    // itself: write skew with a prepared participant — the structure is
    // complete.
    for (TxnId r : p->in_from) {
      if (r == txn) return kCompletes;
      const TxnState* src = live(r);
      if (src != nullptr && (src->committed || src->prepared)) {
        return kCompletes;
      }
    }
  }
  // A transaction is refused as a pivot only under its own declared
  // Serializable-SI contract — a plain-SI neighbour keeps its write skew.
  if (st.level == IsolationLevel::kSerializableSI && live_in && live_out) {
    return "ssi: pivot in an rw-antidependency dangerous structure";
  }
  return std::nullopt;
}

Result<std::optional<Row>> SnapshotIsolationEngine::DoRead(TxnId txn,
                                                           const ItemId& id,
                                                           Action::Type type) {
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
  TxnState& st = *state;

  // Recorded under the store latch: a read can never precede the record
  // of the version write (or publication) it observed in the history.
  std::optional<Row> row;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    std::optional<Version> version = store_->ReadVersionInfo(id, ReadTs(st), txn);
    Action a = type == Action::Type::kCursorRead ? Action::CursorRead(txn, id)
                                                 : Action::Read(txn, id);
    if (version.has_value()) {
      a.version = version->creator;
      if (!version->tombstone) {
        row = version->row;
        a.value = HistoryValue(row);
      }
    } else {
      // Nothing visible at the read timestamp: the transaction observed
      // the initial (absent) state of the item.  Subscript it explicitly
      // — an unversioned read would be misattributed by single-version
      // creator inference (this is a multiversion history).
      a.version = kInitialTxn;
    }
    recorder_.Record(std::move(a), &EngineStats::reads);
  }
  if (ssi()) {
    std::lock_guard<std::mutex> el(ssi_mu_);
    TrackReadConflicts(txn, st, id);
  }
  return row;
}

Result<std::optional<Row>> SnapshotIsolationEngine::Read(TxnId txn,
                                                         const ItemId& id) {
  TableLock tl(table_mu_);
  return DoRead(txn, id, Action::Type::kRead);
}

Result<LockHandle> SnapshotIsolationEngine::LockItem(TableLock& tl, TxnId txn,
                                                     const ItemId& id) {
  // No row images: ORC takes no predicate locks, so its conflicts are
  // decided by item identity alone.
  return AcquireLockWithProtocol(
      lock_manager_, tl,
      LockSpec::WriteItem(txn, id, std::nullopt, std::nullopt),
      concurrency_.lock_wait_timeout, [&] { Rollback(txn, nullptr); });
}

Result<std::optional<Row>> SnapshotIsolationEngine::FetchCursor(
    TxnId txn, const ItemId& id) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Active(txn));
  // Snapshot reads never block; a cursor adds nothing under SI.  ORC's
  // fetch is SELECT ... FOR UPDATE: the Write lock at fetch is what rules
  // out P4C.
  if (TakesWriteLocks(*st)) {
    CRITIQUE_RETURN_NOT_OK(LockItem(tl, txn, id).status());
  }
  return DoRead(txn, id, Action::Type::kCursorRead);
}

Result<std::vector<std::pair<ItemId, Row>>>
SnapshotIsolationEngine::ReadPredicate(TxnId txn, const std::string& name,
                                       const Predicate& pred) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
  TxnState& st = *state;

  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    rows = store_->Scan(pred, ReadTs(st), txn);
    Action a = Action::PredicateRead(txn, name, pred);
    for (const auto& [id, row] : rows) {
      (void)row;
      a.read_set.push_back(id);
    }
    // Appended under the store latch (see DoRead).
    recorder_.Record(std::move(a), &EngineStats::predicate_reads);
  }
  if (ssi()) {
    std::lock_guard<std::mutex> el(ssi_mu_);
    for (const auto& [id, row] : rows) {
      (void)row;
      TrackReadConflicts(txn, st, id);
    }
    // Phantom-precise SIREAD: remember the predicate itself, plus rw
    // edges to concurrent transactions whose pending/later writes
    // already fall under it.  One store acquisition covers the whole
    // scan (lock order ssi_mu_ < store_mu_).
    predicate_readers_.emplace_back(pred, txn);
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    for (const auto& [wid, us] : writers_) {
      for (TxnId u : us) {
        if (u == txn) continue;
        TxnState* ust = txns_.Find(u);
        if (ust == nullptr || ust->aborted || !Concurrent(st, *ust)) continue;
        std::optional<Version> vi =
            store_->ReadVersionInfo(wid, ~Timestamp{0}, u);
        if (vi.has_value() && !vi->tombstone && pred.Covers(wid, vi->row)) {
          AddRwEdge(txn, st, u, *ust);
        }
      }
    }
  }
  return rows;
}

Status SnapshotIsolationEngine::CheckWritable(TxnId txn, const TxnState& st,
                                              const ItemId& id,
                                              bool is_insert) const {
  const Timestamp read_ts = ReadTs(st);
  bool present;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    present = store_->Read(id, read_ts, txn).has_value();
  }
  if (is_insert && present) {
    return Status::FailedPrecondition("insert: item '" + id +
                                      "' visible in snapshot");
  }
  if (!is_insert && !present) {
    return Status::NotFound("delete: item '" + id + "' not visible");
  }
  return Status::OK();
}

Status SnapshotIsolationEngine::DoWrite(TableLock& tl, TxnId txn,
                                        const ItemId& id,
                                        std::optional<Row> new_row,
                                        Action::Type type, bool is_insert,
                                        bool locked) {
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
  TxnState& st = *state;
  if (TakesWriteLocks(st) && !locked) {
    CRITIQUE_ASSIGN_OR_RETURN(LockHandle h, LockItem(tl, txn, id));
    // A blocking wait released the table latch, so an Insert/Delete
    // precondition checked before it may have been decided by a
    // concurrent committer; the granted lock makes the re-check stable.
    if (is_insert || !new_row.has_value()) {
      Status s = CheckWritable(txn, st, id, is_insert);
      if (!s.ok()) {
        lock_manager_.Release(h);
        return s;
      }
    }
  }

  bool eager_conflict = false;
  std::optional<Row> before;
  {
    // One exclusive section: the eager probe, the before-image, the
    // pending install, and the record stay atomic with respect to other
    // writers and to readers appending their own records (see DoRead).
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    if (options_.eager_write_conflicts &&
        store_->HasConcurrentPendingWrite(id, txn)) {
      eager_conflict = true;
    } else {
      before = store_->Read(id, ReadTs(st), txn);
      if (new_row.has_value()) {
        store_->Write(id, *new_row, txn);
      } else {
        store_->Delete(id, txn);
      }
      Action a = type == Action::Type::kCursorWrite
                     ? Action::CursorWrite(txn, id, HistoryValue(new_row))
                     : Action::Write(txn, id, HistoryValue(new_row));
      a.version = txn;
      a.before_image = before;
      a.after_image = new_row;
      a.is_insert = is_insert;
      recorder_.Record(std::move(a), &EngineStats::writes);
    }
  }
  if (eager_conflict) {
    return AbortInternal(
        txn,
        Status::SerializationFailure(
            "first-updater-wins: concurrent pending write on '" + id + "'"),
        &EngineStats::serialization_aborts,
        obs::AbortReason::kFirstCommitterWins);
  }
  {
    auto el = SsiLock();
    st.write_set.insert(id);
    if (ssi()) {
      writers_[id].insert(txn);
      TrackWriteConflicts(txn, st, id, before, new_row);
    }
  }
  if (wal_ != nullptr) st.redo[id] = std::move(new_row);
  return Status::OK();
}

Status SnapshotIsolationEngine::Write(TxnId txn, const ItemId& id, Row row) {
  TableLock tl(table_mu_);
  return DoWrite(tl, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/false);
}

Status SnapshotIsolationEngine::Insert(TxnId txn, const ItemId& id, Row row) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Active(txn));
  CRITIQUE_RETURN_NOT_OK(CheckWritable(txn, *st, id, /*is_insert=*/true));
  return DoWrite(tl, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/true);
}

Status SnapshotIsolationEngine::Delete(TxnId txn, const ItemId& id) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Active(txn));
  CRITIQUE_RETURN_NOT_OK(CheckWritable(txn, *st, id, /*is_insert=*/false));
  return DoWrite(tl, txn, id, std::nullopt, Action::Type::kWrite,
                 /*is_insert=*/false);
}

Status SnapshotIsolationEngine::Update(
    TxnId txn, const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Active(txn));
  // ORC's statement-level write consistency: lock first, then apply the
  // transform to the most recent committed value ("the underlying
  // mechanism recomputes the appropriate version of the row as of the
  // statement timestamp").
  const bool locks = TakesWriteLocks(*st);
  if (locks) CRITIQUE_RETURN_NOT_OK(LockItem(tl, txn, id).status());
  CRITIQUE_ASSIGN_OR_RETURN(std::optional<Row> current,
                            DoRead(txn, id, Action::Type::kRead));
  return DoWrite(tl, txn, id, transform(current), Action::Type::kWrite,
                 /*is_insert=*/false, /*locked=*/locks);
}

Result<size_t> SnapshotIsolationEngine::UpdateWhere(
    TxnId txn, const std::string& name, const Predicate& pred,
    const std::function<Row(const Row&)>& transform) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
  TxnState& st = *state;
  if (TakesWriteLocks(st)) {
    // Item by item, so every row is written under its Write lock.
    tl.unlock();
    return Engine::UpdateWhere(txn, name, pred, transform);
  }
  std::vector<std::pair<ItemId, Row>> rows;
  std::vector<Row> nexts;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    rows = store_->Scan(pred, ReadTs(st), txn);
    nexts.reserve(rows.size());
    Action a = Action::PredicateWrite(txn, name, pred);
    a.version = txn;
    for (const auto& [id, row] : rows) {
      Row next = transform(row);
      store_->Write(id, next, txn);
      nexts.push_back(std::move(next));
      a.read_set.push_back(id);
    }
    // Appended under the store latch (see DoRead).
    recorder_.Count(&EngineStats::writes, rows.size());
    recorder_.Record(std::move(a));
  }
  {
    auto el = SsiLock();
    for (size_t i = 0; i < rows.size(); ++i) {
      st.write_set.insert(rows[i].first);
      if (ssi()) {
        writers_[rows[i].first].insert(txn);
        TrackWriteConflicts(txn, st, rows[i].first, rows[i].second, nexts[i]);
      }
    }
  }
  if (wal_ != nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) st.redo[rows[i].first] = nexts[i];
  }
  return rows.size();
}

Result<size_t> SnapshotIsolationEngine::DeleteWhere(TxnId txn,
                                                    const std::string& name,
                                                    const Predicate& pred) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
  TxnState& st = *state;
  if (TakesWriteLocks(st)) {
    tl.unlock();
    return Engine::DeleteWhere(txn, name, pred);
  }
  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    rows = store_->Scan(pred, ReadTs(st), txn);
    Action a = Action::PredicateWrite(txn, name, pred);
    a.version = txn;
    for (const auto& [id, row] : rows) {
      (void)row;
      store_->Delete(id, txn);
      a.read_set.push_back(id);
    }
    // Appended under the store latch (see DoRead).
    recorder_.Count(&EngineStats::writes, rows.size());
    recorder_.Record(std::move(a));
  }
  {
    auto el = SsiLock();
    for (const auto& [id, row] : rows) {
      st.write_set.insert(id);
      if (ssi()) {
        writers_[id].insert(txn);
        TrackWriteConflicts(txn, st, id, row, std::nullopt);
      }
    }
  }
  if (wal_ != nullptr) {
    for (const auto& [id, row] : rows) {
      (void)row;
      st.redo[id] = std::nullopt;
    }
  }
  return rows.size();
}

Status SnapshotIsolationEngine::WriteCursor(TxnId txn, const ItemId& id,
                                            Row row) {
  TableLock tl(table_mu_);
  return DoWrite(tl, txn, id, std::move(row), Action::Type::kCursorWrite,
                 /*is_insert=*/false);
}

Status SnapshotIsolationEngine::CloseCursor(TxnId txn) {
  TableLock tl(table_mu_);
  return txns_.Active(txn).status();
}

void SnapshotIsolationEngine::ReleaseReservations(TxnId txn,
                                                  const TxnState& st) {
  for (const ItemId& id : st.write_set) {
    auto it = reservations_.find(id);
    if (it != reservations_.end() && it->second == txn) {
      reservations_.erase(it);
    }
  }
}

Status SnapshotIsolationEngine::ValidateAndReserve(TxnId txn, TxnState& st) {
  // The commit-sequence slot: stage-1 entries are serialized by
  // commit_mu_, so this counter orders every validation.
  ++pipeline_stats_.slots_issued;

  // First-Committer-Wins: some transaction with a Commit-Timestamp inside
  // [start_ts, now] wrote data this transaction also wrote.  Publication
  // is serialized behind `commit_mu_`, held here, so the probe is stable;
  // one store acquisition covers the whole write set.
  // A Read Committed transaction declared no lost-update protection: its
  // statements already read the latest committed state, so the interval
  // probe is skipped and overwriting a concurrent commit is its permitted
  // anomaly (P4), not a serialization failure.  ORC skips it too: its
  // Write locks already ordered every overlapping writer
  // (First-Writer-Wins), and the write installed over the latest commit.
  std::optional<ItemId> fcw_conflict;
  if (!PerStatement(st.level)) {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    for (const ItemId& id : st.write_set) {
      if (store_->LatestCommitTs(id) > st.start_ts) {
        fcw_conflict = id;
        break;
      }
    }
  }
  if (fcw_conflict.has_value()) {
    return AbortInternal(
        txn,
        Status::SerializationFailure(
            "first-committer-wins: '" + *fcw_conflict +
            "' was committed during this transaction's interval"),
        &EngineStats::serialization_aborts,
        obs::AbortReason::kFirstCommitterWins);
  }

  // Reservation overlap: a transaction between pipeline stage 1 and
  // publication — an in-flight committer or a prepared (in-doubt)
  // participant — has validated its write set but not yet published a
  // commit timestamp.  A later committer overlapping that write set would
  // slip past the timestamp probe above and both would install — a lost
  // update First-Committer-Wins exists to prevent.  The reserving side
  // must stay committable (it already said yes), so the requester aborts.
  for (const ItemId& id : st.write_set) {
    auto it = reservations_.find(id);
    if (it != reservations_.end() && it->second != txn) {
      return AbortInternal(
          txn,
          Status::SerializationFailure(
              "first-committer-wins: '" + id + "' is reserved by " +
              "in-flight/prepared txn " + std::to_string(it->second)),
          &EngineStats::serialization_aborts,
          obs::AbortReason::kFirstCommitterWins);
    }
  }

  if (auto refusal = SsiRefusal(txn, st)) {
    return AbortInternal(txn, Status::SerializationFailure(*refusal),
                         &EngineStats::serialization_aborts,
                         obs::AbortReason::kSsiDangerousStructure);
  }

  for (const ItemId& id : st.write_set) reservations_[id] = txn;
  return Status::OK();
}

void SnapshotIsolationEngine::Publish(TxnId txn, TxnState& st,
                                      std::optional<uint64_t>* wal_lsn) {
  // Publish: the commit timestamp is drawn inside the store-exclusive
  // section that stamps the versions, so any snapshot new enough to see
  // the timestamp is guaranteed to find the versions already stamped —
  // and the commit record is appended in the same section, so no read of
  // a stamped version can precede it in the history.
  {
    auto el = SsiLock();
    {
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      st.commit_ts = clock_.Tick();
      store_->CommitTxn(txn, st.commit_ts, st.write_set);
      recorder_.Record(Action::Commit(txn), &EngineStats::commits);
      if (wal_ != nullptr && (st.prepared || !st.write_set.empty())) {
        // Inside the publication section, behind commit_mu_: log order is
        // commit order, the property recovery's sequential replay relies
        // on.  Prepared participants already logged their write set at
        // Prepare (slim commit); read-only decisions still log the commit
        // so replay can resolve the restored in-doubt participant.
        if (!st.prepared && !st.redo.empty()) {
          wal_->Append(WalRecord::WriteSet(txn, WalImagesFromMap(st.redo)));
        }
        *wal_lsn = wal_->Append(WalRecord::Commit(txn, st.commit_ts));
      }
    }
    st.active = false;
    st.committed = true;
    st.prepared = false;
  }
  st.redo.clear();
  ReleaseReservations(txn, st);
  if (!ssi()) st.write_set.clear();  // only SSI edges read it after commit
  Trace(txn, obs::TraceEventType::kCommit);
}

Status SnapshotIsolationEngine::Commit(TxnId txn) {
  // Commit-pipeline stage 1: validate and reserve.
  bool locks = false;
  {
    obs::ScopedTimer t(stage1_hist_);
    TableLock tl(table_mu_);
    CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Active(txn));
    locks = TakesWriteLocks(*st);
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRITIQUE_RETURN_NOT_OK(ValidateAndReserve(txn, *st));
  }

  // The commit window: no engine latch held.  Other sessions run freely;
  // any rw-antidependency they hang on this transaction is caught by the
  // stage-2 re-validation.  The hook is the test failpoint that makes the
  // window deterministic.
  if (commit_window_hook_) commit_window_hook_(txn);

  // Stage 2: re-validate and publish.
  bool gc_due = false;
  std::optional<uint64_t> wal_lsn;
  {
    obs::ScopedTimer t(stage2_hist_);
    TableLock tl(table_mu_);
    // Still active (reserved, unpublished), so no GC pass retired it.
    TxnState& st = *txns_.Find(txn);
    std::lock_guard<std::mutex> cl(commit_mu_);
    // Re-validation: rw-antidependencies that formed during the commit
    // window are examined against the current edge state.
    // First-Committer-Wins needs no re-run: the write-set reservation
    // taken at stage 1 kept every overlapping committer out.
    if (auto refusal = SsiRefusal(txn, st)) {
      ReleaseReservations(txn, st);
      ++pipeline_stats_.revalidation_aborts;
      return AbortInternal(txn, Status::SerializationFailure(*refusal),
                           &EngineStats::serialization_aborts,
                           obs::AbortReason::kSsiDangerousStructure);
    }
    Publish(txn, st, &wal_lsn);
    gc_due = GcTick();
  }
  // ORC's Write locks outlive publication, so a waiter granted one reads
  // this commit; no engine latch is held across the release.
  if (locks) lock_manager_.ReleaseAll(txn);
  if (gc_due) (void)RunGcPass();
  // The durability wait runs with no engine latch held: other sessions
  // keep validating and publishing while this one sits out the fsync (and,
  // in group mode, rides another leader's batch).
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

bool SnapshotIsolationEngine::GcTick() {
  if (gc_policy_.mode != VersionGcMode::kWatermark) return false;
  const uint32_t interval = std::max<uint32_t>(1, gc_policy_.commit_interval);
  if (++commits_since_gc_ < interval) return false;
  commits_since_gc_ = 0;
  return true;
}

Status SnapshotIsolationEngine::Prepare(TxnId txn) {
  // Commit-pipeline stage 1 only: prepare is the participant's last
  // chance to refuse.  The write-set reservation then rides the whole
  // in-doubt window, and from here on the SSI checks of every other
  // commit treat this transaction as committed, so the decision only
  // publishes.
  std::optional<uint64_t> wal_lsn;
  {
    obs::ScopedTimer t(stage1_hist_);
    TableLock tl(table_mu_);
    CRITIQUE_ASSIGN_OR_RETURN(TxnState* state, txns_.Active(txn));
    TxnState& st = *state;
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRITIQUE_RETURN_NOT_OK(ValidateAndReserve(txn, st));
    {
      auto el = SsiLock();
      st.prepared = true;
    }
    if (wal_ != nullptr) {
      // The vote and its redo, appended behind commit_mu_ like a commit
      // (the reservation ordering argument covers prepares too).
      if (!st.redo.empty()) {
        wal_->Append(WalRecord::WriteSet(txn, WalImagesFromMap(st.redo)));
        st.redo.clear();
      }
      wal_lsn = wal_->Append(WalRecord::Prepare(txn));
    }
    Trace(txn, obs::TraceEventType::kPrepare);
  }
  // The durable-vote rule: the coordinator may not count this participant
  // as prepared until its vote would survive a crash.  A dead log surfaces
  // here as a refusal — the participant stays frozen in doubt, which is
  // exactly what a crash at this instant means.
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status SnapshotIsolationEngine::CommitPrepared(TxnId txn) {
  bool gc_due = false;
  bool locks = false;
  std::optional<uint64_t> wal_lsn;
  {
    obs::ScopedTimer t(stage2_hist_);
    TableLock tl(table_mu_);
    CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Prepared(txn));
    locks = TakesWriteLocks(*st);
    std::lock_guard<std::mutex> cl(commit_mu_);
    // Stage 2 without re-validation: a prepared transaction is never an
    // SSI victim (see SsiRefusal), so the decision cannot be refused.
    Publish(txn, *st, &wal_lsn);
    gc_due = GcTick();
  }
  if (locks) lock_manager_.ReleaseAll(txn);  // see Commit
  if (gc_due) (void)RunGcPass();
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status SnapshotIsolationEngine::AbortPrepared(TxnId txn) {
  TableLock tl(table_mu_);
  CRITIQUE_ASSIGN_OR_RETURN(TxnState* st, txns_.Prepared(txn));
  {
    std::lock_guard<std::mutex> cl(commit_mu_);
    // Buffered only, never synced: presumed abort means a lost abort
    // record just re-restores the participant in doubt, and the next
    // recovery aborts it again.
    if (wal_ != nullptr) wal_->Append(WalRecord::Abort(txn));
    ReleaseReservations(txn, *st);
  }
  return AbortInternal(txn, Status::OK(), &EngineStats::aborts,
                       obs::AbortReason::kInDoubtDecision);
}

std::vector<TxnId> SnapshotIsolationEngine::InDoubtTransactions() const {
  // Exclusive: a cross-session read of flags each owner writes under the
  // shared latch.
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  std::vector<TxnId> out;
  txns_.ForEach([&](TxnId t, const TxnState& st) {
    if (st.active && st.prepared) out.push_back(t);
  });
  return out;
}

Status SnapshotIsolationEngine::Abort(TxnId txn) {
  TableLock tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(txns_.Active(txn).status());
  return AbortInternal(txn, Status::OK(), &EngineStats::aborts,
                       obs::AbortReason::kExplicit);
}

size_t SnapshotIsolationEngine::RunGcPass() {
  size_t dropped = 0;
  {
    // Exclusive: no Begin is between its tick and its insert, so every
    // snapshot handed out is either registered or not yet drawn.
    std::unique_lock<std::shared_mutex> tl(table_mu_);
    // Low-watermark: the oldest begin timestamp still open (prepared
    // in-doubt participants and mid-pipeline committers are active and
    // count), else "now".  Every version superseded at or below it is
    // invisible to all live snapshots, and future snapshots only begin at
    // >= now.  A native-ORC engine holds no snapshot at all (every
    // statement reads "now") and no SSI state, so its watermark is "now".
    Timestamp watermark = clock_.Now();
    if (level_ != IsolationLevel::kOracleReadConsistency) {
      txns_.ForEach([&](TxnId, const TxnState& st) {
        if (st.active && st.start_ts < watermark) watermark = st.start_ts;
      });
    }
    {
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      dropped = store_->GarbageCollect(watermark);
    }
    if (watermark > gc_floor_.load(std::memory_order_relaxed)) {
      gc_floor_.store(watermark, std::memory_order_release);
    }

    if (gc_policy_.mode == VersionGcMode::kWatermark) {
      // Retire transaction states whose interval ended at or below the
      // watermark: nothing still active was concurrent with them (any
      // active T concurrent with committed U has T.start < U.commit, which
      // would have kept the watermark below U.commit), so no live SSI edge
      // can need them — a missing neighbour reads as "not live", which is
      // exactly what these retirees are.  Aborted states are dead already.
      // Duplicate-id detection no longer covers retired ids (the session
      // facade's monotonic id assignment never reuses one, and a sharded
      // global id may legitimately arrive here long after higher ids
      // committed — refusing it would fail a valid cross-shard txn).
      //
      // The exclusive table latch excludes every session operation, so the
      // SSI structures are safe to edit here without `ssi_mu_`.
      std::set<TxnId> retired;
      std::map<TxnId, Timestamp> retired_commit_ts;
      txns_.EraseIf([&](TxnId t, const TxnState& st) {
        const bool dead =
            st.aborted || (st.committed && st.commit_ts <= watermark);
        if (st.active || !dead) return false;
        retired.insert(t);
        if (st.committed) retired_commit_ts[t] = st.commit_ts;
        // A committed SSI write set leaves the writer index with its
        // state (an aborted one already left at rollback).
        if (ssi()) EraseWriter(t, st.write_set);
        return true;
      });
      if (!retired.empty()) {
        txns_.ForEach([&](TxnId, TxnState& st) {
          // Summarize before forgetting: a retired committed rw-successor
          // that committed before its (surviving, committed) predecessor
          // is a dangerous structure's "T3 commits first" witness — keep
          // that one bit so the completion check stays sound.
          if (st.committed && !st.committed_first_out) {
            for (TxnId w : st.out_to) {
              auto rc = retired_commit_ts.find(w);
              if (rc != retired_commit_ts.end() &&
                  rc->second < st.commit_ts) {
                st.committed_first_out = true;
                break;
              }
            }
          }
          for (TxnId r : retired) {
            st.in_from.erase(r);
            st.out_to.erase(r);
          }
        });
        // Drop the retirees' SIREAD bookkeeping so SSI memory is bounded
        // alongside the version chains.
        for (auto it = readers_.begin(); it != readers_.end();) {
          for (TxnId t : retired) it->second.erase(t);
          if (it->second.empty()) {
            it = readers_.erase(it);
          } else {
            ++it;
          }
        }
        predicate_readers_.erase(
            std::remove_if(predicate_readers_.begin(),
                           predicate_readers_.end(),
                           [&](const std::pair<Predicate, TxnId>& pr) {
                             return retired.count(pr.second) != 0;
                           }),
            predicate_readers_.end());
      }
    }
  }
  {
    std::lock_guard<std::mutex> gl(gc_stats_mu_);
    ++gc_stats_.runs;
    gc_stats_.collected += dropped;
  }
  return dropped;
}

void SnapshotIsolationEngine::RegisterMetrics(obs::MetricsRegistry& reg,
                                              const std::string& prefix) {
  Engine::RegisterMetrics(reg, prefix);
  reg.RegisterGauge(prefix + "pipeline.slots_issued", [this] {
    return commit_pipeline_stats().slots_issued;
  });
  reg.RegisterGauge(prefix + "pipeline.revalidation_aborts", [this] {
    return commit_pipeline_stats().revalidation_aborts;
  });
  reg.RegisterHistogram(prefix + "pipeline.validate_us", &stage1_hist_);
  reg.RegisterHistogram(prefix + "pipeline.publish_us", &stage2_hist_);
  if (level_ == IsolationLevel::kOracleReadConsistency) {
    lock_manager_.RegisterMetrics(reg, prefix + "lock.");
  }
  // Hint-free (full-store-scan) commit/abort counters: nonzero means some
  // call site regressed to the slow path the write-set hints exist to avoid.
  reg.RegisterGauge(prefix + "storage.unhinted_commits", [this] {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_->unhinted_commits();
  });
  reg.RegisterGauge(prefix + "storage.unhinted_aborts", [this] {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_->unhinted_aborts();
  });
}

std::string SnapshotIsolationEngine::DebugDump() const {
  if (level_ != IsolationLevel::kOracleReadConsistency) return std::string();
  return lock_manager_.DebugSnapshot().ToString();
}

size_t SnapshotIsolationEngine::GarbageCollectVersions() {
  {
    std::lock_guard<std::mutex> cl(commit_mu_);
    commits_since_gc_ = 0;  // an explicit pass restarts the epoch
  }
  return RunGcPass();
}

}  // namespace critique
