#include "critique/db/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "critique/engine/engine_factory.h"

namespace critique {
namespace {

// Contract violations on the facade are programming errors; fail fast with
// a diagnostic in every build type (assert() vanishes under NDEBUG, which
// is the default RelWithDebInfo configuration).
void CheckOrDie(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "critique::Database contract violation: %s\n", what);
    std::abort();
  }
}

// Pre-session engine configuration shared by both constructors: the
// conflict protocol + lock-table striping, then the version-GC policy.
void ConfigureEngine(Engine& engine, const DbOptions& options) {
  EngineConcurrency c;
  c.blocking_locks = options.mode == ConcurrencyMode::kBlocking;
  c.lock_wait_timeout = options.lock_wait_timeout;
  c.lock_stripes = options.lock_stripes;
  c.storage_backend = options.storage_backend;
  engine.SetConcurrency(c);
  engine.SetVersionGc({options.version_gc, options.version_gc_interval});
}

}  // namespace

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(DbOptions options)
    : engine_(options.engine_factory ? options.engine_factory()
                                     : CreateEngine(options.isolation)),
      retry_(options.retry_policy ? std::move(options.retry_policy)
                                  : DefaultRetryPolicy()),
      mode_(options.mode),
      rng_(options.seed) {
  CheckOrDie(engine_ != nullptr, "engine factory produced no engine");
  ConfigureEngine(*engine_, options);
  WireObservability(options);
  track_snapshots_ = engine_->SnapshotTimestamp().has_value();
  if (!options.wal_path.empty()) {
    // A fresh database starts a fresh log (an existing file is an explicit
    // overwrite; restart-from-log is `Recover`).
    Result<WalWriter> w =
        WalWriter::Create(options.wal_path, options.fsync_mode);
    CheckOrDie(w.ok(), "could not create the WAL file");
    AttachWal(std::move(w).value(), options);
  }
}

Database::Database(std::unique_ptr<Engine> engine, DbOptions options)
    : engine_(std::move(engine)),
      retry_(options.retry_policy ? std::move(options.retry_policy)
                                  : DefaultRetryPolicy()),
      mode_(options.mode),
      rng_(options.seed) {
  CheckOrDie(engine_ != nullptr, "null engine handed to Database");
  ConfigureEngine(*engine_, options);
  WireObservability(options);
  track_snapshots_ = engine_->SnapshotTimestamp().has_value();
  if (!options.wal_path.empty()) {
    Result<WalWriter> w =
        WalWriter::Create(options.wal_path, options.fsync_mode);
    CheckOrDie(w.ok(), "could not create the WAL file");
    AttachWal(std::move(w).value(), options);
  }
}

void Database::WireObservability(const DbOptions& options) {
  // Runs in both constructors, after the engine exists and before any
  // session could begin.  The registry and tracer live on the heap so the
  // raw pointers the engine (and any SessionExecutor) hold stay stable
  // across facade moves — the same reason `wal_` does.
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  if (options.trace_events > 0) {
    tracer_ = std::make_unique<obs::TxnTracer>(options.trace_events);
  }
  engine_->SetTracer(tracer_.get());
  engine_->RegisterMetrics(*metrics_, "engine.");
  if (options.online_check) {
    check::CheckerOptions copts;
    copts.prune_interval = options.online_check_prune_interval;
    checker_ = std::make_unique<check::OnlineChecker>(copts);
    checker_->SetDefaultLevel(engine_->level());
    checker_->RegisterMetrics(*metrics_, "check.");
    // The observer runs under the recorder mutex: the checker ingests the
    // exact recorded total order, one action at a time.
    engine_->SetActionObserver(
        [c = checker_.get()](const Action& a) { c->Ingest(a); });
  }
}

void Database::AttachWal(WalWriter writer, const DbOptions& options) {
  CommitLog::Options log_options;
  log_options.group_commit = options.group_commit;
  log_options.fsync_mode = options.fsync_mode;
  log_options.fsync_latency = options.fsync_latency;
  wal_ = std::make_unique<CommitLog>(std::move(writer), log_options);
  engine_->SetWal(wal_.get());
  // Covers the Recover path too: the replay facade already built its
  // registry, and the commit log joins it the moment it is attached.
  wal_->RegisterMetrics(*metrics_, "wal.");
}

Result<Database> Database::Recover(DbOptions options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("Recover requires DbOptions::wal_path");
  }
  CRITIQUE_ASSIGN_OR_RETURN(WalReadResult wal,
                            WalReader::ReadFile(options.wal_path));

  // Build the facade with NO log attached: replay must re-run the logged
  // transactions through the normal engine API without re-logging them.
  DbOptions replay_options = options;
  replay_options.wal_path.clear();
  Database db(std::move(replay_options));
  CRITIQUE_ASSIGN_OR_RETURN(WalRecoveryStats stats,
                            ReplayWal(*db.engine_, wal));

  // Reopen for append behind the intact prefix (the torn tail — bytes a
  // crash left mid-record — is truncated away), then log onward into the
  // same file: a later crash recovers through this log again.
  CRITIQUE_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::OpenForAppend(options.wal_path, wal.valid_bytes,
                               options.fsync_mode));
  db.AttachWal(std::move(writer), options);
  db.wal_recovery_ = stats;
  db.recovered_ = true;

  // The id allocator resumes past every id the log ever mentioned, so new
  // sessions can never collide with a replayed (or discarded) id.
  TxnId floor = stats.max_txn + 1;
  TxnId cur = db.next_id_.load(std::memory_order_relaxed);
  if (floor > cur) db.next_id_.store(floor, std::memory_order_relaxed);
  return db;
}

Database::Database(Database&& other) noexcept
    : engine_(std::move(other.engine_)),
      wal_(std::move(other.wal_)),
      metrics_(std::move(other.metrics_)),
      tracer_(std::move(other.tracer_)),
      checker_(std::move(other.checker_)),
      wal_recovery_(other.wal_recovery_),
      recovered_(other.recovered_),
      retry_(std::move(other.retry_)),
      mode_(other.mode_),
      rng_(other.rng_),
      next_id_(other.next_id_.load()),
      execute_retries_(other.execute_retries_.load()),
      open_txns_(other.open_txns_.load()),
      track_snapshots_(other.track_snapshots_) {
  // Open Transaction handles hold a raw back-pointer to their database:
  // moving it out from under them would dangle every one of them.  (The
  // open-snapshot registry is therefore empty on both sides.)
  CheckOrDie(open_txns_.load() == 0,
             "Database moved while transactions are open");
}

Database& Database::operator=(Database&& other) noexcept {
  CheckOrDie(open_txns_.load() == 0 && other.open_txns_.load() == 0,
             "Database moved while transactions are open");
  if (this != &other) {
    engine_ = std::move(other.engine_);
    wal_ = std::move(other.wal_);
    metrics_ = std::move(other.metrics_);
    tracer_ = std::move(other.tracer_);
    checker_ = std::move(other.checker_);
    wal_recovery_ = other.wal_recovery_;
    recovered_ = other.recovered_;
    retry_ = std::move(other.retry_);
    mode_ = other.mode_;
    rng_ = other.rng_;
    next_id_.store(other.next_id_.load());
    execute_retries_.store(other.execute_retries_.load());
    open_txns_.store(other.open_txns_.load());
    track_snapshots_ = other.track_snapshots_;
  }
  return *this;
}

Status Database::Load(const ItemId& id, Row row) {
  // A redo-only log must carry bootstrap rows too (see the header note).
  // Buffered only: loads become durable with the first commit's sync,
  // never before any committed work could depend on them.
  if (wal_ != nullptr) wal_->Append(WalRecord::LoadRow(id, row));
  return engine_->Load(id, std::move(row));
}

Transaction Database::Begin() {
  TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // The registry entry goes in BEFORE the engine assigns the real start
  // timestamp (with a bound captured before it could tick): the registry
  // must never overstate how new an open snapshot is — not even during
  // the begin window — or a watermark derived from `OldestOpenSnapshot`
  // could pass a version the nascent snapshot still needs.
  const std::optional<Timestamp> begin_bound =
      track_snapshots_ ? engine_->SnapshotTimestamp() : std::nullopt;
  if (begin_bound.has_value()) RegisterSnapshot(id, *begin_bound);
  // Checker registration also precedes the engine begin: the checker's
  // pruning watermark relies on a transaction's registration epoch lower-
  // bounding its snapshot.
  if (checker_ != nullptr) checker_->BeginTxn(id, engine_->level());
  Status s = engine_->Begin(id);
  // A fresh id never collides; a failure here means the engine refuses new
  // transactions entirely, and the inactive handle surfaces that on use.
  if (!s.ok()) {
    if (begin_bound.has_value()) ForgetSnapshot(id);
    if (checker_ != nullptr) checker_->CancelTxn(id);
  }
  return Transaction(this, id, s.ok(), engine_->level());
}

Result<Transaction> Database::Begin(const BeginOptions& opts) {
  TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const IsolationLevel effective = opts.level.value_or(engine_->level());
  const std::optional<Timestamp> begin_bound =
      track_snapshots_ ? engine_->SnapshotTimestamp() : std::nullopt;
  if (begin_bound.has_value()) RegisterSnapshot(id, *begin_bound);
  if (checker_ != nullptr) checker_->BeginTxn(id, effective);
  Status s = opts.level.has_value() ? engine_->BeginWithLevel(id, *opts.level)
                                    : engine_->Begin(id);
  if (!s.ok()) {
    if (begin_bound.has_value()) ForgetSnapshot(id);
    if (checker_ != nullptr) checker_->CancelTxn(id);
    return s;
  }
  return Transaction(this, id, true, effective);
}

Result<Transaction> Database::BeginWithId(TxnId id) {
  return BeginWithId(id, BeginOptions{});
}

Result<Transaction> Database::BeginWithId(TxnId id, const BeginOptions& opts) {
  // Reserve the id (bump next_id_ past it) BEFORE telling the engine:
  // done in the other order, a concurrent Begin() could draw the same id
  // and get a spuriously dead session.  Ids stay reserved even when the
  // engine refuses (a gap in the sequence is harmless).
  TxnId cur = next_id_.load(std::memory_order_relaxed);
  while (id >= cur &&
         !next_id_.compare_exchange_weak(cur, id + 1,
                                         std::memory_order_relaxed)) {
  }
  const IsolationLevel effective = opts.level.value_or(engine_->level());
  // Register-before-begin, as in `Begin` (unregister on refusal).
  const std::optional<Timestamp> begin_bound =
      track_snapshots_ ? engine_->SnapshotTimestamp() : std::nullopt;
  if (begin_bound.has_value()) RegisterSnapshot(id, *begin_bound);
  if (checker_ != nullptr) checker_->BeginTxn(id, effective);
  Status s = opts.level.has_value() ? engine_->BeginWithLevel(id, *opts.level)
                                    : engine_->Begin(id);
  if (!s.ok()) {
    if (begin_bound.has_value()) ForgetSnapshot(id);
    if (checker_ != nullptr) checker_->CancelTxn(id);
    return s;
  }
  Transaction txn(this, id, true, effective);
  txn.blocked_op_retry_ = false;  // manual sessions: the schedule decides
  return txn;
}

Result<Transaction> Database::BeginAtTimestamp(Timestamp ts) {
  TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Register-before-begin, as in `Begin` (unregister on refusal).  The
  // requested ts IS the snapshot bound here.
  if (track_snapshots_) RegisterSnapshot(id, ts);
  if (checker_ != nullptr) checker_->BeginTxn(id, engine_->level());
  Status s = engine_->BeginAt(id, ts);
  if (!s.ok()) {
    if (track_snapshots_) ForgetSnapshot(id);
    if (checker_ != nullptr) checker_->CancelTxn(id);
    return s;
  }
  return Transaction(this, id, true, engine_->level());
}

void Database::RegisterSnapshot(TxnId id, Timestamp begin_ts) {
  std::lock_guard<std::mutex> lk(snap_mu_);
  open_snapshots_[id] = begin_ts;
}

void Database::ForgetSnapshot(TxnId id) {
  std::lock_guard<std::mutex> lk(snap_mu_);
  open_snapshots_.erase(id);
}

std::optional<Timestamp> Database::OldestOpenSnapshot() const {
  if (!track_snapshots_) return std::nullopt;
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    if (!open_snapshots_.empty()) {
      Timestamp oldest = ~Timestamp{0};
      for (const auto& [id, ts] : open_snapshots_) {
        (void)id;
        oldest = std::min(oldest, ts);
      }
      return oldest;
    }
  }
  return engine_->SnapshotTimestamp();
}

Rng Database::ForkRng() {
  std::lock_guard<std::mutex> lk(rng_mu_);
  return Rng(rng_.Next());
}

void Database::SetLockWakeupHook(std::function<void(TxnId)> hook) {
  CheckOrDie(open_transactions() == 0,
             "SetLockWakeupHook while transactions are open");
  EngineConcurrency c = engine_->concurrency();
  c.lock_wakeup = std::move(hook);
  engine_->SetConcurrency(c);
}

std::optional<Timestamp> Database::CurrentTimestamp() const {
  return engine_->SnapshotTimestamp();
}

std::string Database::DebugDump() const {
  std::string out =
      "=== database '" + engine_->name() + "' debug dump ===\n";
  out += "open transactions: " + std::to_string(open_transactions()) + "\n";
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    if (!open_snapshots_.empty()) {
      out += "open snapshots (" + std::to_string(open_snapshots_.size()) +
             "):\n";
      for (const auto& [id, ts] : open_snapshots_) {
        out += "  T" + std::to_string(id) + " begin_ts=" + std::to_string(ts) +
               "\n";
      }
    }
  }
  out += engine_->DebugDump();
  return out;
}

Status Database::Execute(const BeginOptions& opts,
                         const std::function<Status(Transaction&)>& body) {
  // A begin refusal (the engine cannot honor the declared level) is
  // terminal: retrying a contract the engine already rejected would loop
  // forever.
  for (int attempt = 1;; ++attempt) {
    Result<Transaction> begun = Begin(opts);
    if (!begun.ok()) return begun.status();
    Transaction txn = std::move(begun).value();
    Status s = body(txn);
    // A body that ends its own transaction (Commit, Rollback, or an
    // engine-side abort it chose to accept) is respected; otherwise commit
    // on success, roll back on failure.
    if (s.ok() && txn.active()) s = txn.Commit();
    if (txn.active()) (void)txn.Rollback();
    if (s.ok()) return s;
    if (!retry_->RetryTransaction(s, attempt)) return s;
    execute_retries_.fetch_add(1, std::memory_order_relaxed);
    const auto delay = retry_->RetryDelay(attempt);
    if (delay > std::chrono::microseconds::zero()) {
      std::this_thread::sleep_for(delay);
    }
  }
}

Status Database::Execute(const std::function<Status(Transaction&)>& body) {
  return Execute(BeginOptions{}, body);
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Transaction::Transaction(Database* db, TxnId id, bool active,
                         IsolationLevel level)
    : db_(db), id_(id), active_(active), level_(level) {
  if (active_ && db_ != nullptr) {
    db_->open_txns_.fetch_add(1, std::memory_order_relaxed);
  }
}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      id_(other.id_),
      active_(other.active_),
      level_(other.level_),
      blocked_op_retry_(other.blocked_op_retry_) {
  // Ownership (and the open-transaction count slot) transfers wholesale.
  other.db_ = nullptr;
  other.active_ = false;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    if (active_ && db_ != nullptr) (void)db_->engine_->Abort(id_);
    Finish();
    db_ = other.db_;
    id_ = other.id_;
    active_ = other.active_;
    level_ = other.level_;
    blocked_op_retry_ = other.blocked_op_retry_;
    other.db_ = nullptr;
    other.active_ = false;
  }
  return *this;
}

Transaction::~Transaction() {
  if (active_ && db_ != nullptr) (void)db_->engine_->Abort(id_);
  Finish();
}

void Transaction::Finish() {
  if (active_) {
    active_ = false;
    if (db_ != nullptr) {
      db_->open_txns_.fetch_sub(1, std::memory_order_relaxed);
      if (db_->track_snapshots_) db_->ForgetSnapshot(id_);
    }
  }
}

void Transaction::ObserveTerminalStatus(const Status& s) {
  // kDeadlock / kSerializationFailure: the engine already rolled us back.
  // kTransactionAborted: the engine says we are not active; agree.
  if (s.IsDeadlock() || s.IsSerializationFailure() ||
      s.IsTransactionAborted()) {
    Finish();
  }
}

template <typename Op>
Status Transaction::RunOp(Op&& op) {
  if (db_ == nullptr) {
    return Status::TransactionAborted("moved-from transaction handle");
  }
  if (!active_) {
    return Status::TransactionAborted("transaction already finished");
  }
  int attempt = 0;
  for (;;) {
    Status s = op();
    ++attempt;
    if (s.IsWouldBlock() && blocked_op_retry_ &&
        db_->retry_->RetryBlockedOp(attempt)) {
      continue;
    }
    ObserveTerminalStatus(s);
    return s;
  }
}

Result<std::optional<Row>> Transaction::Get(const ItemId& id) {
  std::optional<Row> out;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->Read(id_, id);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
    return Status::OK();
  }));
  return out;
}

Result<Value> Transaction::GetScalar(const ItemId& id) {
  CRITIQUE_ASSIGN_OR_RETURN(std::optional<Row> row, Get(id));
  if (row.has_value()) return row->scalar();
  return Value();
}

Result<std::vector<std::pair<ItemId, Row>>> Transaction::GetWhere(
    const std::string& name, const Predicate& pred) {
  std::vector<std::pair<ItemId, Row>> out;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->ReadPredicate(id_, name, pred);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
    return Status::OK();
  }));
  return out;
}

Status Transaction::Put(const ItemId& id, Row row) {
  return RunOp([&] { return db_->engine_->Write(id_, id, row); });
}

Status Transaction::Put(const ItemId& id, Value v) {
  return Put(id, Row::Scalar(std::move(v)));
}

Status Transaction::Insert(const ItemId& id, Row row) {
  return RunOp([&] { return db_->engine_->Insert(id_, id, row); });
}

Status Transaction::Erase(const ItemId& id) {
  return RunOp([&] { return db_->engine_->Delete(id_, id); });
}

Status Transaction::Update(
    const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  return RunOp([&] { return db_->engine_->Update(id_, id, transform); });
}

Result<size_t> Transaction::UpdateWhere(
    const std::string& name, const Predicate& pred,
    const std::function<Row(const Row&)>& transform) {
  size_t out = 0;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->UpdateWhere(id_, name, pred, transform);
    if (!r.ok()) return r.status();
    out = *r;
    return Status::OK();
  }));
  return out;
}

Result<size_t> Transaction::DeleteWhere(const std::string& name,
                                        const Predicate& pred) {
  size_t out = 0;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->DeleteWhere(id_, name, pred);
    if (!r.ok()) return r.status();
    out = *r;
    return Status::OK();
  }));
  return out;
}

Result<std::optional<Row>> Transaction::Fetch(const ItemId& id) {
  std::optional<Row> out;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->FetchCursor(id_, id);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
    return Status::OK();
  }));
  return out;
}

Result<std::optional<Row>> Transaction::FetchNamed(const std::string& cursor,
                                                   const ItemId& id) {
  std::optional<Row> out;
  CRITIQUE_RETURN_NOT_OK(RunOp([&] {
    auto r = db_->engine_->FetchCursorNamed(id_, cursor, id);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
    return Status::OK();
  }));
  return out;
}

Status Transaction::PutCursor(const ItemId& id, Row row) {
  return RunOp([&] { return db_->engine_->WriteCursor(id_, id, row); });
}

Status Transaction::PutCursor(const ItemId& id, Value v) {
  return PutCursor(id, Row::Scalar(std::move(v)));
}

Status Transaction::CloseCursor() {
  return RunOp([&] { return db_->engine_->CloseCursor(id_); });
}

Status Transaction::CloseCursorNamed(const std::string& cursor) {
  return RunOp([&] { return db_->engine_->CloseCursorNamed(id_, cursor); });
}

Status Transaction::Commit() {
  Status s = RunOp([&] { return db_->engine_->Commit(id_); });
  if (!s.IsWouldBlock()) Finish();
  return s;
}

Status Transaction::Rollback() {
  if (db_ == nullptr) {
    return Status::TransactionAborted("moved-from transaction handle");
  }
  if (!active_) return Status::OK();
  Finish();
  return db_->engine_->Abort(id_);
}

Status Transaction::Prepare() {
  return RunOp([&] { return db_->engine_->Prepare(id_); });
}

Status Transaction::CommitPrepared() {
  if (db_ == nullptr) {
    return Status::TransactionAborted("moved-from transaction handle");
  }
  if (!active_) {
    return Status::TransactionAborted("transaction already finished");
  }
  Status s = db_->engine_->CommitPrepared(id_);
  // A certifying engine (SSI) may refuse the decision when a dangerous
  // structure completed while the participant was in doubt; the engine
  // has then already rolled the transaction back, so the handle is
  // finished either way.
  if (s.ok() || s.IsSerializationFailure()) Finish();
  return s;
}

Status Transaction::AbortPrepared() {
  if (db_ == nullptr) {
    return Status::TransactionAborted("moved-from transaction handle");
  }
  if (!active_) {
    return Status::TransactionAborted("transaction already finished");
  }
  Status s = db_->engine_->AbortPrepared(id_);
  if (s.ok()) Finish();
  return s;
}

}  // namespace critique
