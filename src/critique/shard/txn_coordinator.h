#ifndef CRITIQUE_SHARD_TXN_COORDINATOR_H_
#define CRITIQUE_SHARD_TXN_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "critique/common/status.h"
#include "critique/db/transaction.h"
#include "critique/obs/metrics.h"
#include "critique/wal/wal_record.h"
#include "critique/wal/wal_sink.h"

namespace critique {

/// Injectable coordinator "crash" points for the in-doubt recovery tests:
/// the coordinator stops mid-protocol, returns `kInternal`, and leaves its
/// prepared participants in doubt for `ShardedDatabase::RecoverInDoubt` to
/// resolve.
enum class CoordinatorFailpoint {
  kNone,
  /// Crash after every participant prepared but before the commit decision
  /// is logged.  Presumed abort: recovery finds no decision and aborts.
  kBeforeDecision,
  /// Crash after the commit decision is logged but before any participant
  /// learned it.  Recovery finds the decision and commits.
  kAfterDecision,
};

/// Counters exposed for benches and tests.
struct CoordinatorStats {
  uint64_t started = 0;           ///< cross-shard commits attempted
  uint64_t committed = 0;         ///< full 2PC rounds that committed
  uint64_t aborted = 0;           ///< global aborts (a participant refused)
  uint64_t prepare_failures = 0;  ///< participants that refused prepare
  /// Always 0: `CommitPrepared` cannot refuse after an OK `Prepare`.  Kept
  /// only because txnbench reads it; deleted with txnbench's next change.
  uint64_t decision_aborts = 0;
  uint64_t crashes = 0;           ///< failpoint-injected crashes
  uint64_t recovered_commits = 0; ///< in-doubt participants recovered forward
  uint64_t recovered_aborts = 0;  ///< in-doubt participants presumed-aborted

  /// One line: "started=12 committed=10 aborted=2 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats);

/// \brief The two-phase-commit coordinator for cross-shard transactions.
///
/// Phase 1 prepares every participant in shard order; any refusal turns
/// into a *global abort* — already-prepared participants get
/// `AbortPrepared`, unprepared ones roll back, and the refusing status
/// (typically `kSerializationFailure`, retryable) is returned so the
/// session layer's `RetryPolicy` restarts the whole transaction.  Phase 2
/// logs the commit decision, then delivers `CommitPrepared` to every
/// participant; after all acknowledge, the decision is forgotten.  After
/// an OK `Prepare` no stock engine's `CommitPrepared` can fail (engine.h,
/// 2PC protocol notes), so a phase-2 failure is a protocol bug and
/// surfaces as `kInternal`.
///
/// The decision log implements **presumed abort**: an in-doubt participant
/// whose global transaction has no logged decision must abort.  Only the
/// window between logging and the last acknowledgement keeps an entry, so
/// the log stays O(in-flight cross-shard transactions).
///
/// With `AttachLog` the decision log is *persistent*: the commit decision
/// is appended to a WAL (`kDecision`) and made durable **before** the
/// in-memory entry is set and phase 2 begins — the write-ahead rule.  If
/// the append fails (a WAL failpoint "crashed" the log device), the
/// decision was never made: the coordinator counts a crash and answers
/// `kInternal` with every participant still in doubt, and restart
/// recovery presumes abort — exactly what a real coordinator losing its
/// log volume mid-decision must do.  `kDecisionEnd` closes an entry once
/// every participant acknowledged; it is buffered, not synced — losing it
/// merely leaves a stale (harmless, idempotently re-ignorable) decision
/// in the recovered log.
///
/// Thread-safe: the decision log and counters are mutex-guarded; the
/// participant calls themselves run on the caller's thread (one global
/// transaction is one session driven by one thread, the same contract as
/// everywhere else).
class TxnCoordinator {
 public:
  /// Runs 2PC over `parts` (the per-shard sessions of global transaction
  /// `gid`).  All participant handles are finished on return except when a
  /// failpoint "crash" leaves prepared ones in doubt.
  Status Commit(TxnId gid, const std::vector<Transaction*>& parts);

  /// The logged decision for `gid`: true = commit; nullopt = no decision,
  /// which presumed abort reads as "abort".
  std::optional<bool> DecisionFor(TxnId gid) const;

  /// Drops `gid`'s log entry once every in-doubt participant is resolved.
  void ForgetDecision(TxnId gid);

  /// Attaches the persistent decision log (not owned; must outlive the
  /// coordinator).  Install before any commit starts; nullptr detaches.
  void AttachLog(WalSink* log);

  /// Seeds the in-memory decision table from a recovered log — called by
  /// `ShardedDatabase::Recover` with the still-open (`kDecision` without
  /// `kDecisionEnd`) entries, before any new traffic.
  void RestoreDecisions(std::map<TxnId, bool> decisions);

  /// Record recovery outcomes (called by `ShardedDatabase::RecoverInDoubt`).
  void CountRecovery(bool committed, uint64_t participants);

  /// Installs (or clears, with kNone) a crash point.  Sticky until reset.
  void set_failpoint(CoordinatorFailpoint f);

  /// Test failpoint: runs after every participant prepared, before the
  /// decision is logged — the in-doubt window, made deterministic (the
  /// callback counterpart of the crash failpoints).  Runs on the
  /// committing thread with no coordinator lock held; pass nullptr to
  /// clear.  Install before any commit starts.
  void set_in_doubt_hook(std::function<void(TxnId)> hook) {
    in_doubt_hook_ = std::move(hook);
  }

  CoordinatorStats stats() const;

  /// Phase-1 (prepare-all) wall time per 2PC round, microseconds.
  const obs::Histogram& prepare_histogram() const { return prepare_hist_; }

  /// Phase-2 (decision delivery) wall time per 2PC round, microseconds.
  const obs::Histogram& decision_histogram() const { return decision_hist_; }

  /// Registers phase histograms plus `CoordinatorStats` gauges with `reg`
  /// under `prefix` ("coord." by convention).  The coordinator must
  /// outlive the registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  mutable std::mutex mu_;
  std::map<TxnId, bool> decisions_;
  WalSink* log_ = nullptr;  ///< persistent decision log; not owned
  CoordinatorFailpoint failpoint_ = CoordinatorFailpoint::kNone;
  std::function<void(TxnId)> in_doubt_hook_;  ///< test failpoint
  CoordinatorStats stats_;
  // Internally synchronized — recorded outside mu_.
  obs::Histogram prepare_hist_;
  obs::Histogram decision_hist_;
};

}  // namespace critique

#endif  // CRITIQUE_SHARD_TXN_COORDINATOR_H_
