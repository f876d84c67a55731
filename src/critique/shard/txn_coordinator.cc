#include "critique/shard/txn_coordinator.h"

#include <ostream>

namespace critique {

std::string CoordinatorStats::ToString() const {
  return "started=" + std::to_string(started) +
         " committed=" + std::to_string(committed) +
         " aborted=" + std::to_string(aborted) +
         " prepare_failures=" + std::to_string(prepare_failures) +
         " crashes=" + std::to_string(crashes) +
         " recovered_commits=" + std::to_string(recovered_commits) +
         " recovered_aborts=" + std::to_string(recovered_aborts);
}

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats) {
  return os << stats.ToString();
}

Status TxnCoordinator::Commit(TxnId gid,
                              const std::vector<Transaction*>& parts) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.started;
  }

  // Phase 1: prepare in shard order.  A refusal means the refusing engine
  // already rolled its participant back (or the participant was already
  // dead); everyone else must now abort too.
  {
    obs::ScopedTimer t(prepare_hist_);
    for (size_t i = 0; i < parts.size(); ++i) {
      Status s = parts[i]->Prepare();
      if (s.ok()) continue;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.prepare_failures;
      ++stats_.aborted;
      // Global abort.  Prepared predecessors take the abort decision;
      // unprepared successors (and the refuser, if its handle survived)
      // roll back plainly.  Presumed abort: nothing to log.
      for (size_t j = 0; j < i; ++j) (void)parts[j]->AbortPrepared();
      for (size_t j = i; j < parts.size(); ++j) {
        if (parts[j]->active()) (void)parts[j]->Rollback();
      }
      return s;
    }
  }

  // All participants are prepared (in doubt) and no decision exists yet —
  // the window the deterministic failpoint exposes to tests.
  if (in_doubt_hook_) in_doubt_hook_(gid);

  CoordinatorFailpoint fp;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fp = failpoint_;
    if (fp == CoordinatorFailpoint::kBeforeDecision) ++stats_.crashes;
  }
  if (fp == CoordinatorFailpoint::kBeforeDecision) {
    return Status::Internal(
        "coordinator crashed before logging a decision for gid " +
        std::to_string(gid) + "; participants left in doubt");
  }

  // Write-ahead: the commit decision becomes durable before the in-memory
  // table (which phase 2 and recovery readers consult) ever shows it.  A
  // failed append means the decision was never made — the log device died
  // first — so the coordinator "crashes" and presumed abort governs.
  if (log_ != nullptr) {
    Status ls = log_->AppendDurable(WalRecord::Decision(gid, true));
    if (!ls.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.crashes;
      return Status::Internal(
          "coordinator log died before the commit decision for gid " +
          std::to_string(gid) + " became durable (" + ls.ToString() +
          "); participants left in doubt");
    }
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    decisions_[gid] = true;
    if (fp == CoordinatorFailpoint::kAfterDecision) ++stats_.crashes;
  }
  if (fp == CoordinatorFailpoint::kAfterDecision) {
    return Status::Internal(
        "coordinator crashed after logging commit for gid " +
        std::to_string(gid) + "; participants left in doubt");
  }

  // Phase 2: deliver the decision.  After an OK Prepare no participant
  // can refuse it, so any failure here is a protocol bug worth surfacing
  // loudly.
  {
    obs::ScopedTimer t(decision_hist_);
    for (Transaction* p : parts) {
      Status s = p->CommitPrepared();
      if (!s.ok()) {
        return Status::Internal("participant refused CommitPrepared for gid " +
                                std::to_string(gid) + ": " + s.ToString());
      }
    }
  }

  // All participants are terminal: close the durable entry (buffered — a
  // lost kDecisionEnd only leaves a stale decision recovery ignores).
  if (log_ != nullptr) (void)log_->Append(WalRecord::DecisionEnd(gid));
  std::lock_guard<std::mutex> lk(mu_);
  decisions_.erase(gid);  // all participants terminal; nothing left to recover
  ++stats_.committed;
  return Status::OK();
}

std::optional<bool> TxnCoordinator::DecisionFor(TxnId gid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = decisions_.find(gid);
  if (it == decisions_.end()) return std::nullopt;
  return it->second;
}

void TxnCoordinator::ForgetDecision(TxnId gid) {
  if (log_ != nullptr) (void)log_->Append(WalRecord::DecisionEnd(gid));
  std::lock_guard<std::mutex> lk(mu_);
  decisions_.erase(gid);
}

void TxnCoordinator::AttachLog(WalSink* log) {
  std::lock_guard<std::mutex> lk(mu_);
  log_ = log;
}

void TxnCoordinator::RestoreDecisions(std::map<TxnId, bool> decisions) {
  std::lock_guard<std::mutex> lk(mu_);
  decisions_ = std::move(decisions);
}

void TxnCoordinator::CountRecovery(bool committed, uint64_t participants) {
  std::lock_guard<std::mutex> lk(mu_);
  if (committed) {
    stats_.recovered_commits += participants;
  } else {
    stats_.recovered_aborts += participants;
  }
}

void TxnCoordinator::set_failpoint(CoordinatorFailpoint f) {
  std::lock_guard<std::mutex> lk(mu_);
  failpoint_ = f;
}

CoordinatorStats TxnCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void TxnCoordinator::RegisterMetrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) {
  reg.RegisterGauge(prefix + "started", [this] { return stats().started; });
  reg.RegisterGauge(prefix + "committed",
                    [this] { return stats().committed; });
  reg.RegisterGauge(prefix + "aborted", [this] { return stats().aborted; });
  reg.RegisterGauge(prefix + "prepare_failures",
                    [this] { return stats().prepare_failures; });
  reg.RegisterHistogram(prefix + "prepare_us", &prepare_hist_);
  reg.RegisterHistogram(prefix + "decision_us", &decision_hist_);
}

}  // namespace critique
