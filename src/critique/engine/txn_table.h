#ifndef CRITIQUE_ENGINE_TXN_TABLE_H_
#define CRITIQUE_ENGINE_TXN_TABLE_H_

#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/history/action.h"

namespace critique {

/// \brief The transaction-table registry both stock engines keep: TxnId to
/// per-transaction state, behind a short mutex that guards only the map's
/// structure.
///
/// Engines hold their table latch (`table_mu_`) *shared* for every session
/// operation, `Begin` included, so a begin never drains the operations in
/// flight.  Begins therefore insert while other sessions look entries up,
/// and every insert, lookup and scan runs under the registry mutex.  A
/// `State&` stays valid after the mutex drops: map nodes are stable, and
/// only `EraseIf` removes them, which callers run with the table latch
/// exclusive, when no session holds a reference.
///
/// `State` carries the `active` and `prepared` flags `Active`/`Prepared`
/// test.  The mutex guards the map, not the states: who may read or write
/// a state's fields is the engine's rule (the owning session's thread, plus
/// the SSI latch for the multiversion engine's cross-session fields).  It
/// is the innermost engine latch; nothing else is acquired while it is
/// held except inside a `Register` initializer, which must take no latch.
template <typename State>
class TxnTable {
 public:
  /// Inserts a fresh state for `txn` once `init(state)` has filled it in
  /// and returned OK.  Refuses ids below 1 and ids already present.
  /// `init` runs under the registry mutex (the multiversion engine draws
  /// the start timestamp and checks the GC floor there) and may refuse
  /// with its own status, in which case nothing is inserted.
  template <typename Init>
  Status Register(TxnId txn, Init&& init) {
    if (txn < 1) return Status::InvalidArgument("txn ids start at 1");
    State st;
    std::lock_guard<std::mutex> lk(mu_);
    if (map_.count(txn) != 0) {
      return Status::InvalidArgument("txn " + std::to_string(txn) +
                                     " already used");
    }
    Status s = init(st);
    if (!s.ok()) return s;
    map_.emplace(txn, std::move(st));
    return Status::OK();
  }

  /// The state of `txn`, or nullptr when it never began or was retired.
  State* Find(TxnId txn) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(txn);
    return it == map_.end() ? nullptr : &it->second;
  }
  const State* Find(TxnId txn) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(txn);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// The state of `txn` if it is active and not prepared, else the
  /// refusal: kTransactionAborted when it is not active, kFailedPrecondition
  /// when it is prepared (in doubt, only the coordinator may end it).
  /// Callers hold their table latch (the flags are the owner's).
  Result<State*> Active(TxnId txn) {
    State* st = Find(txn);
    if (st == nullptr || !st->active) {
      return Status::TransactionAborted("txn " + std::to_string(txn) +
                                        " is not active");
    }
    if (st->prepared) {
      return Status::FailedPrecondition(
          "txn " + std::to_string(txn) +
          " is prepared (in doubt); only CommitPrepared/AbortPrepared may "
          "end it");
    }
    return st;
  }

  /// The state of `txn` if it is prepared (in doubt), else
  /// kFailedPrecondition.
  Result<State*> Prepared(TxnId txn) {
    State* st = Find(txn);
    if (st == nullptr || !st->active || !st->prepared) {
      return Status::FailedPrecondition("txn " + std::to_string(txn) +
                                        " is not prepared");
    }
    return st;
  }

  /// Calls `f(txn, state)` for every entry in id order, holding the
  /// registry mutex throughout.
  template <typename F>
  void ForEach(F&& f) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [t, st] : map_) f(t, st);
  }
  template <typename F>
  void ForEach(F&& f) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [t, st] : map_) f(t, st);
  }

  /// Erases every entry for which `pred(txn, state)` is true.  Callers hold
  /// their table latch exclusive, so no session holds a reference into an
  /// erased state.
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second)) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  mutable std::mutex mu_;
  std::map<TxnId, State> map_;
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_TXN_TABLE_H_
