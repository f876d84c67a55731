#include "critique/lock/lock_manager.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <ostream>

namespace critique {

std::string_view LockModeName(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

std::string LockStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "acquired=%llu blocked=%llu deadlocks=%llu released=%llu "
                "timeouts=%llu coop_parks=%llu wakeups=%llu",
                (unsigned long long)acquired, (unsigned long long)blocked,
                (unsigned long long)deadlocks, (unsigned long long)released,
                (unsigned long long)timeouts, (unsigned long long)coop_parks,
                (unsigned long long)wakeups);
  return buf;
}

std::ostream& operator<<(std::ostream& os, const LockStats& stats) {
  return os << stats.ToString();
}

std::string LockDebugSnapshot::ToString() const {
  std::string out;
  out += "held locks (" + std::to_string(held.size()) + "):\n";
  for (const HeldEntry& h : held) {
    out += "  T" + std::to_string(h.txn) + " holds " +
           std::string(LockModeName(h.mode)) + " on " + h.what + "\n";
  }
  out += "waiters (" + std::to_string(waiters.size()) + "):\n";
  for (const WaiterEntry& w : waiters) {
    out += "  T" + std::to_string(w.txn) + " wants " +
           std::string(LockModeName(w.mode)) + " on " + w.what +
           (w.cooperative ? " [parked session]" : " [blocked thread]") + "\n";
  }
  out += "waits-for edges (" + std::to_string(waits_for.size()) + "):\n";
  for (const auto& e : waits_for) {
    out += "  T" + std::to_string(e.first) + " -> T" +
           std::to_string(e.second) + "\n";
  }
  return out;
}

LockSpec LockSpec::ReadItem(TxnId t, ItemId item, std::optional<Row> row) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kShared;
  s.is_item = true;
  s.item = std::move(item);
  s.before_image = std::move(row);
  return s;
}

LockSpec LockSpec::WriteItem(TxnId t, ItemId item, std::optional<Row> before,
                             std::optional<Row> after) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kExclusive;
  s.is_item = true;
  s.item = std::move(item);
  s.before_image = std::move(before);
  s.after_image = std::move(after);
  return s;
}

LockSpec LockSpec::ReadPredicate(TxnId t, Predicate p) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kShared;
  s.is_item = false;
  s.pred = std::move(p);
  return s;
}

LockSpec LockSpec::WritePredicate(TxnId t, Predicate p) {
  LockSpec s = ReadPredicate(t, std::move(p));
  s.mode = LockMode::kExclusive;
  return s;
}

namespace {

// Does the predicate lock `pred_side` cover the item lock `item_side`?
// Image-precise when images exist, conservative otherwise.
bool PredicateCoversItem(const LockSpec& pred_side, const LockSpec& item_side) {
  const Predicate& p = *pred_side.pred;
  bool any_image = false;
  if (item_side.before_image.has_value()) {
    any_image = true;
    if (p.Covers(item_side.item, *item_side.before_image)) return true;
  }
  if (item_side.after_image.has_value()) {
    any_image = true;
    if (p.Covers(item_side.item, *item_side.after_image)) return true;
  }
  if (any_image) return false;
  // No images (e.g. a read of an absent row): fall back to structural
  // overlap between the predicate and "key = item".
  return p.MayOverlap(Predicate::KeyIs(item_side.item));
}

void AddUnique(std::vector<TxnId>& out, TxnId t) {
  if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
}

}  // namespace

LockManager::LockManager(size_t stripes) {
  stripes = std::max<size_t>(1, std::min(stripes, kMaxStripes));
  buckets_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
}

bool LockManager::SetStripeCount(size_t stripes) {
  stripes = std::max<size_t>(1, std::min(stripes, kMaxStripes));
  {
    auto all = LockAllBuckets();
    std::lock_guard<std::mutex> gl(graph_mu_);
    for (const auto& b : buckets_) {
      if (!b->held.empty() || b->waiters != 0) return false;
    }
    if (!pred_held_.empty() || !waiting_.empty()) return false;
  }
  // Idle (and, per contract, quiescent: configuration happens before any
  // session starts), so rebuilding the stripe vector is safe.
  if (stripes == buckets_.size()) return true;
  std::vector<std::unique_ptr<Bucket>> next;
  next.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) next.push_back(std::make_unique<Bucket>());
  buckets_ = std::move(next);
  return true;
}

void LockManager::SetWakeupHook(std::function<void(TxnId)> hook) {
  // Quiescent-configuration contract (see the header): grabbing every
  // latch is belt-and-braces so a hook swap can never tear a concurrent
  // release's probe/invoke pair.
  auto all = LockAllBuckets();
  std::lock_guard<std::mutex> gl(graph_mu_);
  wakeup_hook_ = std::move(hook);
  has_wakeup_hook_.store(static_cast<bool>(wakeup_hook_),
                         std::memory_order_release);
}

bool LockManager::StickyMatches(const StickySeq& s, const LockSpec& spec) {
  if (s.is_item != spec.is_item || s.mode != spec.mode) return false;
  return spec.is_item ? s.key == spec.item : s.key == spec.pred->ToString();
}

void LockManager::RegisterCoopWaiterLocked(const LockSpec& spec) {
  DeregisterCoopLocked(spec.txn);  // at most one live registration per txn
  // Seniority is per request, not per registration: a woken waiter that
  // still conflicts (one of several S holders released) re-registers with
  // its original seq, keeping its FIFO place instead of queueing behind
  // arrivals that came while it was being woken.
  uint64_t seq;
  auto sticky = coop_sticky_.find(spec.txn);
  if (sticky != coop_sticky_.end() && StickyMatches(sticky->second, spec)) {
    seq = sticky->second.seq;
  } else {
    seq = ++coop_next_seq_;
    coop_sticky_[spec.txn] =
        StickySeq{seq, spec.is_item, spec.mode,
                  spec.is_item ? spec.item : spec.pred->ToString()};
  }
  coop_seq_[spec.txn] = seq;
  coop_waiter_count_.fetch_add(1, std::memory_order_relaxed);
  // Deadlock detection recomputes a registered waiter's edges live from
  // this spec, exactly like a thread parked inside Acquire.
  waiting_[spec.txn] = spec;
  // Drop the txn's previous entries from the target list first: a reused
  // seq would otherwise revive the stale entry of the last episode (same
  // txn, same seq passes the liveness check) and wake the session twice.
  // Same-request re-registration always targets the same list, so the
  // other lists need no sweep — their entries carry retired seqs.
  auto& list = spec.is_item ? buckets_[BucketOf(spec.item)]->coop_waiters
                            : coop_pred_waiters_;
  list.erase(
      std::remove_if(list.begin(), list.end(),
                     [&](const CoopWaiter& w) { return w.txn == spec.txn; }),
      list.end());
  list.push_back(
      CoopWaiter{spec.txn, seq, spec, std::chrono::steady_clock::now()});
  stat_coop_parks_.fetch_add(1, std::memory_order_relaxed);
}

void LockManager::DeregisterCoopLocked(TxnId txn) {
  auto it = coop_seq_.find(txn);
  if (it == coop_seq_.end()) return;
  coop_seq_.erase(it);
  coop_waiter_count_.fetch_sub(1, std::memory_order_relaxed);
  waiting_.erase(txn);
  EraseEdgesLocked(txn);
}

void LockManager::CollectCoopWakeupsLocked(const LockSpec& released,
                                           Bucket* bucket,
                                           std::vector<TxnId>& out) {
  // Prune stale entries, then gather live waiters the released lock may
  // have been blocking.
  std::vector<const CoopWaiter*> cand;
  auto scan = [&](std::vector<CoopWaiter>& list) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const CoopWaiter& w) {
                                auto live = coop_seq_.find(w.txn);
                                return live == coop_seq_.end() ||
                                       live->second != w.seq;
                              }),
               list.end());
    for (const CoopWaiter& w : list) {
      if (SpecsConflict(released, w.spec)) cand.push_back(&w);
    }
  };
  if (bucket != nullptr) {
    scan(bucket->coop_waiters);
  } else {
    for (const auto& b : buckets_) scan(b->coop_waiters);
  }
  scan(coop_pred_waiters_);
  if (cand.empty()) return;
  std::sort(cand.begin(), cand.end(),
            [](const CoopWaiter* a, const CoopWaiter* b) {
              return a->seq < b->seq;
            });
  // FIFO per conflict group: waiters on the same item form one queue —
  // wake its head and, when the head wants S, the later S waiters up to
  // the first X (readers admit together; a writer drains alone).  The
  // suppressed rest keep their registrations: the woken head either
  // acquires the item (its later release resumes the queue) or hits a
  // deadlock verdict, which implies a surviving conflicting holder whose
  // release does.  Predicate waiters are each their own group — a
  // predicate's conflicts span items, so suppressing one behind a waiter
  // on a single item could strand it.
  std::vector<const CoopWaiter*> woken;
  std::map<ItemId, bool> group_closed;  // item -> stop admitting
  for (const CoopWaiter* w : cand) {
    if (!w->spec.is_item) {
      woken.push_back(w);
      continue;
    }
    auto [it, is_head] = group_closed.emplace(w->spec.item, false);
    if (is_head) {
      woken.push_back(w);
      it->second = w->spec.mode == LockMode::kExclusive;
    } else if (!it->second) {
      if (w->spec.mode == LockMode::kShared) {
        woken.push_back(w);
      } else {
        it->second = true;
      }
    }
  }
  const bool timing = obs::MetricsEnabled() && !woken.empty();
  const auto now = timing ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  for (const CoopWaiter* w : woken) {
    if (timing) {
      park_wakeup_hist_.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                w->parked_at)
              .count()));
    }
    TxnId t = w->txn;
    DeregisterCoopLocked(t);  // leaves the lists untouched; w stays valid
    out.push_back(t);
  }
}

void LockManager::NotifyCoopWaiters(const std::vector<TxnId>& wake) {
  if (wake.empty()) return;
  stat_wakeups_.fetch_add(wake.size(), std::memory_order_relaxed);
  for (TxnId t : wake) wakeup_hook_(t);
}

size_t LockManager::BucketOf(const ItemId& id) const {
  // FNV-1a over the item bytes, then a splitmix64-style finalizer.  The
  // finalizer matters: ShardRouter partitions by the same FNV-1a hash
  // (shard/shard_router.h — not reused here because lock/ sits below
  // shard/ in the layering), so taking `fnv % stripes` would leave a
  // shard's lock manager using only the buckets congruent to its own
  // shard index — the mix decouples the two moduli.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<size_t>(h % buckets_.size());
}

std::vector<std::unique_lock<std::mutex>> LockManager::LockAllBuckets() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(buckets_.size());
  for (const auto& b : buckets_) locks.emplace_back(b->mu);
  return locks;
}

bool LockManager::SpecsConflict(const LockSpec& held,
                                const LockSpec& want) const {
  if (held.txn == want.txn) return false;
  if (held.mode == LockMode::kShared && want.mode == LockMode::kShared) {
    return false;
  }
  if (held.is_item && want.is_item) return held.item == want.item;
  if (!held.is_item && !want.is_item) {
    return held.pred->MayOverlap(*want.pred);
  }
  const LockSpec& pred_side = held.is_item ? want : held;
  const LockSpec& item_side = held.is_item ? held : want;
  return PredicateCoversItem(pred_side, item_side);
}

std::vector<TxnId> LockManager::BlockersBucketLocked(
    const Bucket& b, const LockSpec& spec) const {
  std::vector<TxnId> out;
  for (const auto& h : b.held) {
    if (SpecsConflict(h.spec, spec)) AddUnique(out, h.spec.txn);
  }
  // The predicate side table is safely readable under this bucket's
  // latch: any mutator holds every bucket latch, including this one.
  for (const auto& h : pred_held_) {
    if (SpecsConflict(h.spec, spec)) AddUnique(out, h.spec.txn);
  }
  return out;
}

std::vector<TxnId> LockManager::BlockersGlobalLocked(
    const LockSpec& spec) const {
  if (spec.is_item) {
    // Item locks on the same item always share a bucket, so the global
    // view still only needs that bucket plus the predicate table.
    return BlockersBucketLocked(*buckets_[BucketOf(spec.item)], spec);
  }
  std::vector<TxnId> out;
  for (const auto& b : buckets_) {
    for (const auto& h : b->held) {
      if (SpecsConflict(h.spec, spec)) AddUnique(out, h.spec.txn);
    }
  }
  for (const auto& h : pred_held_) {
    if (SpecsConflict(h.spec, spec)) AddUnique(out, h.spec.txn);
  }
  return out;
}

bool LockManager::WouldDeadlockLocked(TxnId requester) const {
  // DFS from the requester; a path back to the requester is a cycle that
  // the newly recorded edges just closed.  Parked waiters' edges are
  // recomputed live from their waiting spec (legal here: the global view
  // holds every bucket latch) — their waits_for_ entries can be stale
  // (recorded before releases that happened while they slept).
  std::set<TxnId> visited;
  auto successors = [&](TxnId u) -> std::set<TxnId> {
    auto w = waiting_.find(u);
    if (w != waiting_.end()) {
      std::vector<TxnId> live = BlockersGlobalLocked(w->second);
      return std::set<TxnId>(live.begin(), live.end());
    }
    auto it = waits_for_.find(u);
    return it == waits_for_.end() ? std::set<TxnId>{} : it->second;
  };
  std::function<bool(TxnId)> reaches = [&](TxnId u) -> bool {
    for (TxnId v : successors(u)) {
      if (v == requester) return true;
      if (visited.insert(v).second && reaches(v)) return true;
    }
    return false;
  };
  return reaches(requester);
}

void LockManager::EraseEdgesLocked(TxnId txn) {
  if (waits_for_.erase(txn) != 0) {
    edge_txns_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void LockManager::RecordEdgesLocked(TxnId txn,
                                    const std::vector<TxnId>& blockers) {
  EraseEdgesLocked(txn);
  auto& targets = waits_for_[txn];
  for (TxnId b : blockers) targets.insert(b);
  edge_txns_.fetch_add(1, std::memory_order_relaxed);
}

void LockManager::MaybeClearStaleEdges(TxnId txn) {
  // Only this transaction's own (single) driving thread records its
  // edges, so a relaxed zero here proves we have none — the conflict-free
  // hot path never touches the graph mutex.
  if (edge_txns_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> gl(graph_mu_);
  EraseEdgesLocked(txn);
}

LockHandle LockManager::GrantItemLocked(size_t bi, const LockSpec& spec) {
  LockHandle h = (next_seq_.fetch_add(1, std::memory_order_relaxed)
                  << kBucketTagBits) |
                 (static_cast<LockHandle>(bi) + 1);
  buckets_[bi]->held.push_back(HeldLock{h, spec});
  stat_acquired_.fetch_add(1, std::memory_order_relaxed);
  return h;
}

LockHandle LockManager::GrantPredLocked(const LockSpec& spec) {
  LockHandle h = (next_seq_.fetch_add(1, std::memory_order_relaxed)
                  << kBucketTagBits) |
                 kPredTag;
  pred_held_.push_back(HeldLock{h, spec});
  stat_acquired_.fetch_add(1, std::memory_order_relaxed);
  return h;
}

std::string LockManager::Describe(const LockSpec& spec) {
  return spec.is_item ? "item '" + spec.item + "'"
                      : "predicate " + spec.pred->ToString();
}

std::string LockManager::JoinTxns(const std::vector<TxnId>& txns) {
  std::string out;
  for (TxnId t : txns) out += " T" + std::to_string(t);
  return out;
}

Result<LockHandle> LockManager::TryAcquire(const LockSpec& spec) {
  if (spec.is_item) {
    // Fast path: one bucket latch, one bucket scan (plus the — normally
    // empty — predicate table).
    const size_t bi = BucketOf(spec.item);
    std::unique_lock<std::mutex> bl(buckets_[bi]->mu);
    std::vector<TxnId> blockers = BlockersBucketLocked(*buckets_[bi], spec);
    if (blockers.empty()) {
      MaybeClearStaleEdges(spec.txn);  // fresh picture: drop stale edges
      return GrantItemLocked(bi, spec);
    }
  }
  // Conflict (or predicate spec): take the global view so the conflict
  // decision, the recorded edges, and deadlock detection are one atomic
  // picture.
  auto all = LockAllBuckets();
  std::lock_guard<std::mutex> gl(graph_mu_);
  std::vector<TxnId> blockers = BlockersGlobalLocked(spec);
  if (blockers.empty()) {
    if (coop_waiter_count_.load(std::memory_order_relaxed) > 0) {
      DeregisterCoopLocked(spec.txn);  // re-run raced the wakeup: cancel
    }
    coop_sticky_.erase(spec.txn);  // request granted: seniority retired
    EraseEdgesLocked(spec.txn);
    return spec.is_item ? GrantItemLocked(BucketOf(spec.item), spec)
                        : GrantPredLocked(spec);
  }
  // Register for a wakeup BEFORE recording edges: registration clears any
  // previous registration, and that cleanup also erases the txn's edges.
  // Registration and the WouldBlock answer happen under the same latches,
  // so the conflicting holders cannot release in between — the wakeup
  // cannot be lost.
  const bool coop_hook = has_wakeup_hook_.load(std::memory_order_acquire);
  if (coop_hook) RegisterCoopWaiterLocked(spec);
  RecordEdgesLocked(spec.txn, blockers);
  if (WouldDeadlockLocked(spec.txn)) {
    stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
    if (coop_hook) DeregisterCoopLocked(spec.txn);
    EraseEdgesLocked(spec.txn);
    return Status::Deadlock("deadlock: T" + std::to_string(spec.txn) +
                            " waits on" + JoinTxns(blockers));
  }
  stat_blocked_.fetch_add(1, std::memory_order_relaxed);
  return Status::WouldBlock(Describe(spec) + " locked by" + JoinTxns(blockers));
}

Result<LockHandle> LockManager::Acquire(const LockSpec& spec,
                                        std::chrono::milliseconds timeout,
                                        std::chrono::milliseconds recheck) {
  // Waiters sleep in bounded slices on their bucket's condition variable:
  // every relevant release notifies it, and the slice bound guarantees the
  // global deadlock probe re-runs even if a wake-up is lost to scheduling,
  // so a cycle formed while this thread slept (its recorded edges going
  // stale) can never hang the run.
  const std::chrono::milliseconds kRecheckSlice =
      recheck.count() > 0 ? recheck : std::chrono::milliseconds(50);
  const auto deadline = std::chrono::steady_clock::now() + timeout;

  // Predicate waiters park on bucket 0 by convention; see the class
  // comment for the (slice-bounded) notification contract.
  const size_t bi = spec.is_item ? BucketOf(spec.item) : 0;
  Bucket& park = *buckets_[bi];
  bool counted_wait = false;
  bool registered = false;
  // Set when the first conflict is seen; the wait histogram records the
  // whole episode (sleeps + rechecks) once, on whatever exit ends it.
  std::chrono::steady_clock::time_point wait_start{};
  auto record_wait = [&] {
    if (!counted_wait || !obs::MetricsEnabled()) return;
    wait_hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count()));
  };

  // Requires graph_mu_; undoes the waiter registration and edges.
  auto deregister_locked = [&] {
    if (registered) {
      waiting_.erase(spec.txn);
      if (!spec.is_item) pred_waiters_.fetch_sub(1, std::memory_order_relaxed);
      registered = false;
    }
    EraseEdgesLocked(spec.txn);
  };

  std::unique_lock<std::mutex> bl(park.mu, std::defer_lock);
  for (;;) {
    if (spec.is_item) {
      // Bucket-local attempt (reused with the latch still held right
      // after a wake-up).
      if (!bl.owns_lock()) bl.lock();
      std::vector<TxnId> blockers = BlockersBucketLocked(park, spec);
      if (blockers.empty()) {
        if (registered ||
            edge_txns_.load(std::memory_order_relaxed) > 0) {
          std::lock_guard<std::mutex> gl(graph_mu_);
          deregister_locked();
        }
        record_wait();
        return GrantItemLocked(bi, spec);
      }
      bl.unlock();
    }

    // Conflict: global view for the grant/edges/deadlock decision.
    auto all = LockAllBuckets();
    std::unique_lock<std::mutex> gl(graph_mu_);
    std::vector<TxnId> blockers = BlockersGlobalLocked(spec);
    if (blockers.empty()) {
      deregister_locked();
      record_wait();
      return spec.is_item ? GrantItemLocked(bi, spec) : GrantPredLocked(spec);
    }
    if (!registered) {
      waiting_[spec.txn] = spec;  // deadlock detection reads our edges live
      if (!spec.is_item) pred_waiters_.fetch_add(1, std::memory_order_relaxed);
      registered = true;
    }
    RecordEdgesLocked(spec.txn, blockers);
    if (WouldDeadlockLocked(spec.txn)) {
      stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      deregister_locked();
      record_wait();
      return Status::Deadlock("deadlock: T" + std::to_string(spec.txn) +
                              " waits on" + JoinTxns(blockers));
    }
    if (!counted_wait) {
      stat_blocked_.fetch_add(1, std::memory_order_relaxed);
      counted_wait = true;  // one wait episode, however many re-checks
      wait_start = std::chrono::steady_clock::now();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      stat_timeouts_.fetch_add(1, std::memory_order_relaxed);
      deregister_locked();
      record_wait();
      return Status::WouldBlock(
          "lock wait timeout (" + std::to_string(timeout.count()) +
          "ms): " + Describe(spec) + " locked by" + JoinTxns(blockers));
    }

    // Park on the bucket: keep its latch, drop everything else (graph
    // first, then the other buckets — unlock order is unconstrained).
    ++park.waiters;
    gl.unlock();
    bl = std::move(all[bi]);
    for (auto& l : all) {
      if (l.owns_lock()) l.unlock();
    }
    park.cv.wait_for(bl, std::min<std::chrono::steady_clock::duration>(
                             deadline - now, kRecheckSlice));
    --park.waiters;
    if (!spec.is_item) bl.unlock();  // predicate retry goes straight global
  }
}

void LockManager::Release(LockHandle handle) {
  if (handle == 0) return;
  const uint64_t tag = handle & ((1u << kBucketTagBits) - 1);
  bool erased = false;
  std::vector<TxnId> wake;
  if (tag == kPredTag) {
    // Predicate release: side-table mutation needs the global view; every
    // bucket's waiters might have been blocked by it.
    auto all = LockAllBuckets();
    auto it = std::find_if(
        pred_held_.begin(), pred_held_.end(),
        [&](const HeldLock& h) { return h.handle == handle; });
    if (it != pred_held_.end()) {
      LockSpec released = std::move(it->spec);
      pred_held_.erase(it);
      erased = true;
      for (const auto& b : buckets_) {
        if (b->waiters > 0) b->cv.notify_all();
      }
      if (coop_waiter_count_.load(std::memory_order_relaxed) > 0) {
        std::lock_guard<std::mutex> gl(graph_mu_);
        CollectCoopWakeupsLocked(released, nullptr, wake);
      }
    }
  } else {
    const size_t bi = static_cast<size_t>(tag) - 1;
    if (bi >= buckets_.size()) return;
    Bucket& b = *buckets_[bi];
    std::lock_guard<std::mutex> bl(b.mu);
    auto it = std::find_if(b.held.begin(), b.held.end(), [&](const HeldLock& h) {
      return h.handle == handle;
    });
    if (it != b.held.end()) {
      LockSpec released = std::move(it->spec);
      b.held.erase(it);
      erased = true;
      if (b.waiters > 0) b.cv.notify_all();
      if (coop_waiter_count_.load(std::memory_order_relaxed) > 0) {
        // Bucket-before-graph is the latch order, so this nests cleanly;
        // an item's cooperative waiters all live in this bucket's list,
        // and the (graph-guarded) predicate wait list is scanned too.
        std::lock_guard<std::mutex> gl(graph_mu_);
        CollectCoopWakeupsLocked(released, &b, wake);
      }
    }
  }
  if (erased) {
    stat_released_.fetch_add(1, std::memory_order_relaxed);
    // A parked predicate waiter (on bucket 0) may be blocked by an item
    // lock in any bucket; this unlatched poke can race with its pre-wait
    // window, which the recheck slice bounds.
    if (tag != kPredTag && pred_waiters_.load(std::memory_order_relaxed) > 0) {
      buckets_[0]->cv.notify_all();
    }
  }
  NotifyCoopWaiters(wake);  // outside every lock-table latch
}

void LockManager::ReleaseAll(TxnId txn) {
  size_t erased = 0;
  bool any_pred = false;
  {
    std::lock_guard<std::mutex> bl(buckets_[0]->mu);
    any_pred = !pred_held_.empty();
  }
  std::vector<TxnId> wake;
  // Whether cooperative waiters may need waking.  Re-read under the
  // latches before every erase, never cached across them: a first
  // registration happens under all bucket latches, so a read taken while
  // holding any bucket latch is ordered against it — but a read taken
  // before the latches could miss a waiter that registered in between,
  // dropping its conflicting lock without collecting the wakeup (a
  // hook-driven session would park forever).  Mirrors Release().
  bool coop = false;
  // Hand-rolled compaction (remove_if would need a side-effecting
  // predicate) that also hands back the released specs when cooperative
  // waiters may need waking.
  std::vector<LockSpec> dropped;
  auto erase_from = [&](std::vector<HeldLock>& held) {
    size_t kept = 0;
    for (size_t i = 0; i < held.size(); ++i) {
      if (held[i].spec.txn == txn) {
        if (coop) dropped.push_back(std::move(held[i].spec));
      } else {
        if (kept != i) held[kept] = std::move(held[i]);
        ++kept;
      }
    }
    const size_t n = held.size() - kept;
    held.resize(kept);
    return n;
  };
  if (any_pred) {
    // The transaction may hold predicate locks: take the global view once.
    auto all = LockAllBuckets();
    coop = coop_waiter_count_.load(std::memory_order_relaxed) > 0;
    for (const auto& b : buckets_) {
      size_t n = erase_from(b->held);
      erased += n;
      if (n != 0 && b->waiters > 0) b->cv.notify_all();
    }
    size_t n = erase_from(pred_held_);
    erased += n;
    if (n != 0) {
      for (const auto& b : buckets_) {
        if (b->waiters > 0) b->cv.notify_all();
      }
    }
    if (coop && !dropped.empty()) {
      std::lock_guard<std::mutex> gl(graph_mu_);
      for (const LockSpec& spec : dropped) {
        CollectCoopWakeupsLocked(spec, nullptr, wake);
      }
    }
  } else {
    // Common case (no predicate locks anywhere): one bucket at a time.
    for (const auto& b : buckets_) {
      std::lock_guard<std::mutex> bl(b->mu);
      coop = coop_waiter_count_.load(std::memory_order_relaxed) > 0;
      dropped.clear();
      size_t n = erase_from(b->held);
      erased += n;
      if (n != 0 && b->waiters > 0) b->cv.notify_all();
      if (coop && !dropped.empty()) {
        std::lock_guard<std::mutex> gl(graph_mu_);
        for (const LockSpec& spec : dropped) {
          CollectCoopWakeupsLocked(spec, b.get(), wake);
        }
      }
    }
  }
  stat_released_.fetch_add(erased, std::memory_order_relaxed);
  if (erased != 0 && pred_waiters_.load(std::memory_order_relaxed) > 0) {
    buckets_[0]->cv.notify_all();
  }
  {
    // Clear the transaction's own registration (a parked session being
    // rolled back must not linger in the wait lists), its edges, and edges
    // other transactions recorded against it (they will recompute on their
    // next attempt/recheck).
    std::lock_guard<std::mutex> gl(graph_mu_);
    DeregisterCoopLocked(txn);
    coop_sticky_.erase(txn);
    EraseEdgesLocked(txn);
    for (auto it = waits_for_.begin(); it != waits_for_.end();) {
      it->second.erase(txn);
      if (it->second.empty()) {
        it = waits_for_.erase(it);
        edge_txns_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  NotifyCoopWaiters(wake);  // outside every lock-table latch
}

std::vector<TxnId> LockManager::Blockers(const LockSpec& spec) const {
  auto all = LockAllBuckets();
  return BlockersGlobalLocked(spec);
}

size_t LockManager::HeldCount() const {
  size_t n = 0;
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> bl(b->mu);
    n += b->held.size();
    if (&b == &buckets_.front()) n += pred_held_.size();
  }
  return n;
}

size_t LockManager::HeldCountBy(TxnId txn) const {
  size_t n = 0;
  auto count_in = [&](const std::vector<HeldLock>& held) {
    for (const auto& h : held) n += (h.spec.txn == txn);
  };
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> bl(b->mu);
    count_in(b->held);
    if (&b == &buckets_.front()) count_in(pred_held_);
  }
  return n;
}

void LockManager::RegisterMetrics(obs::MetricsRegistry& reg,
                                  const std::string& prefix) const {
  reg.RegisterGauge(prefix + "acquired", [this] { return stats().acquired; });
  reg.RegisterGauge(prefix + "blocked", [this] { return stats().blocked; });
  reg.RegisterGauge(prefix + "deadlocks",
                    [this] { return stats().deadlocks; });
  reg.RegisterGauge(prefix + "timeouts", [this] { return stats().timeouts; });
  reg.RegisterGauge(prefix + "coop_parks",
                    [this] { return stats().coop_parks; });
  reg.RegisterGauge(prefix + "wakeups", [this] { return stats().wakeups; });
  reg.RegisterHistogram(prefix + "wait_us", &wait_hist_);
  reg.RegisterHistogram(prefix + "park_wakeup_us", &park_wakeup_hist_);
}

LockStats LockManager::stats() const {
  LockStats s;
  s.acquired = stat_acquired_.load(std::memory_order_relaxed);
  s.blocked = stat_blocked_.load(std::memory_order_relaxed);
  s.deadlocks = stat_deadlocks_.load(std::memory_order_relaxed);
  s.released = stat_released_.load(std::memory_order_relaxed);
  s.timeouts = stat_timeouts_.load(std::memory_order_relaxed);
  s.coop_parks = stat_coop_parks_.load(std::memory_order_relaxed);
  s.wakeups = stat_wakeups_.load(std::memory_order_relaxed);
  return s;
}

LockDebugSnapshot LockManager::DebugSnapshot() const {
  // The global view plus the graph mutex: holders, waiters, and edges are
  // one atomic picture — exactly what diagnosing a wedged session needs.
  LockDebugSnapshot snap;
  auto all = LockAllBuckets();
  std::lock_guard<std::mutex> gl(graph_mu_);
  auto add_held = [&](const std::vector<HeldLock>& held) {
    for (const HeldLock& h : held) {
      snap.held.push_back(LockDebugSnapshot::HeldEntry{
          h.spec.txn, h.spec.mode, Describe(h.spec)});
    }
  };
  for (const auto& b : buckets_) add_held(b->held);
  add_held(pred_held_);
  // `waiting_` covers both protocols: threads parked in Acquire and
  // cooperative registrations (RegisterCoopWaiterLocked adds them so
  // deadlock detection sees their edges live).
  for (const auto& [txn, spec] : waiting_) {
    snap.waiters.push_back(LockDebugSnapshot::WaiterEntry{
        txn, spec.mode, Describe(spec), coop_seq_.count(txn) != 0});
  }
  for (const auto& [from, targets] : waits_for_) {
    for (TxnId to : targets) snap.waits_for.emplace_back(from, to);
  }
  return snap;
}

}  // namespace critique
