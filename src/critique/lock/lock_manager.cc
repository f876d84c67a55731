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
      if (!b->held.empty()) return false;
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

void LockManager::RegisterWaiterLocked(const LockSpec& spec,
                                       std::optional<std::promise<void>> park) {
  // Seniority is per request, not per registration: a woken waiter that
  // still conflicts (one of several S holders released) re-registers with
  // its original seq, keeping its FIFO place instead of queueing behind
  // arrivals that came while it was being woken.
  uint64_t seq;
  auto sticky = sticky_.find(spec.txn);
  if (sticky != sticky_.end() && StickyMatches(sticky->second, spec)) {
    seq = sticky->second.seq;
  } else {
    seq = ++next_waiter_seq_;
    sticky_[spec.txn] =
        StickySeq{seq, spec.is_item, spec.mode,
                  spec.is_item ? spec.item : spec.pred->ToString()};
  }
  if (!park) stat_coop_parks_.fetch_add(1, std::memory_order_relaxed);
  waiting_[spec.txn] = Registration{seq, spec, std::chrono::steady_clock::now(),
                                    std::move(park)};
  RegisteredCount(spec).fetch_add(1, std::memory_order_relaxed);
  // Drop the txn's previous entries from the target list first: a reused
  // seq would otherwise revive the stale entry of the last episode (same
  // txn, same seq passes the liveness check) and wake the waiter twice.
  // Same-request re-registration always targets the same list, so the
  // other lists need no sweep — their entries carry retired seqs.
  auto& list = spec.is_item ? buckets_[BucketOf(spec.item)]->waiters
                            : pred_waiters_;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const Waiter& w) { return w.txn == spec.txn; }),
             list.end());
  list.push_back(Waiter{spec.txn, seq});
}

void LockManager::DeregisterWaiterLocked(TxnId txn) {
  auto it = waiting_.find(txn);
  if (it == waiting_.end()) return;
  RegisteredCount(it->second.spec).fetch_sub(1, std::memory_order_relaxed);
  waiting_.erase(it);
  EraseEdgesLocked(txn);
}

std::atomic<int>& LockManager::RegisteredCount(const LockSpec& spec) {
  return spec.is_item ? buckets_[BucketOf(spec.item)]->registered
                      : pred_registered_;
}

bool LockManager::MayHaveWaitersLocked(const Bucket* bucket) const {
  auto any = [](const std::atomic<int>& n) {
    return n.load(std::memory_order_relaxed) > 0;
  };
  if (any(pred_registered_)) return true;
  if (bucket != nullptr) return any(bucket->registered);
  return std::any_of(buckets_.begin(), buckets_.end(),
                     [&](const auto& b) { return any(b->registered); });
}

void LockManager::CollectWakeupsLocked(const LockSpec& released,
                                       WakeList& out) {
  // Prune stale entries, then gather the live registrations the released
  // lock may have been blocking.
  using Live = std::pair<const TxnId, Registration>;
  std::vector<Live*> cand;
  auto scan = [&](std::vector<Waiter>& list) {
    size_t kept = 0;
    for (const Waiter& w : list) {
      auto live = waiting_.find(w.txn);
      if (live == waiting_.end() || live->second.seq != w.seq) continue;
      list[kept++] = w;
      if (SpecsConflict(released, live->second.spec)) cand.push_back(&*live);
    }
    list.resize(kept);
  };
  if (released.is_item) {
    scan(buckets_[BucketOf(released.item)]->waiters);
  } else {
    for (const auto& b : buckets_) scan(b->waiters);
  }
  scan(pred_waiters_);
  if (cand.empty()) return;
  std::sort(cand.begin(), cand.end(), [](const Live* a, const Live* b) {
    return a->second.seq < b->second.seq;
  });
  // FIFO per conflict group: waiters on the same item form one queue —
  // wake its head and, when the head wants S, the later S waiters up to
  // the first X (readers admit together; a writer drains alone).  The
  // suppressed rest keep their registrations: the woken head either
  // acquires the item (its later release resumes the queue) or hits a
  // deadlock verdict or a timeout, which implies a surviving conflicting
  // holder whose release does.  Predicate waiters are each their own
  // group — a predicate's conflicts span items, so suppressing one behind
  // a waiter on a single item could strand it.
  std::vector<Live*> woken;
  std::map<ItemId, bool> group_closed;  // item -> stop admitting
  for (Live* w : cand) {
    const LockSpec& spec = w->second.spec;
    if (!spec.is_item) {
      woken.push_back(w);
      continue;
    }
    auto [it, is_head] = group_closed.emplace(spec.item, false);
    if (is_head) {
      woken.push_back(w);
      it->second = spec.mode == LockMode::kExclusive;
    } else if (!it->second) {
      if (spec.mode == LockMode::kShared) {
        woken.push_back(w);
      } else {
        it->second = true;
      }
    }
  }
  const bool timing = obs::MetricsEnabled();
  const auto now = timing ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  for (Live* w : woken) {
    const TxnId t = w->first;
    Registration& reg = w->second;
    if (reg.park) {
      out.threads.push_back(std::move(*reg.park));
    } else {
      if (timing) {
        park_wakeup_hist_.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - reg.parked_at)
                .count()));
      }
      out.sessions.push_back(t);
    }
    DeregisterWaiterLocked(t);  // erases *w only; the rest stay valid
  }
}

void LockManager::NotifyWaiters(WakeList& wake) {
  for (std::promise<void>& p : wake.threads) p.set_value();
  if (wake.sessions.empty()) return;
  stat_wakeups_.fetch_add(wake.sessions.size(), std::memory_order_relaxed);
  for (TxnId t : wake.sessions) wakeup_hook_(t);
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
  // the newly recorded edges just closed.  Registered waiters' edges are
  // recomputed live from their waiting spec (legal here: the global view
  // holds every bucket latch) — their waits_for_ entries can be stale
  // (recorded before releases or grants that happened while they slept).
  std::set<TxnId> visited;
  auto successors = [&](TxnId u) -> std::set<TxnId> {
    auto w = waiting_.find(u);
    if (w != waiting_.end()) {
      std::vector<TxnId> live = BlockersGlobalLocked(w->second.spec);
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

Result<LockHandle> LockManager::AcquireOrRegister(const LockSpec& spec,
                                                  std::future<void>* park) {
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
  // A registration left from this txn's previous attempt (a cooperative
  // re-run that raced its wakeup) is void: this call decides afresh, and
  // the probe below must not read the old request's edges.
  DeregisterWaiterLocked(spec.txn);
  if (blockers.empty()) {
    sticky_.erase(spec.txn);  // request granted: seniority retired
    EraseEdgesLocked(spec.txn);
    return spec.is_item ? GrantItemLocked(BucketOf(spec.item), spec)
                        : GrantPredLocked(spec);
  }
  RecordEdgesLocked(spec.txn, blockers);
  if (WouldDeadlockLocked(spec.txn)) {
    stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
    EraseEdgesLocked(spec.txn);
    return Status::Deadlock("deadlock: T" + std::to_string(spec.txn) +
                            " waits on" + JoinTxns(blockers));
  }
  // Registration and the WouldBlock answer happen under the same latches,
  // so the conflicting holders cannot release in between — the wakeup
  // cannot be lost.
  if (park != nullptr) {
    std::promise<void> slot;
    *park = slot.get_future();
    RegisterWaiterLocked(spec, std::move(slot));
  } else if (has_wakeup_hook_.load(std::memory_order_acquire)) {
    RegisterWaiterLocked(spec, std::nullopt);
  }
  return Status::WouldBlock(Describe(spec) + " locked by" + JoinTxns(blockers));
}

Result<LockHandle> LockManager::TryAcquire(const LockSpec& spec) {
  Result<LockHandle> r = AcquireOrRegister(spec, nullptr);
  if (r.status().IsWouldBlock()) {
    stat_blocked_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

Result<LockHandle> LockManager::Acquire(const LockSpec& spec,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Set at the first park; the wait histogram records the whole episode
  // (every park and retry) once, on whatever exit ends it.
  std::optional<std::chrono::steady_clock::time_point> wait_start;
  auto finish = [&](Result<LockHandle> r) {
    if (wait_start && obs::MetricsEnabled()) {
      wait_hist_.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - *wait_start)
              .count()));
    }
    return r;
  };
  for (;;) {
    std::future<void> woken;
    Result<LockHandle> r = AcquireOrRegister(spec, &woken);
    if (!woken.valid()) return finish(std::move(r));  // granted or deadlock
    if (!wait_start) {
      stat_blocked_.fetch_add(1, std::memory_order_relaxed);
      wait_start = std::chrono::steady_clock::now();
    }
    if (woken.wait_until(deadline) == std::future_status::ready) continue;
    std::lock_guard<std::mutex> gl(graph_mu_);
    // Only this thread registers spec.txn, so a registration still present
    // is this episode's: nobody collected it, and the wait is over.
    // Otherwise a release collected it while the timer fired — its signal
    // is on the way, and the woken waiter must retry to keep the queue
    // moving.
    if (waiting_.count(spec.txn) == 0) continue;
    DeregisterWaiterLocked(spec.txn);
    stat_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return finish(Status::WouldBlock("lock wait timeout (" +
                                     std::to_string(timeout.count()) +
                                     "ms): " + r.status().message()));
  }
}

void LockManager::Release(LockHandle handle) {
  if (handle == 0) return;
  const uint64_t tag = handle & ((1u << kBucketTagBits) - 1);
  std::optional<LockSpec> released;
  bool any_waiters = false;
  // `bucket` is the held list's bucket, nullptr for the predicate table.
  auto take = [&](std::vector<HeldLock>& held, const Bucket* bucket) {
    auto it = std::find_if(held.begin(), held.end(), [&](const HeldLock& h) {
      return h.handle == handle;
    });
    if (it == held.end()) return;
    released = std::move(it->spec);
    held.erase(it);
    any_waiters = MayHaveWaitersLocked(bucket);
  };
  if (tag == kPredTag) {
    // Predicate release: side-table mutation needs the global view.
    auto all = LockAllBuckets();
    take(pred_held_, nullptr);
  } else {
    const size_t bi = static_cast<size_t>(tag) - 1;
    if (bi >= buckets_.size()) return;
    std::lock_guard<std::mutex> bl(buckets_[bi]->mu);
    take(buckets_[bi]->held, buckets_[bi].get());
  }
  if (!released) return;
  stat_released_.fetch_add(1, std::memory_order_relaxed);
  if (!any_waiters) return;
  WakeList wake;
  {
    std::lock_guard<std::mutex> gl(graph_mu_);
    CollectWakeupsLocked(*released, wake);
  }
  NotifyWaiters(wake);  // outside every lock-table latch
}

void LockManager::ReleaseAll(TxnId txn) {
  bool any_pred = false;
  {
    std::lock_guard<std::mutex> bl(buckets_[0]->mu);
    any_pred = !pred_held_.empty();
  }
  // The dropped specs, kept when waiters may need waking.  Whether they
  // may is read under the latch of each erase, never cached across
  // latches (see MayHaveWaitersLocked).  Mirrors Release().
  std::vector<LockSpec> dropped;
  // Hand-rolled compaction (remove_if would need a side-effecting
  // predicate); `bucket` as in Release().
  auto erase_from = [&](std::vector<HeldLock>& held, const Bucket* bucket) {
    const bool keep = MayHaveWaitersLocked(bucket);
    size_t kept = 0;
    for (size_t i = 0; i < held.size(); ++i) {
      if (held[i].spec.txn == txn) {
        if (keep) dropped.push_back(std::move(held[i].spec));
      } else {
        if (kept != i) held[kept] = std::move(held[i]);
        ++kept;
      }
    }
    const size_t n = held.size() - kept;
    held.resize(kept);
    return n;
  };
  size_t erased = 0;
  if (any_pred) {
    // The transaction may hold predicate locks: take the global view once.
    auto all = LockAllBuckets();
    for (const auto& b : buckets_) erased += erase_from(b->held, b.get());
    erased += erase_from(pred_held_, nullptr);
  } else {
    // Common case (no predicate locks anywhere): one bucket at a time.
    for (const auto& b : buckets_) {
      std::lock_guard<std::mutex> bl(b->mu);
      erased += erase_from(b->held, b.get());
    }
  }
  stat_released_.fetch_add(erased, std::memory_order_relaxed);
  WakeList wake;
  {
    // Wake the waiters the dropped locks blocked, then clear the
    // transaction's own registration (a parked session being rolled back
    // must not linger in the wait lists), its edges, and edges other
    // transactions recorded against it (they will recompute on their next
    // attempt).
    std::lock_guard<std::mutex> gl(graph_mu_);
    for (const LockSpec& spec : dropped) CollectWakeupsLocked(spec, wake);
    DeregisterWaiterLocked(txn);
    sticky_.erase(txn);
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
  NotifyWaiters(wake);  // outside every lock-table latch
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
  // `waiting_` holds both kinds of registration; the park slot tells a
  // thread parked in Acquire from a session waiting on the hook.
  for (const auto& [txn, reg] : waiting_) {
    snap.waiters.push_back(LockDebugSnapshot::WaiterEntry{
        txn, reg.spec.mode, Describe(reg.spec), !reg.park.has_value()});
  }
  for (const auto& [from, targets] : waits_for_) {
    for (TxnId to : targets) snap.waits_for.emplace_back(from, to);
  }
  return snap;
}

}  // namespace critique
