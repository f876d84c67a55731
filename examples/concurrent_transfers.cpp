// Blocking-mode quickstart: the same Database, driven by four OS threads
// at once.
//
// `ConcurrencyMode::kBlocking` turns lock conflicts into real thread
// waits — parked on the lock manager's FIFO wait list until the
// conflicting release wakes them, with deadlock detection and a lock-wait
// timeout — instead of cooperative `kWouldBlock` answers, so `Execute`
// bodies can be thrown at the database from any number of threads — one
// transaction per thread.  The run below moves money between accounts
// under Snapshot Isolation and under Locking SERIALIZABLE and verifies
// the invariant both levels must keep: the total balance never changes,
// however the OS interleaves the threads.

#include <cstdio>

#include "critique/db/database.h"
#include "critique/workload/parallel_driver.h"
#include "critique/workload/workload.h"

using namespace critique;

namespace {

constexpr uint64_t kAccounts = 16;

int RunLevel(IsolationLevel level) {
  DbOptions opts(level);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.lock_wait_timeout = std::chrono::milliseconds(2000);
  Database db(opts);

  WorkloadOptions wopts;
  wopts.num_items = kAccounts;
  wopts.zipf_theta = 0.7;  // some accounts are hot
  WorkloadGenerator gen(wopts);
  if (!gen.LoadInitial(db).ok()) return 1;
  const int64_t initial = WorkloadGenerator::TotalBalance(db, kAccounts);

  ParallelDriverOptions dopts;
  dopts.threads = 4;
  dopts.txns_per_thread = 50;
  ParallelDriver driver(db, dopts);
  ParallelRunStats run = driver.Run([&gen](Transaction& txn, Rng& rng) {
    return gen.ApplyTransferTxn(txn, rng, /*amount=*/5);
  });

  const int64_t final_sum = WorkloadGenerator::TotalBalance(db, kAccounts);
  std::printf("%-34s %s\n", db.name().c_str(), run.ToString().c_str());
  std::printf("%-34s total balance %lld -> %lld (%s)\n", "",
              static_cast<long long>(initial),
              static_cast<long long>(final_sum),
              final_sum == initial ? "preserved" : "LOST UPDATES");
  return final_sum == initial ? 0 : 1;
}

}  // namespace

int main() {
  std::printf("==== Concurrent transfers: 4 threads, blocking mode ====\n\n");
  int rc = 0;
  rc |= RunLevel(IsolationLevel::kSnapshotIsolation);
  rc |= RunLevel(IsolationLevel::kSerializable);
  std::printf("\n%s\n", rc == 0 ? "Invariant held at both levels."
                                : "Invariant violated!");
  return rc;
}
