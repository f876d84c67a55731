// Time travel under Snapshot Isolation (Section 4.2): "Snapshot Isolation
// gives the freedom to run transactions with very old timestamps, thereby
// allowing them to do time travel ... while never blocking or being
// blocked by writes."
//
// A ledger receives a series of deposits; historical read-only
// transactions audit the balance as of earlier moments, concurrently with
// live updates; an old-timestamp *writer* demonstrates the inevitable
// First-Committer-Wins abort; garbage collection then reclaims versions no
// live snapshot needs.
//
// Build & run:  ./build/example_time_travel

#include <cstdio>

#include "critique/db/database.h"
#include "critique/engine/si_engine.h"

using namespace critique;

int main() {
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("ledger", Value(0));

  // A year of deposits, remembering the timestamp after each quarter.
  Timestamp quarter_ts[4];
  for (int quarter = 0; quarter < 4; ++quarter) {
    for (int deposit = 0; deposit < 3; ++deposit) {
      Transaction txn = db.Begin();
      auto current = txn.GetScalar("ledger");
      int64_t balance = static_cast<int64_t>(*current->AsNumeric());
      (void)txn.Put("ledger", Value(balance + 100));
      (void)txn.Commit();
    }
    quarter_ts[quarter] = *db.CurrentTimestamp();
  }

  std::printf("Ledger history: 12 deposits of 100, one snapshot per "
              "quarter.\n\n");
  for (int quarter = 0; quarter < 4; ++quarter) {
    auto historical = db.BeginAtTimestamp(quarter_ts[quarter]);
    auto balance = historical->GetScalar("ledger");
    std::printf("  as of Q%d close: balance = %s\n", quarter + 1,
                balance->ToString().c_str());
    (void)historical->Commit();
  }

  // A historical reader is never blocked by live writers...
  auto historian = db.BeginAtTimestamp(quarter_ts[0]);
  Transaction writer = db.Begin();
  (void)writer.Put("ledger", Value(9999));
  auto old_view = historian->GetScalar("ledger");
  std::printf("\nwhile a writer holds a pending update, the Q1 historian "
              "still reads %s without waiting\n",
              old_view->ToString().c_str());
  (void)writer.Commit();
  (void)historian->Commit();

  // ...but an old-timestamp WRITER must abort (First-Committer-Wins).
  auto revisionist = db.BeginAtTimestamp(quarter_ts[0]);
  (void)revisionist->Put("ledger", Value(-1));
  Status s = revisionist->Commit();
  std::printf("a Q1-timestamped writer trying to rewrite history: %s\n",
              s.ToString().c_str());

  // Garbage collection is engine maintenance, reached through the SPI
  // escape hatch: with no live snapshots, old versions fold away.
  auto& si = dynamic_cast<SnapshotIsolationEngine&>(db.engine());
  size_t before = si.VersionCount();
  size_t dropped = si.GarbageCollectVersions();
  std::printf("\ngarbage collection: %zu versions -> %zu (dropped %zu)\n",
              before, si.VersionCount(), dropped);
  return 0;
}
