// Tests for the sharded database: hash routing, the single-shard fast
// path, 2PC atomicity, the cross-shard anomaly scenarios the subsystem
// exists to demonstrate, and presumed-abort recovery of in-doubt
// participants.
//
// The acceptance triangle:
//  (a) per-shard Snapshot Isolation admits cross-shard write skew —
//      while every shard's local history validates as impeccable SI;
//  (b) per-shard Locking SERIALIZABLE + 2PC prevents it;
//  (c) a coordinator crash between prepare and decision leaves
//      participants in doubt, and recovery resolves them with nothing
//      leaked (locks released, pending versions gone, values correct).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/engine/locking_engine.h"
#include "critique/engine/si_engine.h"
#include "critique/shard/shard_scenarios.h"
#include "critique/shard/sharded_database.h"
#include "critique/workload/parallel_driver.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, DeterministicInRangeAndBothShardsUsed) {
  ShardRouter router(4);
  std::set<int> used;
  for (int k = 0; k < 64; ++k) {
    const ItemId id = "i" + std::to_string(k);
    const int s = router.ShardOf(id);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, router.ShardOf(id));  // pure function of the id
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 4u) << "64 keys should reach all 4 shards";

  // Placement is a function of (id, num_shards), not of router identity.
  ShardRouter again(4);
  for (int k = 0; k < 64; ++k) {
    const ItemId id = "i" + std::to_string(k);
    EXPECT_EQ(router.ShardOf(id), again.ShardOf(id));
  }
}

// ---------------------------------------------------------------------------
// Fast path and 2PC atomicity
// ---------------------------------------------------------------------------

TEST(ShardedDatabaseTest, SingleShardTransactionSkipsCoordinator) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  ASSERT_TRUE(db.Load("a", Value(1)).ok());

  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Put("a", Value(2)).ok());
  EXPECT_FALSE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(db.single_shard_commits(), 1u);
  EXPECT_EQ(db.coordinator().stats().started, 0u);
}

TEST(ShardedDatabaseTest, CrossShardCommitIsAtomicAndCoordinated) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(100)).ok());
  ASSERT_TRUE(db.Load(y, Value(100)).ok());

  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Update(x, [](const std::optional<Row>& r) {
                    return Row::Scalar(Value(r->scalar().AsInt() - 30));
                  }).ok());
  ASSERT_TRUE(txn.Update(y, [](const std::optional<Row>& r) {
                    return Row::Scalar(Value(r->scalar().AsInt() + 30));
                  }).ok());
  EXPECT_TRUE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(db.coordinator().stats().started, 1u);
  EXPECT_EQ(db.coordinator().stats().committed, 1u);

  ShardedTransaction audit = db.Begin();
  auto vx = audit.GetScalar(x);
  auto vy = audit.GetScalar(y);
  ASSERT_TRUE(vx.ok());
  ASSERT_TRUE(vy.ok());
  EXPECT_EQ(vx->AsInt(), 70);
  EXPECT_EQ(vy->AsInt(), 130);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(ShardedDatabaseTest, RollbackAbortsEveryParticipant) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(db.Load(pair->first, Value(1)).ok());
  ASSERT_TRUE(db.Load(pair->second, Value(2)).ok());

  {
    ShardedTransaction txn = db.Begin();
    ASSERT_TRUE(txn.Put(pair->first, Value(10)).ok());
    ASSERT_TRUE(txn.Put(pair->second, Value(20)).ok());
    // RAII rollback on scope exit.
  }

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(pair->first)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(pair->second)->AsInt(), 2);
  EXPECT_TRUE(audit.Commit().ok());

  // Nothing held: both locking shards granted and released symmetrically.
  for (int s = 0; s < db.num_shards(); ++s) {
    auto& eng = dynamic_cast<LockingEngine&>(db.shard(s).engine());
    EXPECT_EQ(eng.lock_stats().acquired, eng.lock_stats().released);
  }
}

TEST(ShardedDatabaseTest, ScatterGatherPredicateReadSeesEveryShard) {
  ShardedDatabase db(4, IsolationLevel::kSerializable);
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(db.Load("i" + std::to_string(k), Value(k)).ok());
  }
  ShardedTransaction txn = db.Begin();
  auto rows = txn.GetWhere("P", Predicate::Cmp("val", CompareOp::kGe, 0));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 16u);
  EXPECT_EQ(txn.shards_touched(), 4);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(ShardedDatabaseTest, ParticipantAbortDoomsTheGlobalTransaction) {
  // Two SI sharded transactions race on one item; the First-Committer-Wins
  // loser must take its *other* participant down with it.
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(0)).ok());
  ASSERT_TRUE(db.Load(y, Value(0)).ok());

  ShardedTransaction t1 = db.Begin();
  ShardedTransaction t2 = db.Begin();
  ASSERT_TRUE(t1.Put(x, Value(1)).ok());
  ASSERT_TRUE(t1.Put(y, Value(1)).ok());
  ASSERT_TRUE(t2.Put(x, Value(2)).ok());
  ASSERT_TRUE(t2.Put(y, Value(2)).ok());
  ASSERT_TRUE(t1.Commit().ok());

  Status s = t2.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  EXPECT_FALSE(t2.active());

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(x)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(y)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(ShardedDatabaseTest, ExecuteRetriesRetryableFailures) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(db.Load("a", Value(0)).ok());

  int calls = 0;
  Status s = db.Execute([&](ShardedTransaction& txn) {
    ++calls;
    CRITIQUE_RETURN_NOT_OK(txn.Put("a", Value(calls)));
    if (calls == 1) {
      (void)txn.Rollback();
      return Status::SerializationFailure("injected retryable failure");
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(db.execute_retries(), 1u);

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("a")->AsInt(), 2);
  EXPECT_TRUE(audit.Commit().ok());
}

// ---------------------------------------------------------------------------
// (a) + (b): the cross-shard anomaly family
// ---------------------------------------------------------------------------

TEST(CrossShardAnomalyTest, WriteSkewOccursWithPerShardSnapshotIsolation) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->anomaly) << out->detail;
  EXPECT_FALSE(out->blocked);  // "SI reads are never blocked" — nor writes here

  // The damning part: every shard's local history is impeccable Snapshot
  // Isolation, and its single-version mapping is even serializable.  The
  // anomaly exists only globally — no per-shard detector can see it.
  for (int s = 0; s < db.num_shards(); ++s) {
    const History h = db.shard(s).history();
    EXPECT_TRUE(ValidateSnapshotVisibility(h).ok());
    EXPECT_TRUE(IsSerializable(MapSnapshotHistoryToSingleVersion(h)));
  }
}

TEST(CrossShardAnomalyTest, WriteSkewPreventedByPerShardSerializable2PC) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->anomaly) << out->detail;
  EXPECT_TRUE(out->blocked);  // the long read locks engaged...
  EXPECT_TRUE(out->aborted);  // ...and the cross-shard deadlock cost a victim

  // Global serializability witness: the union judgment per shard — each
  // local history must be serializable, and the surviving transaction
  // committed on every shard it touched (2PC atomicity).
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(IsSerializable(db.shard(s).history()));
  }
}

TEST(CrossShardAnomalyTest, WriteSkewSurvivesPerShardSsi) {
  // Even SSI shards cannot see a dangerous structure whose rw edges live
  // on different shards: one edge per shard, no local pivot.  Global
  // serializability needs coordinator-level certification — or locks.
  ShardedDatabase db(2, IsolationLevel::kSerializableSI);
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->anomaly) << out->detail;
}

TEST(CrossShardAnomalyTest, FracturedReadOccursWithPerShardSnapshotIsolation) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto out = RunFracturedRead(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The transfer committed atomically through 2PC, yet the reader saw the
  // pre-transfer x and the post-transfer y: there is no global snapshot.
  // A single SI site forbids exactly this (one snapshot covers all items).
  EXPECT_TRUE(out->anomaly) << out->detail;

  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(ValidateSnapshotVisibility(db.shard(s).history()).ok());
  }
}

TEST(CrossShardAnomalyTest, FracturedReadPreventedByPerShardSerializable2PC) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto out = RunFracturedRead(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->anomaly) << out->detail;
  EXPECT_TRUE(out->blocked);  // the transfer waited behind the audit
}

TEST(CrossShardAnomalyTest, SingleSiteSnapshotIsolationForbidsTheFracture) {
  // The control experiment: the same interleaving on ONE SI site reads a
  // consistent snapshot — the anomaly is a child of partitioning, not of
  // SI itself.
  Database db(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(db.Load("x", Value(100)).ok());
  ASSERT_TRUE(db.Load("y", Value(100)).ok());

  Transaction reader = db.Begin();
  ASSERT_TRUE(reader.GetScalar("x").ok());  // snapshot pinned here

  Status s = db.Execute([](Transaction& w) {
    CRITIQUE_ASSIGN_OR_RETURN(Value x, w.GetScalar("x"));
    CRITIQUE_RETURN_NOT_OK(w.Put("x", Value(x.AsInt() - 50)));
    CRITIQUE_ASSIGN_OR_RETURN(Value y, w.GetScalar("y"));
    return w.Put("y", Value(y.AsInt() + 50));
  });
  ASSERT_TRUE(s.ok());

  auto rx = reader.GetScalar("x");
  auto ry = reader.GetScalar("y");
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(ry.ok());
  EXPECT_EQ(rx->AsInt() + ry->AsInt(), 200);  // one snapshot, no fracture
  EXPECT_TRUE(reader.Commit().ok());
}

// ---------------------------------------------------------------------------
// (c): in-doubt participants and presumed-abort recovery
// ---------------------------------------------------------------------------

TEST(InDoubtRecoveryTest, CoordinatorCrashBeforeDecisionPresumesAbort) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(10)).ok());
  ASSERT_TRUE(db.Load(y, Value(20)).ok());

  TxnId gid = 0;
  {
    ShardedTransaction txn = db.Begin();
    gid = txn.id();
    ASSERT_TRUE(txn.Put(x, Value(11)).ok());
    ASSERT_TRUE(txn.Put(y, Value(21)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kBeforeDecision);
    Status s = txn.Commit();
    EXPECT_TRUE(s.IsInternal()) << s.ToString();
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }  // the session handle is gone; the participants must not be

  // Both shards hold an in-doubt participant with the global id...
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.shard(s).engine().InDoubtTransactions(),
              std::vector<TxnId>{gid});
  }
  // ...whose write locks are still held: a probing writer is refused.
  {
    ShardedTransaction probe = db.Begin();
    EXPECT_TRUE(probe.Put(x, Value(99)).IsWouldBlock());
    (void)probe.Rollback();
  }
  // The engine refuses to let a plain abort disturb an in-doubt txn.
  EXPECT_TRUE(db.shard(db.ShardOf(x)).engine().Abort(gid).IsFailedPrecondition());

  // Presumed abort: no logged decision, so recovery rolls both back.
  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.aborted, 2u);
  EXPECT_EQ(rep.committed, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_aborts, 2u);

  // Nothing leaked: in-doubt lists empty, every lock released, values
  // restored, and the item is writable again.
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
    auto& eng = dynamic_cast<LockingEngine&>(db.shard(s).engine());
    EXPECT_EQ(eng.lock_stats().acquired, eng.lock_stats().released);
  }
  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 10);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 20);
  ASSERT_TRUE(after.Put(x, Value(12)).ok());
  EXPECT_TRUE(after.Commit().ok());

  // Recovery is idempotent.
  auto again = db.RecoverInDoubt();
  EXPECT_EQ(again.aborted + again.committed, 0u);
}

TEST(InDoubtRecoveryTest, CoordinatorCrashAfterDecisionRecoversForward) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(10)).ok());
  ASSERT_TRUE(db.Load(y, Value(20)).ok());

  TxnId gid = 0;
  {
    ShardedTransaction txn = db.Begin();
    gid = txn.id();
    ASSERT_TRUE(txn.Put(x, Value(11)).ok());
    ASSERT_TRUE(txn.Put(y, Value(21)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    Status s = txn.Commit();
    EXPECT_TRUE(s.IsInternal()) << s.ToString();
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }

  // The prepared write set is reserved: a conflicting committer is
  // refused (First-Committer-Wins extended across the in-doubt window).
  {
    ShardedTransaction probe = db.Begin();
    ASSERT_TRUE(probe.Put(x, Value(99)).ok());  // pending, not yet validated
    Status s = probe.Commit();
    EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  }

  // The decision was logged as commit, so recovery rolls both forward.
  ASSERT_TRUE(db.coordinator().DecisionFor(gid).value_or(false));
  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_commits, 2u);
  // All participants acknowledged; presumed abort forgets the decision.
  EXPECT_FALSE(db.coordinator().DecisionFor(gid).has_value());

  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 11);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 21);
  EXPECT_TRUE(after.Commit().ok());
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
  }
}

TEST(InDoubtRecoveryTest, PrepareRefusalGloballyAbortsAndIsRetryable) {
  // T1 and T2 both transfer across shards touching one common item; the
  // later committer fails *prepare* on that shard, and the coordinator
  // must abort its other, perfectly healthy participant too.
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(0)).ok());
  ASSERT_TRUE(db.Load(y, Value(0)).ok());

  ShardedTransaction t1 = db.Begin();
  ShardedTransaction t2 = db.Begin();
  ASSERT_TRUE(t1.Put(x, Value(1)).ok());
  ASSERT_TRUE(t1.Put(y, Value(1)).ok());
  ASSERT_TRUE(t2.Put(x, Value(2)).ok());
  ASSERT_TRUE(t2.Put(y, Value(2)).ok());

  ASSERT_TRUE(t1.Commit().ok());
  Status s = t2.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  EXPECT_TRUE(IsRetryableStatus(s));
  EXPECT_EQ(db.coordinator().stats().prepare_failures, 1u);
  EXPECT_EQ(db.coordinator().stats().aborted, 1u);

  // No participant of the aborted global txn survives anywhere.
  for (int sh = 0; sh < db.num_shards(); ++sh) {
    EXPECT_TRUE(db.shard(sh).engine().InDoubtTransactions().empty());
  }
  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(x)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(y)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(InDoubtRecoveryTest, HeterogeneousShardsSurviveACrashAfterDecision) {
  // Every stock engine implements a real prepared state — including
  // Oracle Read Consistency, whose trivial-participant default would
  // otherwise be rolled back by the dying session while its SI peer
  // recovers forward (atomicity torn down the middle).
  ShardedDbOptions opts;
  opts.num_shards = 2;
  opts.per_shard = {DbOptions(IsolationLevel::kSnapshotIsolation),
                    DbOptions(IsolationLevel::kOracleReadConsistency)};
  ShardedDatabase db(opts);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(1)).ok());
  ASSERT_TRUE(db.Load(y, Value(1)).ok());

  {
    ShardedTransaction txn = db.Begin();
    ASSERT_TRUE(txn.Put(x, Value(2)).ok());
    ASSERT_TRUE(txn.Put(y, Value(2)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    EXPECT_TRUE(txn.Commit().IsInternal());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }
  // BOTH participants survived the session's death in doubt.
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.shard(s).engine().InDoubtTransactions().size(), 1u);
  }

  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);
  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 2);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 2);  // no torn commit
  EXPECT_TRUE(after.Commit().ok());
}

// ---------------------------------------------------------------------------
// The SSI prepare window: a prepared participant counts as committed
// ---------------------------------------------------------------------------
//
// An SSI participant validates at Prepare.  From then on every other
// commit's SSI check treats it as committed (Ports & Grittner, VLDB 2012):
// the transaction that would complete a dangerous structure (Cahill et
// al. 2008) around the prepared one aborts instead, and CommitPrepared
// cannot fail.  These tests pin the new victim on each side of the
// prepared pivot, write skew with a prepared participant, the
// coordinator's inline phase 2, and crash recovery — under both GC modes
// (kWatermark runs a pass after every commit, so a retired witness would
// show).

class SsiPreparedWindowTest : public ::testing::TestWithParam<VersionGcMode> {
 protected:
  DbOptions Options() const {
    DbOptions o(IsolationLevel::kSerializableSI);
    o.version_gc = GetParam();
    o.version_gc_interval = 1;
    return o;
  }
};

// Tries to complete the dangerous structure around an in-doubt
// participant P on one SSI database: P read `xr` and wrote `xw`; T3
// overwrites `xr` and commits first (P -rw-> T3); then T1 reads the old
// `xw` (T1 -rw-> P).  P is prepared, so T1, the completer, is refused.
void CompleteStructureAroundPrepared(Database& db, const ItemId& xr,
                                     const ItemId& xw) {
  Transaction t3 = db.Begin();
  ASSERT_TRUE(t3.Put(xr, Value(int64_t{1})).ok());
  ASSERT_TRUE(t3.Commit().ok()) << "T3 (out-neighbour) must commit first";
  Transaction t1 = db.Begin();
  auto r = t1.GetScalar(xw);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt(), 0) << "P's pending write must stay invisible";
  Status s = t1.Commit();
  EXPECT_TRUE(s.IsSerializationFailure())
      << "the completer must abort, not the prepared pivot: " << s.ToString();
}

// Begins a transaction that reads `xr` and writes `xw`.
Transaction ReadThenWrite(Database& db, const ItemId& xr, const ItemId& xw) {
  Transaction p = db.Begin();
  EXPECT_TRUE(p.Get(xr).ok());
  EXPECT_TRUE(p.Put(xw, Value(int64_t{1})).ok());
  return p;
}

TEST_P(SsiPreparedWindowTest, InEdgeCompleterIsRefused) {
  Database db{Options()};
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = ReadThenWrite(db, "xr", "xw");
  ASSERT_TRUE(p.Prepare().ok()) << "not a pivot yet: prepare must admit";

  CompleteStructureAroundPrepared(db, "xr", "xw");

  Status decision = p.CommitPrepared();
  EXPECT_TRUE(decision.ok()) << decision.ToString();
  EXPECT_FALSE(p.active());
  EXPECT_TRUE(db.engine().InDoubtTransactions().empty());

  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("xw")->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar("xr")->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << MVSerializationGraph::Build(db.history()).ToString();
}

TEST_P(SsiPreparedWindowTest, OutNeighbourCommittingSecondIsRefused) {
  // The other order: the in-edge T1 -rw-> P forms and T1 commits while P
  // is in doubt; then T3 would commit first of {P, T3} with P -rw-> T3,
  // completing the structure.  T3 is refused.
  Database db{Options()};
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = ReadThenWrite(db, "xr", "xw");
  ASSERT_TRUE(p.Prepare().ok());

  Transaction t1 = db.Begin();
  ASSERT_TRUE(t1.Get("xw").ok());
  ASSERT_TRUE(t1.Commit().ok()) << "no out-neighbour of P committed yet";

  Transaction t3 = db.Begin();
  ASSERT_TRUE(t3.Put("xr", Value(int64_t{1})).ok());
  Status s = t3.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();

  EXPECT_TRUE(p.CommitPrepared().ok());
  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("xw")->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar("xr")->AsInt(), 0) << "T3 rolled back";
  EXPECT_TRUE(audit.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << MVSerializationGraph::Build(db.history()).ToString();
}

TEST_P(SsiPreparedWindowTest, OutNeighbourRefusedWhenInEdgeSourceIsPrepared) {
  // Both ends of the in-edge are prepared: T1 -rw-> P.  T3 closes the
  // cycle T1 -rw-> P -rw-> T3 -rw-> T1 and would commit first.  T3
  // declares plain SI, so only the prepared pivot's contract refuses it.
  Database db{Options()};
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("z", Value(int64_t{0})).ok());

  Transaction p = ReadThenWrite(db, "xr", "xw");
  ASSERT_TRUE(p.Prepare().ok());
  Transaction t1 = ReadThenWrite(db, "xw", "z");  // T1 -rw-> P
  ASSERT_TRUE(t1.Prepare().ok());

  Result<Transaction> begun =
      db.Begin(BeginOptions{IsolationLevel::kSnapshotIsolation});
  ASSERT_TRUE(begun.ok());
  Transaction t3 = std::move(*begun);
  ASSERT_TRUE(t3.Get("z").ok());                        // T3 -rw-> T1
  ASSERT_TRUE(t3.Put("xr", Value(int64_t{1})).ok());  // P -rw-> T3
  Status s = t3.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();

  EXPECT_TRUE(p.CommitPrepared().ok());
  EXPECT_TRUE(t1.CommitPrepared().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << MVSerializationGraph::Build(db.history()).ToString();
}

TEST_P(SsiPreparedWindowTest, WriteSkewWithPreparedParticipantRefusesSelf) {
  // Self -rw-> P -rw-> self: self is both the in-edge source and the
  // out-edge target.  Self declares plain SI, so it is not refused as a
  // pivot under its own contract; the refusal protects P's.
  Database db{Options()};
  ASSERT_TRUE(db.Load("x", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("y", Value(int64_t{0})).ok());

  Transaction p = ReadThenWrite(db, "x", "y");
  ASSERT_TRUE(p.Prepare().ok());

  Result<Transaction> begun =
      db.Begin(BeginOptions{IsolationLevel::kSnapshotIsolation});
  ASSERT_TRUE(begun.ok());
  Transaction self = std::move(*begun);
  ASSERT_TRUE(self.Get("y").ok());                     // self -rw-> P
  ASSERT_TRUE(self.Put("x", Value(int64_t{1})).ok());  // P -rw-> self
  Status s = self.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  EXPECT_NE(s.message().find("prepared pivot"), std::string::npos)
      << s.ToString();

  EXPECT_TRUE(p.CommitPrepared().ok());
  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("x")->AsInt(), 0);
  EXPECT_EQ(audit.GetScalar("y")->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << MVSerializationGraph::Build(db.history()).ToString();
}

TEST_P(SsiPreparedWindowTest, CoordinatorCommitsDespiteStructureInDoubt) {
  // The same hazard through TxnCoordinator::Commit itself: the structure
  // is attempted inside the in-doubt window (deterministic via the
  // coordinator's hook), the completer is refused, and phase 2 commits
  // the global transaction.
  Database db{Options()};
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = ReadThenWrite(db, "xr", "xw");

  TxnCoordinator coordinator;
  coordinator.set_in_doubt_hook([&](TxnId gid) {
    (void)gid;
    CompleteStructureAroundPrepared(db, "xr", "xw");
  });
  const TxnId gid = p.id();
  Status s = coordinator.Commit(gid, {&p});
  coordinator.set_in_doubt_hook(nullptr);

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(p.active());
  EXPECT_EQ(coordinator.stats().committed, 1u);
  EXPECT_EQ(coordinator.stats().aborted, 0u);
  EXPECT_FALSE(coordinator.DecisionFor(gid).has_value())
      << "an applied decision must not linger in the log";
  EXPECT_TRUE(db.engine().InDoubtTransactions().empty());
  EXPECT_TRUE(IsMVSerializable(db.history()));
}

TEST_P(SsiPreparedWindowTest, BothParticipantsCommitDespiteStructureInDoubt) {
  // Two participants, one of which has a dangerous structure attempted
  // around it while in doubt: the completer is refused on that shard, and
  // the decision commits both participants — no partial commit.
  Database plain{Options()};
  Database structured{Options()};
  ASSERT_TRUE(plain.Load("c", Value(int64_t{0})).ok());
  ASSERT_TRUE(structured.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(structured.Load("xw", Value(int64_t{0})).ok());

  Transaction pc = plain.Begin();
  ASSERT_TRUE(pc.Put("c", Value(int64_t{1})).ok());
  Transaction ps = ReadThenWrite(structured, "xr", "xw");

  TxnCoordinator coordinator;
  coordinator.set_in_doubt_hook([&](TxnId gid) {
    (void)gid;
    CompleteStructureAroundPrepared(structured, "xr", "xw");
  });
  Status s = coordinator.Commit(/*gid=*/1, {&pc, &ps});
  coordinator.set_in_doubt_hook(nullptr);

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(coordinator.stats().committed, 1u);
  EXPECT_EQ(coordinator.stats().aborted, 0u);
  Transaction a1 = plain.Begin();
  EXPECT_EQ(a1.GetScalar("c")->AsInt(), 1);
  EXPECT_TRUE(a1.Commit().ok());
  Transaction a2 = structured.Begin();
  EXPECT_EQ(a2.GetScalar("xw")->AsInt(), 1);
  EXPECT_TRUE(a2.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(plain.history()));
  EXPECT_TRUE(IsMVSerializable(structured.history()))
      << MVSerializationGraph::Build(structured.history()).ToString();
}

TEST_P(SsiPreparedWindowTest, RecoveryRollsBothParticipantsForward) {
  // Cross-shard flavor: a two-shard SSI transaction crashes after the
  // commit decision is logged; while in doubt, the dangerous structure is
  // attempted on one participant's shard and its completer refused.
  // Recovery rolls both participants forward.
  ShardedDbOptions opts;
  opts.num_shards = 2;
  opts.shard_options = Options();
  ShardedDatabase db(opts);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId xr = pair->first;   // structure shard
  const ItemId w = pair->second;   // plain shard
  // A second key on the structure shard for G's write.
  ItemId xw;
  for (int k = 0;; ++k) {
    ItemId candidate = "xw" + std::to_string(k);
    if (db.ShardOf(candidate) == db.ShardOf(xr) && candidate != xr) {
      xw = candidate;
      break;
    }
  }
  ASSERT_TRUE(db.Load(xr, Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load(xw, Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load(w, Value(int64_t{0})).ok());

  {
    ShardedTransaction g = db.Begin();
    ASSERT_TRUE(g.Get(xr).ok());
    ASSERT_TRUE(g.Put(xw, Value(int64_t{1})).ok());
    ASSERT_TRUE(g.Put(w, Value(int64_t{1})).ok());
    EXPECT_TRUE(g.cross_shard());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    EXPECT_TRUE(g.Commit().IsInternal());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }

  // While G is in doubt, attempt the structure on its xr/xw shard with
  // two single-shard (fast-path) transactions — through the facade, so
  // global ids stay in sync with the shard sessions.
  {
    ShardedTransaction t3 = db.Begin();
    ASSERT_TRUE(t3.Put(xr, Value(int64_t{1})).ok());
    ASSERT_TRUE(t3.Commit().ok()) << "T3 (out-neighbour) commits first";
    ShardedTransaction t1 = db.Begin();
    auto r = t1.GetScalar(xw);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->AsInt(), 0) << "G's pending write must stay invisible";
    Status s = t1.Commit();
    EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  }

  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_commits, 2u);
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
    EXPECT_TRUE(IsMVSerializable(db.shard(s).history())) << "shard " << s;
  }
  // Recovery converged; a second pass finds nothing.
  auto again = db.RecoverInDoubt();
  EXPECT_EQ(again.committed + again.aborted, 0u);

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(xw)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(w)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    GcModes, SsiPreparedWindowTest,
    ::testing::Values(VersionGcMode::kRetainAll, VersionGcMode::kWatermark),
    [](const ::testing::TestParamInfo<VersionGcMode>& info) {
      return info.param == VersionGcMode::kRetainAll ? "RetainAll"
                                                     : "Watermark";
    });

// ---------------------------------------------------------------------------
// Heterogeneous shards and the concurrent driver
// ---------------------------------------------------------------------------

TEST(ShardedDatabaseTest, HeterogeneousShardsRunMixedIsolationLevels) {
  ShardedDbOptions opts;
  opts.num_shards = 2;
  opts.per_shard = {DbOptions(IsolationLevel::kSnapshotIsolation),
                    DbOptions(IsolationLevel::kSerializable)};
  ShardedDatabase db(opts);
  EXPECT_EQ(db.shard(0).level(), IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(db.shard(1).level(), IsolationLevel::kSerializable);

  // The mixed facade still runs cross-shard transactions end to end.
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(db.Load(pair->first, Value(5)).ok());
  ASSERT_TRUE(db.Load(pair->second, Value(5)).ok());
  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Put(pair->first, Value(6)).ok());
  ASSERT_TRUE(txn.Put(pair->second, Value(7)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db.coordinator().stats().committed, 1u);
}

TEST(ShardedDatabaseTest, ConcurrentTransfersPreserveTheGlobalInvariant) {
  ShardedDbOptions opts(4, IsolationLevel::kSnapshotIsolation);
  opts.shard_options.mode = ConcurrencyMode::kBlocking;
  opts.seed = 42;
  ShardedDatabase db(opts);

  WorkloadOptions wopts;
  wopts.num_items = 32;
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.LoadInitial(db).ok());

  ParallelDriverOptions dopts;
  dopts.threads = 4;
  dopts.txns_per_thread = 40;
  ShardedParallelDriver driver(db, dopts);
  ParallelRunStats stats =
      driver.Run([&gen](ShardedTransaction& txn, Rng& rng) {
        return gen.ApplyShardedTransferTxn(txn, rng, /*amount=*/1,
                                           /*cross_shard_prob=*/0.5);
      });

  EXPECT_EQ(stats.attempts, 160u);
  EXPECT_GT(stats.committed, 0u);
  // Transfers preserve the global sum at SI whatever mix of single-shard
  // and 2PC commits the run produced.
  EXPECT_EQ(WorkloadGenerator::TotalBalance(db, wopts.num_items),
            static_cast<int64_t>(wopts.num_items) * wopts.initial_balance);
  // Both commit paths were exercised.
  EXPECT_GT(db.single_shard_commits(), 0u);
  EXPECT_GT(db.coordinator().stats().committed, 0u);
  // Client-side commits never exceed engine-side commits (each cross-shard
  // commit records one engine commit per participant).
  EXPECT_GE(stats.engine_commits, stats.committed);
}

}  // namespace
}  // namespace critique
