// SnapshotIsolationEngine tests: snapshot reads, First-Committer-Wins,
// write skew admission (and its SSI-extension refusal), time travel, GC.

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/analysis/phenomena.h"
#include "critique/engine/si_engine.h"
#include "critique/exec/runner.h"

namespace critique {
namespace {

Value FinalScalar(Engine& engine, const ItemId& id, TxnId reader) {
  EXPECT_TRUE(engine.Begin(reader).ok());
  auto r = engine.Read(reader, id);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(engine.Commit(reader).ok());
  return r->has_value() ? (*r)->scalar() : Value();
}


// Wraps an SI engine in a session facade; tests reach the raw engine
// through db.engine() for snapshot/GC-specific assertions.
Database MakeDb(IsolationLevel level = IsolationLevel::kSnapshotIsolation) {
  DbOptions options;
  options.engine_factory = [level] {
    return std::make_unique<SnapshotIsolationEngine>(level);
  };
  return Database(options);
}

TEST(SIEngineTest, SnapshotReadsAreStable) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Read(1, "x").ok());

  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(99))).ok());
  ASSERT_TRUE(e.Commit(2).ok());

  // T1 still sees its snapshot.
  auto again = e.Read(1, "x");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->scalar().Equals(Value(50)));
  ASSERT_TRUE(e.Commit(1).ok());
  // No A2 in the (mapped) history.
  History mapped = MapSnapshotHistoryToSingleVersion(e.history());
  EXPECT_FALSE(Exhibits(mapped, Phenomenon::kA2));
}

TEST(SIEngineTest, OwnWritesVisible) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(2))).ok());
  auto r = e.Read(1, "x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(2)));
}

TEST(SIEngineTest, ReadsNeverBlock) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(10))).ok());
  // A reader is neither blocked nor dirty.
  ASSERT_TRUE(e.Begin(2).ok());
  auto r = e.Read(2, "x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(50)));
  EXPECT_EQ(e.stats().blocked_ops, 0u);
}

TEST(SIEngineTest, FirstCommitterWins) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(130))).ok());
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(120))).ok());
  ASSERT_TRUE(e.Commit(2).ok());  // first committer
  EXPECT_TRUE(e.Commit(1).IsSerializationFailure());
  EXPECT_EQ(e.stats().serialization_aborts, 1u);
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(120)));
  // The recorded history passes the FCW validator.
  EXPECT_TRUE(ValidateFirstCommitterWins(e.history()).ok());
}

TEST(SIEngineTest, LostUpdatePrevented) {
  Database db = MakeDb();
  auto& e = static_cast<SnapshotIsolationEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(2));
  EXPECT_EQ(result->outcomes.at(1), TxnOutcome::kAbortedSerialization);
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(120)));
}

TEST(SIEngineTest, H1SITranscriptMatchesPaper) {
  // Replaying H1's interleaving under SI yields exactly H1.SI (Section 4.2).
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Read(1, "x").ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(10))).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Read(2, "x").ok());
  ASSERT_TRUE(e.Read(2, "y").ok());
  ASSERT_TRUE(e.Commit(2).ok());
  ASSERT_TRUE(e.Read(1, "y").ok());
  ASSERT_TRUE(e.Write(1, "y", Row::Scalar(Value(90))).ok());
  ASSERT_TRUE(e.Commit(1).ok());

  EXPECT_EQ(e.history().ToString(),
            "r1[x0=50] w1[x1=10] r2[x0=50] r2[y0=50] c2 "
            "r1[y0=50] w1[y1=90] c1");
  EXPECT_TRUE(ValidateSnapshotVisibility(e.history()).ok());
  // "H1.SI has the dataflows of a serializable execution."
  EXPECT_TRUE(IsSerializable(MapSnapshotHistoryToSingleVersion(e.history())));
}

TEST(SIEngineTest, WriteSkewAdmitted) {
  // H5: disjoint write sets pass First-Committer-Wins; the x+y > 0
  // constraint breaks — A5B is the price of SI (Remark 9).
  Database db = MakeDb();
  auto& e = static_cast<SnapshotIsolationEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  Program t1;  // withdraw 90 against the joint balance, debiting y
  t1.Read("x").Read("y").WriteComputed("y", [](const TxnLocals& l) {
      return Value(l.GetInt("y") - 90);
    }).Commit();
  Program t2;  // same, debiting x
  t2.Read("x").Read("y").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") - 90);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 1 2 2 2 1 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  int64_t x = 0, y = 0;
  {
    ASSERT_TRUE(e.Begin(9).ok());
    x = static_cast<int64_t>(*(*e.Read(9, "x"))->scalar().AsNumeric());
    y = static_cast<int64_t>(*(*e.Read(9, "y"))->scalar().AsNumeric());
    ASSERT_TRUE(e.Commit(9).ok());
  }
  EXPECT_LT(x + y, 0);  // constraint violated: -40 + -40
  // The mapped history exhibits write skew and an rw-only MVSG cycle.
  EXPECT_TRUE(
      Exhibits(MapSnapshotHistoryToSingleVersion(result->history),
               Phenomenon::kA5B));
  EXPECT_TRUE(MVSerializationGraph::Build(result->history).HasRwOnlyCycle());
}

TEST(SIEngineTest, SsiRefusesWriteSkew) {
  Database db = MakeDb(IsolationLevel::kSerializableSI);
  auto& e = static_cast<SnapshotIsolationEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  Program t1;
  t1.Read("x").Read("y").WriteComputed("y", [](const TxnLocals& l) {
      return Value(l.GetInt("y") - 90);
    }).Commit();
  Program t2;
  t2.Read("x").Read("y").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") - 90);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 1 2 2 2 1 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Exactly one survives; the constraint holds.
  EXPECT_EQ(result->Committed(1) + result->Committed(2), 1);
  int64_t x = static_cast<int64_t>(*FinalScalar(e, "x", 8).AsNumeric());
  int64_t y = static_cast<int64_t>(*FinalScalar(e, "y", 9).AsNumeric());
  EXPECT_GT(x + y, 0);
}

TEST(SIEngineTest, SsiAllowsSerialExecutions) {
  SnapshotIsolationEngine e(IsolationLevel::kSerializableSI);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Read(1, "x").ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(2))).ok());
  ASSERT_TRUE(e.Commit(1).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Read(2, "x").ok());
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(3))).ok());
  EXPECT_TRUE(e.Commit(2).ok());
}

TEST(SIEngineTest, SsiCatchesPredicateWriteSkew) {
  // The paper's 8-hour job-tasks scenario: two concurrent inserts under
  // the same predicate; plain SI admits it, SSI's predicate SIREADs don't.
  SnapshotIsolationEngine e(IsolationLevel::kSerializableSI);
  ASSERT_TRUE(e.Load("t1", Row().Set("task", true).Set("hours", 7)).ok());
  Predicate tasks = Predicate::Cmp("task", CompareOp::kEq, true);

  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.ReadPredicate(1, "Tasks", tasks).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.ReadPredicate(2, "Tasks", tasks).ok());
  ASSERT_TRUE(e.Insert(1, "t7", Row().Set("task", true).Set("hours", 1)).ok());
  ASSERT_TRUE(e.Insert(2, "t8", Row().Set("task", true).Set("hours", 1)).ok());
  Status c1 = e.Commit(1);
  Status c2 = e.Commit(2);
  // At least one must be refused (both form a pivot; the first commit
  // aborts, freeing the second).
  EXPECT_TRUE(c1.IsSerializationFailure() || c2.IsSerializationFailure());
  EXPECT_FALSE(c1.IsSerializationFailure() && c2.ok() &&
               c2.IsSerializationFailure());
}

TEST(SIEngineTest, TimeTravelReadsOldSnapshot) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  Timestamp then = e.Now();
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(2))).ok());
  ASSERT_TRUE(e.Commit(1).ok());

  // A historical transaction pinned before T1's commit.
  ASSERT_TRUE(e.BeginAt(2, then).ok());
  auto r = e.Read(2, "x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(1)));
  // "Update transactions with very old timestamps would abort if they
  // tried to update any data item updated by more recent transactions."
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(9))).ok());
  EXPECT_TRUE(e.Commit(2).IsSerializationFailure());
}

TEST(SIEngineTest, InsertDeleteVisibility) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  EXPECT_TRUE(e.Insert(1, "x", Row::Scalar(Value(2))).IsFailedPrecondition());
  ASSERT_TRUE(e.Delete(1, "x").ok());
  EXPECT_FALSE(e.Read(1, "x")->has_value());
  // Fresh snapshot after commit no longer sees x.
  ASSERT_TRUE(e.Commit(1).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  EXPECT_FALSE(e.Read(2, "x")->has_value());
  EXPECT_TRUE(e.Delete(2, "x").IsNotFound());
  EXPECT_TRUE(e.Insert(2, "x", Row::Scalar(Value(3))).ok());
  ASSERT_TRUE(e.Commit(2).ok());
}

TEST(SIEngineTest, OnlyOracleReadConsistencyTakesWriteLocks) {
  // One engine, three native levels: SI and SSI writers never touch the
  // lock table; an ORC writer holds a long Write lock until commit.
  for (IsolationLevel level :
       {IsolationLevel::kSnapshotIsolation, IsolationLevel::kSerializableSI,
        IsolationLevel::kOracleReadConsistency}) {
    SnapshotIsolationEngine e(level);
    ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
    ASSERT_TRUE(e.Begin(1).ok());
    ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(2))).ok());
    ASSERT_TRUE(e.Commit(1).ok());
    const bool orc = level == IsolationLevel::kOracleReadConsistency;
    EXPECT_EQ(e.lock_stats().acquired, orc ? 1u : 0u)
        << IsolationLevelName(level);
    EXPECT_EQ(e.lock_stats().released, e.lock_stats().acquired)
        << IsolationLevelName(level);
  }
}

TEST(SIEngineTest, EagerWriteConflictOption) {
  SnapshotIsolationOptions opts;
  opts.eager_write_conflicts = true;
  SnapshotIsolationEngine e(IsolationLevel::kSnapshotIsolation, opts);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(2))).ok());
  // First-updater-wins: T2's overlapping write aborts immediately.
  EXPECT_TRUE(e.Write(2, "x", Row::Scalar(Value(3)))
                  .IsSerializationFailure());
  EXPECT_TRUE(e.Commit(1).ok());
}

TEST(SIEngineTest, GarbageCollectionRespectsActiveSnapshots) {
  SnapshotIsolationEngine e;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(0))).ok());
  ASSERT_TRUE(e.Begin(1).ok());  // holds an old snapshot
  for (TxnId t = 2; t <= 4; ++t) {
    ASSERT_TRUE(e.Begin(t).ok());
    ASSERT_TRUE(e.Write(t, "x", Row::Scalar(Value(t))).ok());
    ASSERT_TRUE(e.Commit(t).ok());
  }
  size_t before = e.VersionCount();
  e.GarbageCollect();
  // T1's snapshot pins the initial version: at most the two intermediate
  // committed versions are collectable.
  EXPECT_GE(e.VersionCount(), 2u);
  EXPECT_LE(e.VersionCount(), before);
  auto r = e.Read(1, "x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(0)));  // still readable
  ASSERT_TRUE(e.Commit(1).ok());
  e.GarbageCollect();
  EXPECT_EQ(e.VersionCount(), 1u);  // only the newest survives
}

TEST(SIEngineTest, HistoriesValidateAsSnapshotHistories) {
  Database db = MakeDb();
  auto& e = static_cast<SnapshotIsolationEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  Program t1;
  t1.Read("x").Write("y", Value(1)).Commit();
  Program t2;
  t2.Read("y").Write("x", Value(2)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  Rng rng(42);
  auto result = runner.Run(runner.RandomSchedule(rng));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateSnapshotVisibility(result->history).ok())
      << result->history.ToString();
  EXPECT_TRUE(ValidateFirstCommitterWins(result->history).ok());
}

}  // namespace
}  // namespace critique
