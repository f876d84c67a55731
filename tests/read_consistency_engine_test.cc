// Oracle Read Consistency tests (the multiversion engine at native level
// ORC): statement-level snapshots, First-Writer-Wins locking, and the
// Section 4.3 claims — stronger than READ COMMITTED (no P4C), but
// P4 / A5A / P2 still possible.

#include <gtest/gtest.h>

#include "critique/analysis/phenomena.h"
#include "critique/engine/engine_factory.h"
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


std::unique_ptr<Engine> MakeEngine() {
  return CreateEngine(IsolationLevel::kOracleReadConsistency);
}

// Wraps a read-consistency engine in a session facade; tests reach the
// raw engine through db.engine() for statement-snapshot assertions.
Database MakeDb() {
  DbOptions options;
  options.engine_factory = [] {
    return CreateEngine(IsolationLevel::kOracleReadConsistency);
  };
  return Database(options);
}

TEST(RCEngineTest, FactoryBuildsTheMultiversionEngineAtNativeOrc) {
  std::unique_ptr<Engine> orc = MakeEngine();
  auto* mv = dynamic_cast<SnapshotIsolationEngine*>(orc.get());
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->level(), IsolationLevel::kOracleReadConsistency);
}

TEST(RCEngineTest, StatementLevelSnapshotAdvances) {
  std::unique_ptr<Engine> orc = MakeEngine();
  Engine& e = *orc;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  auto first = e.Read(1, "x");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE((*first)->scalar().Equals(Value(50)));

  // Another transaction commits a new value mid-flight.
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(99))).ok());
  ASSERT_TRUE(e.Commit(2).ok());

  // "As if the start-timestamp is advanced at each SQL statement": the
  // re-read sees the newer committed value (P2 possible, unlike SI).
  auto second = e.Read(1, "x");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->scalar().Equals(Value(99)));
  ASSERT_TRUE(e.Commit(1).ok());
  EXPECT_TRUE(Exhibits(e.history(), Phenomenon::kA2));
}

TEST(RCEngineTest, NeverReadsUncommitted) {
  std::unique_ptr<Engine> orc = MakeEngine();
  Engine& e = *orc;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(10))).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  auto r = e.Read(2, "x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(50)));  // not the pending 10
}

TEST(RCEngineTest, FirstWriterWinsBlocksSecondWriter) {
  std::unique_ptr<Engine> orc = MakeEngine();
  Engine& e = *orc;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(0))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(1))).ok());
  EXPECT_TRUE(e.Write(2, "x", Row::Scalar(Value(2))).IsWouldBlock());
  ASSERT_TRUE(e.Commit(1).ok());
  EXPECT_TRUE(e.Write(2, "x", Row::Scalar(Value(2))).ok());
  ASSERT_TRUE(e.Commit(2).ok());
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(2)));
}

TEST(RCEngineTest, GeneralLostUpdatePossible) {
  // Application-level read-then-write across statements: P4 (the paper:
  // Read Consistency "allows ... general lost updates (P4)").
  Database db = MakeDb();
  Engine& e = db.engine();
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
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_TRUE(Exhibits(result->history, Phenomenon::kP4));
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(130)));  // +20 lost
}

TEST(RCEngineTest, UpdateStatementHasWriteConsistency) {
  // Statement-level UPDATE recomputes against the latest committed value
  // after the lock wait — no lost update between two UPDATE statements.
  Database db = MakeDb();
  Engine& e = db.engine();
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.UpdateAddStatement("x", 30).Commit();
  Program t2;
  t2.UpdateAddStatement("x", 20).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(150)));  // both survive
}

TEST(RCEngineTest, CursorLostUpdatePrevented) {
  // FetchCursor is SELECT ... FOR UPDATE: P4C cannot arise (Section 4.3:
  // Read Consistency "disallows cursor lost updates (P4C)").
  Database db = MakeDb();
  Engine& e = db.engine();
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_FALSE(Exhibits(result->history, Phenomenon::kP4C));
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(150)));  // both survive
}

TEST(RCEngineTest, ReadSkewPossible) {
  // A5A: T1 reads x, T2 commits a transfer, T1's later statement sees the
  // new y — inconsistent pair (the paper: Read Consistency allows A5A).
  std::unique_ptr<Engine> orc = MakeEngine();
  Engine& e = *orc;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  auto x = e.Read(1, "x");
  ASSERT_TRUE(x.ok());

  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(2, "x", Row::Scalar(Value(10))).ok());
  ASSERT_TRUE(e.Write(2, "y", Row::Scalar(Value(90))).ok());
  ASSERT_TRUE(e.Commit(2).ok());

  auto y = e.Read(1, "y");
  ASSERT_TRUE(y.ok());
  ASSERT_TRUE(e.Commit(1).ok());
  int64_t sum = static_cast<int64_t>(*(*x)->scalar().AsNumeric()) +
                static_cast<int64_t>(*(*y)->scalar().AsNumeric());
  EXPECT_EQ(sum, 140);  // 50 + 90: read skew
  EXPECT_TRUE(Exhibits(e.history(), Phenomenon::kA5A));
}

TEST(RCEngineTest, WriteWriteDeadlockResolved) {
  Database db = MakeDb();
  Engine& e = db.engine();
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(0))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(0))).ok());
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(1)).Write("y", Value(1)).Commit();
  Program t2;
  t2.Write("y", Value(2)).Write("x", Value(2)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 1 2 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Committed(1) + result->Committed(2), 1);
  // The survivor wrote both items: x == y afterwards.
  EXPECT_TRUE(FinalScalar(e, "x", 8).Equals(FinalScalar(e, "y", 9)));
}

TEST(RCEngineTest, RollbackDiscardsPendingVersions) {
  std::unique_ptr<Engine> orc = MakeEngine();
  Engine& e = *orc;
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(5))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(6))).ok());
  ASSERT_TRUE(e.Abort(1).ok());
  EXPECT_TRUE(FinalScalar(e, "x", 9).Equals(Value(5)));
}

}  // namespace
}  // namespace critique
