// HISTEX fuzz harness tests: seeded random histories over engines ×
// per-transaction level mixes × shard counts, every commit certified by
// the online checker.  Environment knobs (all optional):
//
//   HISTEX_SEEDS=N        seeds per configuration (default 5)
//   HISTEX_TXNS=N         transactions per run (default 200)
//   HISTEX_FAILURE_DIR=D  write failing-seed replay files into D
//   HISTEX_REPLAY=CFG     HistexFuzz.Replay runs this one configuration
//
// A failing run prints (and, with HISTEX_FAILURE_DIR, persists) a
// copy-pasteable replay command; the nightly CI job uploads those files
// as artifacts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "critique/harness/histex.h"

namespace critique {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

int SeedsPerConfig() { return std::max(1, EnvInt("HISTEX_SEEDS", 5)); }
int TxnsPerRun() { return std::max(1, EnvInt("HISTEX_TXNS", 200)); }

// Runs one configuration and asserts the certification invariants every
// stock engine must keep: zero violations, and the serialization-abort
// split counters summing to the total.
void CheckRun(HistexConfig cfg) {
  cfg.txns = TxnsPerRun();
  HistexResult r = RunHistex(cfg);
  if (!r.ok) {
    const char* dir = std::getenv("HISTEX_FAILURE_DIR");
    if (dir != nullptr && *dir != '\0') {
      std::ofstream out(std::string(dir) + "/histex_seed" +
                        std::to_string(cfg.seed) + "_" +
                        LevelToken(cfg.engine) + ".txt");
      out << cfg.ToString() << "\n" << ReplayCommand(cfg) << "\n"
          << r.detail << "\n";
    }
    ADD_FAILURE() << "histex run failed: " << cfg.ToString() << "\n"
                  << r.detail;
    return;
  }
  EXPECT_EQ(r.report.violations, 0u) << cfg.ToString();
  if (cfg.shards == 1) {
    EXPECT_EQ(r.committed, r.report.commits_certified) << cfg.ToString();
  } else {
    // A cross-shard transaction is certified once per participant shard.
    EXPECT_GE(r.report.commits_certified, r.committed) << cfg.ToString();
  }
  // Satellite invariant: the abort-split counters account for every
  // serialization abort, at every level mix and shard count.
  EXPECT_EQ(r.stats.fcw_aborts + r.stats.ssi_aborts,
            r.stats.serialization_aborts)
      << cfg.ToString();
}

void Sweep(IsolationLevel engine, std::vector<IsolationLevel> mix,
           int shards, StorageBackend backend = StorageBackend::kMap) {
  for (int s = 0; s < SeedsPerConfig(); ++s) {
    HistexConfig cfg;
    cfg.seed = 1 + static_cast<uint64_t>(s);
    cfg.engine = engine;
    cfg.txn_levels = mix;
    cfg.shards = shards;
    cfg.backend = backend;
    CheckRun(cfg);
  }
}

TEST(HistexFuzz, LockingSerializable) {
  Sweep(IsolationLevel::kSerializable, {}, 1);
}

TEST(HistexFuzz, LockingMixedTable2Levels) {
  Sweep(IsolationLevel::kSerializable,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSerializable,
         IsolationLevel::kCursorStability, IsolationLevel::kRepeatableRead},
        1);
}

TEST(HistexFuzz, LockingWeakEngineWithReadUncommitted) {
  Sweep(IsolationLevel::kReadCommitted,
        {IsolationLevel::kReadUncommitted, IsolationLevel::kReadCommitted},
        1);
}

TEST(HistexFuzz, SnapshotIsolation) {
  Sweep(IsolationLevel::kSnapshotIsolation, {}, 1);
}

TEST(HistexFuzz, SnapshotIsolationWithReadCommitted) {
  Sweep(IsolationLevel::kSnapshotIsolation,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation},
        1);
}

TEST(HistexFuzz, SerializableSI) {
  Sweep(IsolationLevel::kSerializableSI, {}, 1);
}

TEST(HistexFuzz, SerializableSIFullMix) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation,
         IsolationLevel::kSerializableSI},
        1);
}

TEST(HistexFuzz, OracleReadConsistency) {
  Sweep(IsolationLevel::kOracleReadConsistency, {}, 1);
}

TEST(HistexFuzz, ShardedOracleReadConsistency) {
  Sweep(IsolationLevel::kOracleReadConsistency, {}, 3);
}

TEST(HistexFuzz, OracleReadConsistencyPinned) {
  // Oracle Read Consistency's seeded runs, pinned literally: committed,
  // aborted, blocked steps, livelock rollbacks, checker edges and
  // deadlock victims.  Any change to ORC's blocking, locking or abort
  // behaviour moves a tuple.  The run size is fixed so HISTEX_TXNS cannot
  // change it.
  struct Pin {
    uint64_t seed;
    int shards;
    uint64_t committed, aborted, blocked_steps, forced_rollbacks, edges,
        deadlocks;
  };
  const std::vector<Pin> pins = {
      {1, 1, 195, 5, 329, 0, 579, 5},
      {2, 1, 199, 1, 372, 0, 573, 1},
      {3, 1, 199, 1, 189, 0, 592, 1},
      {4, 1, 198, 2, 235, 0, 607, 2},
      {5, 1, 198, 2, 400, 0, 639, 2},
      {1, 3, 191, 9, 532, 6, 607, 3},
      {2, 3, 198, 2, 454, 2, 629, 0},
      {3, 3, 199, 1, 189, 0, 607, 1},
      {4, 3, 198, 2, 235, 0, 624, 2},
      {5, 3, 195, 5, 404, 3, 587, 2},
  };
  for (const Pin& pin : pins) {
    HistexConfig cfg;
    cfg.seed = pin.seed;
    cfg.engine = IsolationLevel::kOracleReadConsistency;
    cfg.shards = pin.shards;
    cfg.txns = 200;
    HistexResult r = RunHistex(cfg);
    ASSERT_TRUE(r.ok) << cfg.ToString() << "\n" << r.detail;
    EXPECT_EQ(r.committed, pin.committed) << cfg.ToString();
    EXPECT_EQ(r.aborted, pin.aborted) << cfg.ToString();
    EXPECT_EQ(r.blocked_steps, pin.blocked_steps) << cfg.ToString();
    EXPECT_EQ(r.forced_rollbacks, pin.forced_rollbacks) << cfg.ToString();
    EXPECT_EQ(r.report.edges_added, pin.edges) << cfg.ToString();
    EXPECT_EQ(r.stats.deadlock_aborts, pin.deadlocks) << cfg.ToString();
  }
}

TEST(HistexFuzz, SerializableSIPinned) {
  // Serializable SI's seeded runs, pinned literally: committed, aborted,
  // checker edges and SSI dangerous-structure refusals.  Any change to
  // which rw-antidependencies the engine tracks, or to which pivots it
  // refuses, moves a tuple.  The run size is fixed so HISTEX_TXNS cannot
  // change it.
  struct Pin {
    uint64_t seed;
    int shards;
    uint64_t committed, aborted, edges, ssi_aborts;
  };
  const std::vector<Pin> pins = {
      {1, 1, 111, 89, 248, 50},
      {2, 1, 122, 78, 301, 36},
      {3, 1, 113, 87, 248, 47},
      {4, 1, 128, 72, 269, 34},
      {5, 1, 110, 90, 245, 40},
      {1, 3, 129, 71, 322, 46},
      {2, 3, 140, 60, 407, 33},
      {3, 3, 135, 65, 343, 30},
      {4, 3, 147, 53, 356, 30},
      {5, 3, 124, 76, 309, 40},
  };
  for (const Pin& pin : pins) {
    HistexConfig cfg;
    cfg.seed = pin.seed;
    cfg.engine = IsolationLevel::kSerializableSI;
    cfg.shards = pin.shards;
    cfg.txns = 200;
    HistexResult r = RunHistex(cfg);
    ASSERT_TRUE(r.ok) << cfg.ToString() << "\n" << r.detail;
    EXPECT_EQ(r.committed, pin.committed) << cfg.ToString();
    EXPECT_EQ(r.aborted, pin.aborted) << cfg.ToString();
    EXPECT_EQ(r.report.edges_added, pin.edges) << cfg.ToString();
    EXPECT_EQ(r.stats.ssi_aborts, pin.ssi_aborts) << cfg.ToString();
  }
}

// --- the storage-backend dimension: the hash backend under the same
// adversarial coverage that found the PR 9 SI bug --------------------------

TEST(HistexFuzz, SnapshotIsolationHashBackend) {
  Sweep(IsolationLevel::kSnapshotIsolation, {}, 1, StorageBackend::kHash);
}

TEST(HistexFuzz, SerializableSIFullMixHashBackend) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation,
         IsolationLevel::kSerializableSI},
        1, StorageBackend::kHash);
}

TEST(HistexFuzz, OracleReadConsistencyHashBackend) {
  Sweep(IsolationLevel::kOracleReadConsistency, {}, 1, StorageBackend::kHash);
}

TEST(HistexFuzz, ShardedSerializableSIHashBackend) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kSnapshotIsolation, IsolationLevel::kSerializableSI},
        3, StorageBackend::kHash);
}

TEST(HistexFuzz, BackendsAgreeOnSeededRuns) {
  // The two backends must drive bit-identical histories: same commit and
  // abort counts, same certification totals, seed by seed.
  for (int s = 0; s < SeedsPerConfig(); ++s) {
    HistexConfig cfg;
    cfg.seed = 11 + static_cast<uint64_t>(s);
    cfg.engine = IsolationLevel::kSnapshotIsolation;
    cfg.txns = TxnsPerRun();
    cfg.backend = StorageBackend::kMap;
    HistexResult map_run = RunHistex(cfg);
    cfg.backend = StorageBackend::kHash;
    HistexResult hash_run = RunHistex(cfg);
    EXPECT_EQ(map_run.committed, hash_run.committed) << cfg.ToString();
    EXPECT_EQ(map_run.aborted, hash_run.aborted) << cfg.ToString();
    EXPECT_EQ(map_run.report.commits_certified,
              hash_run.report.commits_certified)
        << cfg.ToString();
    EXPECT_EQ(map_run.report.violations, hash_run.report.violations)
        << cfg.ToString();
  }
}

TEST(HistexFuzz, ShardedLockingSerializable) {
  Sweep(IsolationLevel::kSerializable, {}, 3);
}

TEST(HistexFuzz, ShardedSerializableSIFullMix) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation,
         IsolationLevel::kSerializableSI},
        3);
}

TEST(HistexFuzz, DeterministicReplay) {
  HistexConfig cfg;
  cfg.seed = 42;
  cfg.engine = IsolationLevel::kSerializable;
  cfg.txn_levels = {IsolationLevel::kReadCommitted,
                    IsolationLevel::kSerializable};
  cfg.txns = 150;
  HistexResult a = RunHistex(cfg);
  HistexResult b = RunHistex(cfg);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.blocked_steps, b.blocked_steps);
  EXPECT_EQ(a.forced_rollbacks, b.forced_rollbacks);
  EXPECT_EQ(a.report.edges_added, b.report.edges_added);
  EXPECT_EQ(a.report.violations, b.report.violations);
}

TEST(HistexFuzz, ConfigRoundTrip) {
  HistexConfig cfg;
  cfg.seed = 99;
  cfg.engine = IsolationLevel::kSerializableSI;
  cfg.txn_levels = {IsolationLevel::kReadCommitted,
                    IsolationLevel::kSerializableSI};
  cfg.shards = 4;
  cfg.sessions = 7;
  cfg.txns = 321;
  cfg.items = 9;
  cfg.max_ops = 5;
  cfg.checker_prune_interval = 16;
  cfg.backend = StorageBackend::kHash;
  auto parsed = ParseHistexConfig(cfg.ToString());
  ASSERT_TRUE(parsed.has_value()) << cfg.ToString();
  EXPECT_EQ(parsed->ToString(), cfg.ToString());

  // Empty mix round-trips too.
  cfg.txn_levels.clear();
  parsed = ParseHistexConfig(cfg.ToString());
  ASSERT_TRUE(parsed.has_value()) << cfg.ToString();
  EXPECT_EQ(parsed->ToString(), cfg.ToString());

  EXPECT_FALSE(ParseHistexConfig("seed=1 bogus=2").has_value());
  EXPECT_FALSE(ParseHistexConfig("engine=nope").has_value());
  EXPECT_FALSE(ParseHistexConfig("store=btree").has_value());

  // The store token defaults to the reference backend when absent (old
  // replay lines stay replayable).
  auto legacy = ParseHistexConfig("seed=3 engine=si");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->backend, StorageBackend::kMap);
}

TEST(HistexFuzz, UnhonorableMixFailsFast) {
  // The SI engine cannot honor a Repeatable Read contract; the run must
  // refuse the configuration, not run it silently at another level.
  HistexConfig cfg;
  cfg.engine = IsolationLevel::kSnapshotIsolation;
  cfg.txn_levels = {IsolationLevel::kRepeatableRead};
  cfg.txns = 10;
  HistexResult r = RunHistex(cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.committed, 0u);
}

// Replays the configuration in HISTEX_REPLAY verbatim — the debugging
// entry point named by `ReplayCommand`.
TEST(HistexFuzz, Replay) {
  const char* spec = std::getenv("HISTEX_REPLAY");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set HISTEX_REPLAY='seed=... engine=...' to replay";
  }
  auto cfg = ParseHistexConfig(spec);
  ASSERT_TRUE(cfg.has_value()) << "unparseable HISTEX_REPLAY: " << spec;
  HistexResult r = RunHistex(*cfg);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.report.violations, 0u) << r.report.ToString();
}

}  // namespace
}  // namespace critique
