// Black-box isolation diagnosis: probing each engine must identify its own
// published row (Hermitage applied to ourselves), and a deliberately
// broken engine must be flagged as matching nothing.

#include <gtest/gtest.h>

#include "critique/engine/engine_factory.h"
#include "critique/engine/locking_engine.h"
#include "critique/engine/si_engine.h"
#include "critique/harness/diagnosis.h"

namespace critique {
namespace {

class DiagnoseEveryEngine
    : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(DiagnoseEveryEngine, IdentifiesItself) {
  const IsolationLevel level = GetParam();
  auto d = DiagnoseEngine([level] { return CreateEngine(level); });
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_FALSE(d->exact_matches.empty())
      << IsolationLevelName(level) << "\n"
      << d->ToString();
  bool found = false;
  for (IsolationLevel match : d->exact_matches) {
    found |= match == level;
  }
  EXPECT_TRUE(found) << IsolationLevelName(level) << "\n" << d->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, DiagnoseEveryEngine, ::testing::ValuesIn(AllEngineLevels()),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      std::string name = IsolationLevelName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DiagnosisTest, NullFactoryProductIsAGracefulError) {
  // A factory that yields no engine must surface InvalidArgument from the
  // probe machinery, never a crash.
  auto out = RunVariantOn([] { return std::unique_ptr<Engine>(); },
                          Table4Scenarios()[0].variants[0]);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(DiagnosisTest, KnownAliases) {
  // Cursor Stability and Oracle Read Consistency share an anomaly row:
  // the probe cannot (and should not) separate them.
  auto d = DiagnoseEngine(
      [] { return CreateEngine(IsolationLevel::kCursorStability); });
  ASSERT_TRUE(d.ok());
  std::set<IsolationLevel> matches(d->exact_matches.begin(),
                                   d->exact_matches.end());
  EXPECT_TRUE(matches.count(IsolationLevel::kCursorStability));
  EXPECT_TRUE(matches.count(IsolationLevel::kOracleReadConsistency));

  // Likewise SERIALIZABLE and the SSI extension.
  auto d2 = DiagnoseEngine(
      [] { return CreateEngine(IsolationLevel::kSerializable); });
  ASSERT_TRUE(d2.ok());
  std::set<IsolationLevel> matches2(d2->exact_matches.begin(),
                                    d2->exact_matches.end());
  EXPECT_TRUE(matches2.count(IsolationLevel::kSerializable));
  EXPECT_TRUE(matches2.count(IsolationLevel::kSerializableSI));
}

TEST(DiagnosisTest, ReportMentionsMeasuredCells) {
  auto d = DiagnoseEngine(
      [] { return CreateEngine(IsolationLevel::kSnapshotIsolation); });
  ASSERT_TRUE(d.ok());
  std::string report = d->ToString();
  EXPECT_NE(report.find("A5B: Possible"), std::string::npos);
  EXPECT_NE(report.find("Snapshot Isolation"), std::string::npos);
}

TEST(DiagnosisTest, EagerSIStillDiagnosesAsSI) {
  // The first-updater-wins ablation changes the mechanism, not the row.
  auto d = DiagnoseEngine([] {
    SnapshotIsolationOptions opts;
    opts.eager_write_conflicts = true;
    return std::make_unique<SnapshotIsolationEngine>(
        IsolationLevel::kSnapshotIsolation, opts);
  });
  ASSERT_TRUE(d.ok());
  bool si = false;
  for (IsolationLevel l : d->exact_matches) {
    si |= l == IsolationLevel::kSnapshotIsolation;
  }
  EXPECT_TRUE(si) << d->ToString();
}

}  // namespace
}  // namespace critique
