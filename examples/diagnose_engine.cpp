// Black-box isolation diagnosis (Hermitage-style): hand the harness an
// engine — a stock level or anything plugged in through the engine SPI —
// and it tells you which published isolation level the engine actually
// provides, by running every Table 4 anomaly scenario against it.
//
// Build & run:  ./build/example_diagnose_engine

#include <cstdio>

#include "critique/engine/si_engine.h"
#include "critique/harness/diagnosis.h"

using namespace critique;

int main() {
  std::printf("Diagnosing engines by observable anomalies alone.\n\n");

  // Stock engines go through the level convenience...
  struct LevelSubject {
    const char* label;
    IsolationLevel level;
  };
  const LevelSubject levels[] = {
      {"a mystery engine (actually Locking READ COMMITTED)",
       IsolationLevel::kReadCommitted},
      {"a mystery engine (actually Snapshot Isolation)",
       IsolationLevel::kSnapshotIsolation},
      {"a mystery engine (actually the SSI extension)",
       IsolationLevel::kSerializableSI},
  };
  for (const LevelSubject& subject : levels) {
    std::printf("---- %s ----\n", subject.label);
    auto d = DiagnoseLevel(subject.level);
    if (!d.ok()) {
      std::printf("diagnosis failed: %s\n\n", d.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n", d->ToString().c_str());
  }

  // ...while custom builds plug in through the engine SPI — the same hook
  // `DbOptions::engine_factory` accepts.
  std::printf("---- a mystery engine (actually SI with eager write "
              "conflicts) ----\n");
  auto d = DiagnoseEngine([] {
    SnapshotIsolationOptions opts;
    opts.eager_write_conflicts = true;
    return std::make_unique<SnapshotIsolationEngine>(
        IsolationLevel::kSnapshotIsolation, opts);
  });
  if (d.ok()) {
    std::printf("%s\n", d->ToString().c_str());
  } else {
    std::printf("diagnosis failed: %s\n\n", d.status().ToString().c_str());
  }

  std::printf(
      "Note the aliases: Cursor Stability and Oracle Read Consistency\n"
      "share a Table 4 row, as do Locking SERIALIZABLE and the SSI\n"
      "extension — anomaly probing sees the guarantee, not the mechanism.\n");
  return 0;
}
