#include "critique/engine/engine_factory.h"

#include "critique/engine/locking_engine.h"
#include "critique/engine/si_engine.h"

namespace critique {

std::unique_ptr<Engine> CreateEngine(IsolationLevel level) {
  if (IsLockingLevel(level)) {
    return std::make_unique<LockingEngine>(level);
  }
  switch (level) {
    case IsolationLevel::kSnapshotIsolation:
    case IsolationLevel::kSerializableSI:
    case IsolationLevel::kOracleReadConsistency:
      return std::make_unique<SnapshotIsolationEngine>(level);
    default:
      return nullptr;
  }
}

}  // namespace critique
