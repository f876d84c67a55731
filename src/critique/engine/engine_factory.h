#ifndef CRITIQUE_ENGINE_ENGINE_FACTORY_H_
#define CRITIQUE_ENGINE_ENGINE_FACTORY_H_

#include <memory>

#include "critique/engine/engine.h"

namespace critique {

/// Creates the engine implementing `level`: a `LockingEngine` for the
/// Table 2 levels, and a `SnapshotIsolationEngine` built with `level` as
/// its native level for Snapshot Isolation, the SSI extension, and Oracle
/// Read Consistency.
std::unique_ptr<Engine> CreateEngine(IsolationLevel level);

}  // namespace critique

#endif  // CRITIQUE_ENGINE_ENGINE_FACTORY_H_
