// The chaos campaign engine's control files in the pseudo-filesystem.
//
//   cat /chaos/status         config echo, campaign/violation/eval counters,
//                             per-oracle pass/fail tallies, last repro line
//   echo "run 8" > /chaos/status      run the next 8 generated campaigns
//   cat /chaos/last_repro     one-line repro of the latest violation
//                             ("none" while every oracle has held)
//
// Writes run synchronously on the writing thread — the engine is not
// thread-safe, matching every other dbgfs-backed subsystem.
#pragma once

#include <string>

#include "chaos/engine.hpp"
#include "dbgfs/pseudo_fs.hpp"

namespace daos::dbgfs {

/// Mounts `<root>/status` and `<root>/last_repro` on `fs` backed by
/// `engine`. Both pointers must outlive the returned handle.
MountHandle ChaosFs(PseudoFs* fs, chaos::ChaosEngine* engine,
                    std::string root = "/chaos");

}  // namespace daos::dbgfs
