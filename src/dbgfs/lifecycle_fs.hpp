// The kdamond lifecycle control files in the pseudo-filesystem.
//
// Exposes one KdamondSupervisor (src/lifecycle) the way the kernel exposes
// DAMON's sysfs "state"/"commit" knobs:
//
//   cat /lifecycle/state          supervisor state machine + counters
//   echo "attrs 5000 100000 1000000 10 1000" > /lifecycle/commit
//   echo "scheme 4K max min max 5s max pageout" >> (same write)
//                                 stage a transactional reconfiguration;
//                                 a rejected bundle fails the write and
//                                 changes nothing
//   cat /lifecycle/checkpoint     capture + return a checkpoint now
//   echo "<checkpoint text>" > /lifecycle/checkpoint
//                                 rebuild the stack from checkpoint text
//
// Reads of /lifecycle/commit return the outcome of the most recent commit
// attempt ("staged", "committed: ...", "rejected: ...").
#pragma once

#include <string>

#include "dbgfs/pseudo_fs.hpp"
#include "lifecycle/supervisor.hpp"

namespace daos::dbgfs {

/// Mounts "<root>/state", "<root>/commit" and "<root>/checkpoint" on `fs`,
/// backed by `supervisor`. Both pointers must outlive the returned handle.
MountHandle LifecycleFs(PseudoFs* fs, lifecycle::KdamondSupervisor* supervisor,
                        std::string root = "/lifecycle");

}  // namespace daos::dbgfs
