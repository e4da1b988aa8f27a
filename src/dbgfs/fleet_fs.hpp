// The fleet rollout control files in the pseudo-filesystem.
//
// Exposes one FleetController (src/fleet) the way /lifecycle exposes a
// single supervisor:
//
//   cat /fleet/status             rollout state machine, fleet counters,
//                                 and one line per shard
//   echo "canary 0.125"   > /fleet/rollout        (one write, many lines)
//   echo "scheme ..."    >> (same write)
//                                 stage a canary rollout; a rejected spec
//                                 fails the write and changes nothing
//   cat /fleet/rollout            outcome of the most recent rollout
//   cat /fleet/quarantine         "add <i>" per quarantined shard — valid
//                                 input for the write below (round-trips)
//   echo "add 3" > /fleet/quarantine              operator quarantine;
//                                 also "release <i>" and "clear"
#pragma once

#include <string>

#include "dbgfs/pseudo_fs.hpp"
#include "fleet/controller.hpp"

namespace daos::dbgfs {

/// Mounts "<root>/status", "<root>/rollout" and "<root>/quarantine" on
/// `fs`, backed by `fleet`. Both pointers must outlive the returned handle.
MountHandle FleetFs(PseudoFs* fs, fleet::FleetController* fleet,
                    std::string root = "/fleet");

}  // namespace daos::dbgfs
