// Debugfs view of the machine's tiered-memory substrate:
//
//   /tier/status    (read-only)  per-tier occupancy, policy, migration and
//                                hot-miss counters — Machine::TierStatusText
//   /tier/geometry  (read/write) the installed TierGeometry in the same
//                                `<kind> <capacity> [lat=..] [bw=..]` grammar
//                                ParseTierGeometry accepts; writes are
//                                rejected with line-accurate errors, and any
//                                write while frames are in use fails like
//                                offlining populated memory would
#pragma once

#include <string>

#include "dbgfs/pseudo_fs.hpp"

namespace daos::sim {
class Machine;
}  // namespace daos::sim

namespace daos::dbgfs {

/// Mounts `<dir>/status` and `<dir>/geometry` on `fs` backed by `machine`.
/// Both pointers must outlive the returned handle.
MountHandle TierFs(PseudoFs* fs, sim::Machine* machine,
                   std::string dir = "/tier");

}  // namespace daos::dbgfs
