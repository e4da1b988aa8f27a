// The fault-injection control file in the pseudo-filesystem.
//
// Mirrors the kernel's debugfs fault-injection knobs (failslab,
// fail_page_alloc, ...), collapsed into one text file with a line grammar:
//
//   cat /fault               current seed + every known point's spec/stats
//   echo "swap.write_error p=0.2" > /fault        arm a point
//   echo "alloc.frame_fail every=100" > /fault
//   echo "swap.write_error off" > /fault          disarm it
//   echo "seed 42" > /fault                       reseed every stream
//   echo "reset" > /fault                         disarm everything
//
// Writes are all-or-nothing: any bad directive rejects the whole write
// with a line-numbered error and leaves the plane untouched.
#pragma once

#include <string>

#include "dbgfs/pseudo_fs.hpp"
#include "fault/fault.hpp"

namespace daos::dbgfs {

/// Mounts `path` on `fs` backed by `plane`. Both pointers must outlive the
/// returned handle.
MountHandle FaultFs(PseudoFs* fs, fault::FaultPlane* plane,
                    std::string path = "/fault");

}  // namespace daos::dbgfs
