#include "dbgfs/lifecycle_fs.hpp"

namespace daos::dbgfs {

MountHandle LifecycleFs(PseudoFs* fs, lifecycle::KdamondSupervisor* supervisor,
                        std::string root) {
  return fs->Mount(
      root,
      {{"/state", [supervisor] { return supervisor->StateText(); }, nullptr},
       {"/commit",
        [supervisor] { return supervisor->last_commit_result() + "\n"; },
        [supervisor](std::string_view content, std::string* error) {
          return supervisor->CommitFromText(content, error);
        }},
       {"/checkpoint",
        // Reading captures: the debugfs analogue of a state dump that is
        // also valid input for the restore write below.
        [supervisor] { return supervisor->CaptureCheckpointText(); },
        [supervisor](std::string_view content, std::string* error) {
          return supervisor->RestoreFromText(content, error);
        }}});
}

}  // namespace daos::dbgfs
