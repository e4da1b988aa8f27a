#include "dbgfs/fleet_fs.hpp"

namespace daos::dbgfs {

MountHandle FleetFs(PseudoFs* fs, fleet::FleetController* fleet,
                    std::string root) {
  return fs->Mount(
      root,
      {{"/status", [fleet] { return fleet->StatusText(); }, nullptr},
       {"/rollout", [fleet] { return fleet->last_rollout_result() + "\n"; },
        [fleet](std::string_view content, std::string* error) {
          return fleet->StartRolloutFromText(content, error);
        }},
       {"/quarantine", [fleet] { return fleet->QuarantineText(); },
        [fleet](std::string_view content, std::string* error) {
          return fleet->WriteQuarantine(content, error);
        }}});
}

}  // namespace daos::dbgfs
