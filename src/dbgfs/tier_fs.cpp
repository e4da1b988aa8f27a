#include "dbgfs/tier_fs.hpp"

#include "sim/machine.hpp"
#include "sim/tier.hpp"

namespace daos::dbgfs {

MountHandle TierFs(PseudoFs* fs, sim::Machine* machine, std::string dir) {
  return fs->Mount(
      dir,
      {{"/status", [machine] { return machine->TierStatusText(); }, nullptr},
       {"/geometry", [machine] { return machine->tier_geometry().ToText(); },
        [machine](std::string_view content, std::string* error) {
          sim::TierGeometry geometry;
          if (!sim::ParseTierGeometry(content, &geometry, error)) return false;
          return machine->SetTierGeometry(geometry, error);
        }}});
}

}  // namespace daos::dbgfs
