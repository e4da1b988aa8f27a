#include "dbgfs/fault_fs.hpp"

namespace daos::dbgfs {

MountHandle FaultFs(PseudoFs* fs, fault::FaultPlane* plane, std::string path) {
  return fs->Mount(
      path, {{"",
              [plane] { return plane->StatusText(); },
              [plane](std::string_view content, std::string* error) {
                return plane->Configure(content, error);
              }}});
}

}  // namespace daos::dbgfs
