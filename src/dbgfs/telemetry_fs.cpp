#include "dbgfs/telemetry_fs.hpp"

#include "telemetry/export.hpp"

namespace daos::dbgfs {

MountHandle TelemetryFs(PseudoFs* fs, const telemetry::MetricsRegistry* registry,
                        const telemetry::TraceBuffer* trace, std::string root) {
  std::vector<FileSpec> files = {
      {"/metrics", [registry] { return telemetry::ToPrometheusText(*registry); },
       nullptr}};
  if (trace != nullptr) {
    files.push_back(
        {"/events", [trace] { return telemetry::ToJsonl(*trace); }, nullptr});
  }
  return fs->Mount(root, std::move(files));
}

}  // namespace daos::dbgfs
