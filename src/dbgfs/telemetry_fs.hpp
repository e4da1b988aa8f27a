// Read-only telemetry files in the pseudo-filesystem.
//
// The kernel DAMON exposes its stats through sysfs/debugfs files read with
// `cat`; this registers the reproduction's equivalent view of the unified
// telemetry plane:
//
//   <root>/metrics   Prometheus exposition text of the whole registry
//   <root>/events    JSONL dump of the tracepoint ring buffer
//
// Both files render on read — the hot path never formats anything.
#pragma once

#include <string>

#include "dbgfs/pseudo_fs.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"

namespace daos::dbgfs {

/// Mounts the files under `root`. `registry` is required; `trace` may be
/// null, in which case only `<root>/metrics` is mounted. All pointers must
/// outlive the returned handle.
MountHandle TelemetryFs(PseudoFs* fs, const telemetry::MetricsRegistry* registry,
                        const telemetry::TraceBuffer* trace = nullptr,
                        std::string root = "/telemetry");

}  // namespace daos::dbgfs
