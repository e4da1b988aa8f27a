// Layer tracing kit for the benchmark's traced run.
//
// Everything here times calls into the library from outside, through
// seams the library already exposes: an AccessSource decorator around
// workload::MakeSource, a Primitives decorator around the monitor's
// target primitives, the System daemon callback, and a pair of
// aggregation hooks placed around the hook the SchemesEngine attaches.
// TracedRunWorkload assembles the same stack analysis::RunWorkload builds
// with those decorators in place; main.cpp checks that every traced item
// returns a result bit-identical to its untraced run.
#pragma once

#include <cstdint>

#include "analysis/experiment.hpp"

namespace perfbench {

/// Per-item busy times (host seconds) and counts, accumulated by the
/// decorators of one traced item. Each item is confined to one worker
/// thread, so no field needs synchronization.
struct LayerStats {
  double item_s = 0.0;      // the whole traced item
  double sim_s = 0.0;       // System construction + Run + teardown
  double emit_s = 0.0;      // AccessSource::BuildLayout + EmitQuantum
  double step_s = 0.0;      // daemon callback (DamonContext::Step)
  double check_s = 0.0;     // the MkOld and IsYoung loops of each Step
  double ranges_s = 0.0;    // Primitives::TargetRanges
  double schemes_s = 0.0;   // between the hook pair around the engine hook
  double apply_s = 0.0;     // Primitives::ApplyAction
  std::uint64_t emit_calls = 0;
  std::uint64_t pages_touched = 0;
  std::uint64_t steps = 0;
  std::uint64_t ranges_calls = 0;
  std::uint64_t checks = 0;       // IsYoung calls
  std::uint64_t young = 0;        // IsYoung calls that returned true
  std::uint64_t apply_calls = 0;
  std::uint64_t aggregations = 0;
  std::uint64_t regions_sum = 0;  // TotalRegions() summed per aggregation
  double quanta_total = 0.0;      // simulated time / quantum

  LayerStats& operator+=(const LayerStats& o);
};

/// analysis::RunWorkload, assembled from the same public parts with the
/// layer decorators in place. Fills `*stats` for this item.
daos::analysis::ExperimentResult TracedRunWorkload(
    const daos::workload::WorkloadProfile& profile,
    daos::analysis::Config config,
    const daos::analysis::ExperimentOptions& options,
    const std::vector<daos::damos::Scheme>* custom_schemes,
    LayerStats* stats);

}  // namespace perfbench
