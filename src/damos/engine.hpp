// The Memory Management Schemes Engine (paper §3.2, Figure 1).
//
// The engine registers itself as an aggregation hook on a DamonContext.
// At every aggregation interval it walks the fresh monitoring results,
// finds regions fulfilling each installed scheme's conditions, and applies
// the scheme's action through the target's primitives — the kernel-space
// half of DAOS that lets users optimize memory with "no code, just simple
// configuration schemes".
#pragma once

#include <string>
#include <vector>

#include "damon/monitor.hpp"
#include "damos/scheme.hpp"
#include "governor/governor.hpp"
#include "telemetry/counter_mirror.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"

namespace daos::damos {

class SchemesEngine {
 public:
  SchemesEngine() = default;
  explicit SchemesEngine(std::vector<Scheme> schemes)
      : schemes_(std::move(schemes)) {}

  /// Registers the engine on `ctx`. The engine must outlive the context's
  /// use of the hook.
  void Attach(damon::DamonContext& ctx);

  /// Replaces the installed schemes (the "debugfs write" of §3.6). Returns
  /// false and leaves the installed schemes unchanged on parse errors,
  /// which are reported via `errors` when non-null.
  bool InstallFromText(std::string_view text,
                       std::vector<std::string>* errors = nullptr);
  void Install(std::vector<Scheme> schemes) {
    schemes_ = std::move(schemes);
    runtime_.clear();  // fresh schemes start un-parked
    governor_.Reset(schemes_.size());  // fresh budgets, gates re-armed
    mirror_stale_ = true;
  }

  /// Binds the machine whose metrics feed watermark gates and whose cost
  /// model prices time quotas. Optional: without it, watermarks fail open
  /// and time quotas use the default CostModel.
  void SetMachine(const sim::Machine* machine) noexcept {
    governor_.BindMachine(machine);
  }

  /// The governor runtime (budget charges, watermark state). Exposed for
  /// tests and dbgfs introspection; the mutable overload exists for the
  /// lifecycle supervisor's checkpoint import.
  const governor::Governor& governor() const noexcept { return governor_; }
  governor::Governor& governor() noexcept { return governor_; }

  /// How a transactional scheme commit mapped new slots onto old ones.
  struct CommitOutcome {
    std::size_t carried = 0;        // slots whose stats/runtime survived
    std::size_t fresh = 0;          // slots with no old identity match
    std::size_t quota_resets = 0;   // carried slots whose quota spec changed
  };

  /// Replaces the installed schemes *transactionally* (upstream DAMON's
  /// damos commit): each new scheme that shares its bounds identity with an
  /// installed one inherits that slot's stats, failure-backoff runtime and
  /// governor charge state — a retune of policy knobs must not reset the
  /// window's spent budget (and must not launder a fresh one). Only what
  /// changed is reset: a changed quota spec drops the charge state, a
  /// changed watermark spec drops the gate runtime, an unmatched scheme
  /// starts cold. The caller validates the scheme text beforehand;
  /// this call cannot fail.
  CommitOutcome CommitSchemes(std::vector<Scheme> schemes);

  /// Degraded mode (lifecycle crash-loop containment): while disarmed, the
  /// apply pass returns immediately — monitoring continues, no action
  /// runs, no stats or budgets move. Re-arming resumes exactly where the
  /// pass state was left.
  void SetDisarmed(bool disarmed) noexcept { disarmed_ = disarmed; }
  bool disarmed() const noexcept { return disarmed_; }

  /// One slot's failure-backoff state (mirrors upstream DAMOS quotas: a
  /// scheme whose action keeps failing must not burn its whole budget on a
  /// broken device every aggregation), exported for checkpoints alongside
  /// the governor's SlotState.
  struct SlotRuntime {
    std::uint32_t backoff_exp = 0;   // consecutive error-only passes
    SimTimeUs backoff_until = 0;     // parked until then (0 = active)
  };
  SlotRuntime ExportSlotRuntime(std::size_t scheme_index) const;
  void ImportSlotRuntime(std::size_t scheme_index, const SlotRuntime& rt);

  std::vector<Scheme>& schemes() noexcept { return schemes_; }
  const std::vector<Scheme>& schemes() const noexcept { return schemes_; }

  /// One application pass over the context's current regions; normally
  /// driven by the aggregation hook, public for tests.
  void Apply(damon::DamonContext& ctx, SimTimeUs now);

  /// Serialized stats for every scheme ("debugfs read").
  std::string StatsText() const;
  void ResetStats();

  /// Publishes per-scheme DAMOS-stat counters
  /// ("<prefix>.scheme<i>.{nr_tried,sz_tried,nr_applied,sz_applied,errors,
  /// backoffs,qt_exceeds,sz_quota_exceeded,wmark_deactivations}") through
  /// `registry` and, when `trace` is non-null, a kSchemeApply tracepoint
  /// per applied region, a kSchemeBackoff tracepoint whenever a scheme is
  /// parked, a kQuotaExceeded tracepoint per pass that hit a quota wall,
  /// and a kWatermark tracepoint on every gate transition. Counters are
  /// per slot index and survive scheme reinstalls: the stats' growth is
  /// published at the end of each Apply, and the stats a scheme brings in
  /// through Install, a commit or a restore are never published.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     telemetry::TraceBuffer* trace = nullptr,
                     std::string_view prefix = "damos");

 private:
  /// Re-points the mirror at the current scheme vector's stats and drops
  /// whatever they hold now (not new events).
  void RebindMirror();

  std::vector<Scheme> schemes_;
  std::vector<SlotRuntime> runtime_;
  bool disarmed_ = false;
  governor::Governor governor_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::string prefix_;
  telemetry::CounterMirror mirror_;
  bool mirror_stale_ = false;  // schemes_ replaced or reset since the rebind
};

}  // namespace daos::damos
