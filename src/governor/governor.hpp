// The DAMOS governor: the control plane the SchemesEngine consults before
// and during every apply pass.
//
// Three cooperating mechanisms, mirroring what upstream DAMON grew after
// the paper (quotas, under-quota prioritization, watermarks):
//
//   1. Quotas (quota.hpp) bound the bytes / modelled action time a scheme
//      may spend per reset window, with charge state that survives scheme
//      backoff and watermark re-arm.
//   2. Prioritization (priority.hpp) spends an insufficient budget on the
//      best-scoring regions first instead of address order, through an
//      adaptive min-score cutoff recomputed every pass.
//   3. Watermarks gate a scheme on a machine metric (free_mem_rate):
//      while the metric says the system is healthy (above `high`) — or in
//      a low-memory emergency (below `low`) — the scheme is deactivated
//      entirely and its pass does nothing; it re-arms once the metric
//      falls back to `mid`.
//
// The Governor holds only *runtime* state (charges, watermark activation,
// check deadlines) per engine slot; the configuration lives in each
// scheme's GovernorPolicy. The engine drives region iteration and stats —
// the governor decides skip / clip / charge. A disarmed policy takes one
// branch in PlanPass and leaves the apply loop bit-identical to the
// ungoverned engine.
#pragma once

#include <cstddef>
#include <vector>

#include "governor/policy.hpp"
#include "governor/priority.hpp"
#include "governor/quota.hpp"

namespace daos::governor {

/// The per-scheme, per-pass decision handed to the engine.
struct PassPlan {
  bool skip = false;         // watermark-inactive: the scheme does nothing
  bool governed = false;     // quota armed: clip-and-charge applies
  bool wants_facts = false;  // prioritized: engine must collect RegionFacts
  bool prioritized = false;  // min-score cutoff active (set by FinishPlan)
  // Watermark observation of this pass (valid when the gate is armed).
  bool wmark_active = true;
  bool wmark_transition = false;  // activation state flipped this pass
  std::uint32_t wmark_metric = 0;  // sampled metric, permille
  // Prioritization parameters (valid when `prioritized`).
  std::uint32_t min_score = 0;
  ScoreScale scale;
  PrioWeights weights;
  bool cold_first = false;
};

class Governor {
 public:
  /// Metric + cost source. Watermarks without a bound machine fail open
  /// (scheme stays active); time quotas fall back to the default CostModel.
  void BindMachine(const sim::Machine* machine) noexcept {
    machine_ = machine;
  }

  /// Drops all runtime state (fresh schemes, fresh budgets/gates).
  void Reset(std::size_t nr_schemes) {
    slots_.assign(nr_schemes, SlotState{});
  }
  /// Grows/shrinks the slot table without resetting surviving slots.
  void EnsureSlots(std::size_t nr_schemes) { slots_.resize(nr_schemes); }
  std::size_t nr_slots() const noexcept { return slots_.size(); }

  /// Watermark gate + quota window roll for slot `si`. Cheap single branch
  /// when `policy` is disarmed. When the returned plan `wants_facts`, the
  /// engine collects the matching regions' facts and calls FinishPlan
  /// before applying.
  PassPlan PlanPass(std::size_t si, const GovernorPolicy& policy,
                    damon::DamosAction action, SimTimeUs now);

  /// Computes the adaptive min-score cutoff from the matching set.
  void FinishPlan(PassPlan* plan, const std::vector<RegionFacts>& facts,
                  std::size_t si);

  /// Bytes of `region_bytes` the slot's remaining window budget admits,
  /// aligned down to whole pages (0 = quota exhausted for this region).
  std::uint64_t ClipToBudget(std::size_t si,
                             std::uint64_t region_bytes) const noexcept;

  /// Charges an attempted application (call once per admitted region,
  /// before the action runs — failures still consume budget).
  void Charge(std::size_t si, damon::DamosAction action,
              std::uint64_t bytes) noexcept;

  /// Runtime introspection (tests, dbgfs, stats).
  const QuotaState& quota_state(std::size_t si) const {
    return slots_[si].quota;
  }
  bool wmark_active(std::size_t si) const { return slots_[si].wmark_active; }

  /// One slot's full runtime state, for checkpoint/restore and for commits
  /// that carry charge state across a scheme reconfiguration. A kdamond
  /// rebuilt mid-window must NOT get a fresh budget: importing the
  /// captured slot carries the window's charges, so a crash cannot
  /// launder quota.
  struct SlotState {
    QuotaState quota;
    bool wmark_active = true;       // kernel default: schemes start active
    SimTimeUs next_wmark_check = 0;
  };
  SlotState ExportSlot(std::size_t si) const { return slots_[si]; }
  void ImportSlot(std::size_t si, const SlotState& state) {
    if (si >= slots_.size()) slots_.resize(si + 1);
    slots_[si] = state;
  }

 private:
  const sim::CostModel& costs() const noexcept;

  const sim::Machine* machine_ = nullptr;
  std::vector<SlotState> slots_;
};

}  // namespace daos::governor
