#include "governor/governor.hpp"

namespace daos::governor {

const sim::CostModel& Governor::costs() const noexcept {
  static const sim::CostModel kDefault{};
  return machine_ != nullptr ? machine_->costs() : kDefault;
}

PassPlan Governor::PlanPass(std::size_t si, const GovernorPolicy& policy,
                            damon::DamosAction action, SimTimeUs now) {
  PassPlan plan;
  if (!policy.armed()) return plan;  // the disarmed single branch

  SlotState& slot = slots_[si];

  if (policy.wmarks.armed() && machine_ != nullptr) {
    const WatermarkSpec& w = policy.wmarks;
    if (now >= slot.next_wmark_check) {
      std::uint32_t metric = 0;
      switch (w.metric) {
        case WatermarkMetric::kFreeMemRate:
          metric = machine_->FreeMemRatePermille();
          break;
        case WatermarkMetric::kNone:
          break;
      }
      const bool was_active = slot.wmark_active;
      if (metric > w.high || metric < w.low) {
        // Healthy (lots of free memory) or emergency (so little that the
        // kernel's own reclaim owns the field): stand down.
        slot.wmark_active = false;
      } else if (!slot.wmark_active && metric <= w.mid) {
        // Hysteresis: a deactivated scheme re-arms only once the metric
        // falls to mid, not the moment it dips under high.
        slot.wmark_active = true;
      }
      slot.next_wmark_check = now + w.interval;
      plan.wmark_transition = was_active != slot.wmark_active;
      plan.wmark_metric = metric;
    }
    plan.wmark_active = slot.wmark_active;
    if (!slot.wmark_active) {
      plan.skip = true;
      return plan;  // deactivated: no quota roll, no stats, no work
    }
  }

  if (policy.quota.armed()) {
    slot.quota.RollWindow(policy.quota, action, costs(), now);
    plan.governed = true;
    plan.wants_facts = policy.prio.armed();
    plan.weights = policy.prio;
    plan.cold_first = ColdFirst(action);
  }
  return plan;
}

void Governor::FinishPlan(PassPlan* plan,
                          const std::vector<RegionFacts>& facts,
                          std::size_t si) {
  if (!plan->wants_facts) return;
  plan->wants_facts = false;
  if (facts.empty()) return;

  for (const RegionFacts& f : facts) plan->scale.Fold(f);
  PriorityHistogram histogram;
  for (const RegionFacts& f : facts) {
    histogram.Add(ScoreRegion(f, plan->scale, plan->weights, plan->cold_first),
                  f.sz);
  }
  plan->min_score = histogram.MinScoreFor(slots_[si].quota.remaining());
  plan->prioritized = true;
}

std::uint64_t Governor::ClipToBudget(std::size_t si,
                                     std::uint64_t region_bytes) const
    noexcept {
  const std::uint64_t remaining = slots_[si].quota.remaining();
  const std::uint64_t allow =
      region_bytes < remaining ? region_bytes : remaining;
  return allow & ~(kPageSize - 1);  // whole pages only
}

void Governor::Charge(std::size_t si, damon::DamosAction action,
                      std::uint64_t bytes) noexcept {
  slots_[si].quota.Charge(bytes, action, costs());
}

}  // namespace daos::governor
