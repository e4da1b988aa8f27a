#include "damos/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "damos/parser.hpp"
#include "util/text.hpp"

namespace daos::damos {
namespace {

// Failure backoff: after the k-th consecutive error-only pass a scheme is
// parked for aggregation_interval << min(k, kMaxBackoffExp) — capped so a
// persistently failing scheme is still re-armed to probe for recovery
// (2^6 = 64 aggregations, ~6.4 s under paper settings).
constexpr std::uint32_t kMaxBackoffExp = 6;

// The DAMOS stats every scheme slot publishes, as
// "<prefix>.scheme<i>.<name>".
constexpr struct {
  const char* name;
  std::uint64_t SchemeStats::*field;
} kStatRows[] = {
    {"nr_tried", &SchemeStats::nr_tried},
    {"sz_tried", &SchemeStats::sz_tried},
    {"nr_applied", &SchemeStats::nr_applied},
    {"sz_applied", &SchemeStats::sz_applied},
    {"errors", &SchemeStats::nr_errors},
    {"backoffs", &SchemeStats::nr_backoffs},
    {"qt_exceeds", &SchemeStats::qt_exceeds},
    {"sz_quota_exceeded", &SchemeStats::sz_quota_exceeded},
    {"wmark_deactivations", &SchemeStats::nr_wmark_deactivations},
};

}  // namespace

void SchemesEngine::Attach(damon::DamonContext& ctx) {
  ctx.AddAggregationHook(
      [this](damon::DamonContext& c, SimTimeUs now) { Apply(c, now); });
}

bool SchemesEngine::InstallFromText(std::string_view text,
                                    std::vector<std::string>* errors) {
  ParseResult parsed = ParseSchemes(text);
  if (!parsed.ok()) {
    if (errors != nullptr) {
      for (const ParseError& e : parsed.errors)
        errors->push_back(LineError(e.line_number, e.message));
    }
    return false;
  }
  Install(std::move(parsed.schemes));
  return true;
}

void SchemesEngine::BindTelemetry(telemetry::MetricsRegistry& registry,
                                  telemetry::TraceBuffer* trace,
                                  std::string_view prefix) {
  registry_ = &registry;
  trace_ = trace;
  prefix_ = std::string(prefix);
  RebindMirror();  // no catch-up: counts before the bind stay unpublished
}

void SchemesEngine::RebindMirror() {
  mirror_.Clear();
  mirror_stale_ = false;
  if (registry_ == nullptr) return;
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    const std::string base = prefix_ + ".scheme" + std::to_string(i) + ".";
    const SchemeStats& st = schemes_[i].stats();
    for (const auto& row : kStatRows)
      mirror_.Bind(*registry_, base + row.name, &(st.*row.field));
  }
  mirror_.Rebase();
}

SchemesEngine::CommitOutcome SchemesEngine::CommitSchemes(
    std::vector<Scheme> schemes) {
  CommitOutcome outcome;
  runtime_.resize(schemes_.size());
  governor_.EnsureSlots(schemes_.size());

  std::vector<SlotRuntime> new_runtime(schemes.size());
  std::vector<governor::Governor::SlotState> new_slots(schemes.size());
  std::vector<bool> old_taken(schemes_.size(), false);
  for (std::size_t nj = 0; nj < schemes.size(); ++nj) {
    Scheme& incoming = schemes[nj];
    std::size_t match = schemes_.size();
    for (std::size_t oi = 0; oi < schemes_.size(); ++oi) {
      if (old_taken[oi]) continue;
      if (schemes_[oi].bounds() == incoming.bounds()) {
        match = oi;
        break;
      }
    }
    if (match == schemes_.size()) {
      ++outcome.fresh;  // no identity match: cold stats, cold runtime
      continue;
    }
    old_taken[match] = true;
    ++outcome.carried;
    const Scheme& old = schemes_[match];
    incoming.stats() = old.stats();
    new_runtime[nj] = runtime_[match];
    new_slots[nj] = governor_.ExportSlot(match);
    // Reset only what changed: a new quota spec starts a fresh charge
    // window, a new watermark spec re-arms the gate from its default.
    if (incoming.policy().quota != old.policy().quota) {
      new_slots[nj].quota = governor::QuotaState{};
      ++outcome.quota_resets;
    }
    if (incoming.policy().wmarks != old.policy().wmarks) {
      new_slots[nj].wmark_active = true;
      new_slots[nj].next_wmark_check = 0;
      incoming.stats().wmark_active = true;
    }
  }

  schemes_ = std::move(schemes);
  runtime_ = std::move(new_runtime);
  governor_.Reset(schemes_.size());
  for (std::size_t i = 0; i < schemes_.size(); ++i)
    governor_.ImportSlot(i, new_slots[i]);
  RebindMirror();
  return outcome;
}

SchemesEngine::SlotRuntime SchemesEngine::ExportSlotRuntime(
    std::size_t scheme_index) const {
  return scheme_index < runtime_.size() ? runtime_[scheme_index]
                                        : SlotRuntime{};
}

void SchemesEngine::ImportSlotRuntime(std::size_t scheme_index,
                                      const SlotRuntime& rt) {
  if (scheme_index >= runtime_.size()) runtime_.resize(scheme_index + 1);
  runtime_[scheme_index] = rt;
}

void SchemesEngine::Apply(damon::DamonContext& ctx, SimTimeUs now) {
  if (disarmed_) return;  // degraded mode: monitoring-only, schemes idle
  // Schemes were reinstalled or reset since the last pass.
  if (mirror_stale_ ||
      (registry_ != nullptr &&
       mirror_.size() != std::size(kStatRows) * schemes_.size()))
    RebindMirror();
  runtime_.resize(schemes_.size());
  governor_.EnsureSlots(schemes_.size());
  const damon::MonitoringAttrs& attrs = ctx.attrs();

  // Per-pass aggregates, so the backoff decision sees the whole pass (a
  // scheme failing on one region but applying on another is degraded, not
  // dead). Kept outside the region loops to preserve the original
  // targets->regions->schemes application order exactly.
  struct PassAgg {
    std::uint64_t tried = 0;
    std::uint64_t applied_bytes = 0;
    std::uint64_t errors = 0;
    std::uint64_t quota_blocked = 0;
    std::uint64_t quota_blocked_bytes = 0;
  };
  std::vector<PassAgg> pass(schemes_.size());
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    if (runtime_[si].backoff_until != 0 && now < runtime_[si].backoff_until)
      schemes_[si].stats().nr_skipped += 1;
  }

  // Governor plan phase: watermark gate + quota window roll per scheme.
  // A disarmed policy returns the default plan through a single branch,
  // leaving the region loop below bit-identical to the ungoverned engine.
  std::vector<governor::PassPlan> plans(schemes_.size());
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    Scheme& scheme = schemes_[si];
    plans[si] =
        governor_.PlanPass(si, scheme.policy(), scheme.action(), now);
    if (scheme.policy().wmarks.armed()) {
      scheme.stats().wmark_active = plans[si].wmark_active;
      if (plans[si].wmark_transition) {
        if (!plans[si].wmark_active) {
          scheme.stats().nr_wmark_deactivations += 1;
        }
        if (trace_ != nullptr) {
          // kWatermark: id=scheme slot, arg0=sampled metric (permille),
          // arg1=new activation state (1 = active).
          trace_->Push({now, telemetry::EventKind::kWatermark,
                        static_cast<std::uint32_t>(si),
                        plans[si].wmark_metric,
                        plans[si].wmark_active ? 1u : 0u, 0});
        }
      }
    }
  }

  // Prioritization pre-walk: schemes whose budget needs a min-score cutoff
  // see their matching set once before any application, so the cutoff is
  // computed from the same regions the apply loop will visit.
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    if (!plans[si].wants_facts) continue;
    if (runtime_[si].backoff_until != 0 && now < runtime_[si].backoff_until)
      continue;  // parked: the apply loop will not visit it either
    std::vector<governor::RegionFacts> facts;
    for (damon::DamonTarget& target : ctx.targets()) {
      for (damon::Region& region : target.regions) {
        if (!schemes_[si].Matches(region, attrs)) continue;
        facts.push_back(governor::RegionFacts{region.size(),
                                              region.nr_accesses, region.age});
      }
    }
    governor_.FinishPlan(&plans[si], facts, si);
  }

  for (damon::DamonTarget& target : ctx.targets()) {
    for (damon::Region& region : target.regions) {
      for (std::size_t si = 0; si < schemes_.size(); ++si) {
        Scheme& scheme = schemes_[si];
        if (runtime_[si].backoff_until != 0 &&
            now < runtime_[si].backoff_until) {
          continue;  // parked by the failure backoff
        }
        const governor::PassPlan& plan = plans[si];
        if (plan.skip) continue;  // watermark-inactive: not even "tried"
        if (!scheme.Matches(region, attrs)) continue;
        if (plan.prioritized) {
          const governor::RegionFacts facts{region.size(),
                                            region.nr_accesses, region.age};
          if (governor::ScoreRegion(facts, plan.scale, plan.weights,
                                    plan.cold_first) < plan.min_score) {
            continue;  // budget reserved for higher-priority regions
          }
        }
        std::uint64_t attempt = region.size();
        if (plan.governed) {
          attempt = governor_.ClipToBudget(si, region.size());
          if (attempt == 0) {
            scheme.stats().qt_exceeds += 1;
            scheme.stats().sz_quota_exceeded += region.size();
            pass[si].quota_blocked += 1;
            pass[si].quota_blocked_bytes += region.size();
            continue;
          }
          // Attempt-based: charged before the action runs, so a failing
          // device cannot launder extra budget.
          governor_.Charge(si, scheme.action(), attempt);
        }
        scheme.stats().nr_tried += 1;
        scheme.stats().sz_tried += attempt;
        std::uint64_t errors = 0;
        const std::uint64_t applied = target.primitives->ApplyAction(
            scheme.action(), region.start, region.start + attempt, now,
            &errors);
        pass[si].tried += 1;
        pass[si].applied_bytes += applied;
        pass[si].errors += errors;
        if (applied > 0) {
          scheme.stats().nr_applied += 1;
          scheme.stats().sz_applied += applied;
        }
        scheme.stats().nr_errors += errors;
        if (trace_ != nullptr && applied > 0) {
          // kSchemeApply: id=scheme slot, arg0..1=applied range, arg2=bytes
          // applied (range end is quota-clipped when governed).
          trace_->Push({now, telemetry::EventKind::kSchemeApply,
                        static_cast<std::uint32_t>(si), region.start,
                        region.start + attempt, applied});
        }
      }
    }
  }

  // One kQuotaExceeded tracepoint per scheme per pass that hit the wall,
  // not one per blocked region — the wall is a pass-level condition.
  if (trace_ != nullptr) {
    for (std::size_t si = 0; si < schemes_.size(); ++si) {
      if (pass[si].quota_blocked == 0) continue;
      // kQuotaExceeded: id=scheme slot, arg0=regions blocked this pass,
      // arg1=bytes blocked, arg2=bytes charged in the current window.
      trace_->Push({now, telemetry::EventKind::kQuotaExceeded,
                    static_cast<std::uint32_t>(si), pass[si].quota_blocked,
                    pass[si].quota_blocked_bytes,
                    governor_.quota_state(si).charged_sz});
    }
  }

  // Post-pass backoff bookkeeping. A pass that only produced errors parks
  // the scheme exponentially; any pass that applied bytes re-arms it.
  for (std::size_t si = 0; si < schemes_.size(); ++si) {
    SlotRuntime& rt = runtime_[si];
    if (pass[si].errors > 0 && pass[si].applied_bytes == 0 &&
        pass[si].tried > 0) {
      const std::uint32_t exp = std::min(rt.backoff_exp, kMaxBackoffExp);
      const SimTimeUs park = attrs.aggregation_interval << (exp + 1);
      rt.backoff_until = now + park;
      ++rt.backoff_exp;
      schemes_[si].stats().nr_backoffs += 1;
      if (trace_ != nullptr) {
        // kSchemeBackoff: id=scheme slot, arg0=errors this pass, arg1=park
        // duration (µs), arg2=consecutive error-only passes.
        trace_->Push({now, telemetry::EventKind::kSchemeBackoff,
                      static_cast<std::uint32_t>(si), pass[si].errors, park,
                      rt.backoff_exp});
      }
    } else if (pass[si].applied_bytes > 0) {
      rt.backoff_exp = 0;
      rt.backoff_until = 0;
    }
  }
  mirror_.Sync();
}

std::string SchemesEngine::StatsText() const {
  std::string out;
  for (const Scheme& s : schemes_) {
    out += s.ToText();
    out += ": ";
    out += FormatStats(s.stats());
    out += '\n';
  }
  return out;
}

void SchemesEngine::ResetStats() {
  for (Scheme& s : schemes_) s.stats() = SchemeStats{};
  mirror_stale_ = true;
}

}  // namespace daos::damos
