#include "sim/system.hpp"

#include <algorithm>

namespace daos::sim {

System::System(const MachineSpec& spec, const SwapConfig& swap, ThpMode thp,
               SimTimeUs quantum)
    : machine_(spec, swap, thp), quantum_(quantum) {
  // CI stress runs arm faults on unmodified binaries via DAOS_FAULTS /
  // DAOS_FAULT_SEED; when unset this is a nullptr and nothing changes.
  owned_faults_ = fault::FaultPlane::FromEnv();
  if (owned_faults_ != nullptr) SetFaultPlane(owned_faults_.get());
}

void System::SetFaultPlane(fault::FaultPlane* plane) {
  fault_plane_ = plane;
  machine_.SetFaultPlane(plane);
  daemon_overrun_ =
      plane != nullptr ? &plane->Point(fault::kDaemonOverrun) : nullptr;
  for (FaultPlaneListener& listener : fault_plane_listeners_)
    listener(plane);
}

void System::AddFaultPlaneListener(FaultPlaneListener listener) {
  listener(fault_plane_);
  fault_plane_listeners_.push_back(std::move(listener));
}

void System::OomKill(SimTimeUs now) {
  // Kill the largest-RSS unfinished process — the badness heuristic the
  // kernel's OOM killer reduces to when all tasks are equal otherwise.
  Process* victim = nullptr;
  for (auto& proc : processes_) {
    if (proc->finished()) continue;
    if (victim == nullptr || proc->ReadRssBytes() > victim->ReadRssBytes())
      victim = proc.get();
  }
  if (victim == nullptr) return;
  const std::uint64_t freed = victim->ReadRssBytes();
  victim->Kill(now);
  ++oom_kills_;
  if (trace_ != nullptr) {
    // id=pid, arg0=bytes freed by the kill.
    trace_->Push({now, telemetry::EventKind::kOomKill,
                  static_cast<std::uint32_t>(victim->pid()), freed, 0, 0});
  }
}

Process& System::AddProcess(ProcessParams params,
                            std::unique_ptr<AccessSource> source) {
  processes_.push_back(std::make_unique<Process>(
      std::move(params), &machine_, next_pid_++, std::move(source)));
  return *processes_.back();
}

void System::AttachTelemetry(telemetry::MetricsRegistry* registry,
                             telemetry::TraceBuffer* trace,
                             SimTimeUs interval) {
  registry_ = registry;
  trace_ = trace;
  telemetry_interval_ = std::max<SimTimeUs>(interval, quantum_);
  next_telemetry_ = clock_.Now();
  gauges_ = {};
  mirror_.Clear();
  tier_touches_seen_ = 0;
  interference_hist_ = nullptr;
  if (registry_ == nullptr) return;
  telemetry::MetricsRegistry& r = *registry_;
  interference_hist_ = &r.GetHistogram("sim.quantum.interference_us");
  gauges_.dram_used_bytes = &r.GetGauge("sim.dram_used_bytes");
  gauges_.used_frames = &r.GetGauge("sim.used_frames");
  gauges_.swap_used_slots = &r.GetGauge("sim.swap.used_slots");
  gauges_.processes_active = &r.GetGauge("sim.processes.active");

  // Counters: event rows first, in tracepoint order (id/args documented at
  // CounterMirror::BindTraced), then the event-less failure and
  // maintenance totals.
  const MachineCounters& mc = machine_.counters();
  const SwapDevice& swap = machine_.swap();
  using telemetry::EventKind;
  mirror_.BindTraced(r, "sim.reclaim.pages", &mc.reclaimed_pages,
                     EventKind::kReclaim);
  mirror_.BindTraced(r, "sim.swap.ins", &swap.total_ins(), EventKind::kSwapIn);
  mirror_.BindTraced(r, "sim.swap.outs", &swap.total_outs(),
                     EventKind::kSwapOut);
  mirror_.BindTraced(r, "sim.thp.collapses", &mc.khugepaged_collapses,
                     EventKind::kThpCollapse);
  mirror_.BindTraced(r, "sim.swap.errors", &mc.swap_write_errors,
                     EventKind::kSwapError);
  mirror_.BindTraced(r, "sim.oom_kills", &oom_kills_, EventKind::kOomKill);
  mirror_.Bind(r, "sim.reclaim.scans", &mc.reclaim_scans);
  mirror_.Bind(r, "sim.alloc.errors", &mc.alloc_stalls);
  mirror_.Bind(r, "sim.thp.collapse_errors", &mc.thp_collapse_errors);
  mirror_.Bind(r, "sim.daemon.overruns", &daemon_overruns_);
  mirror_.Bind(r, "sim.touchlog.gc_entries", &touchlog_gc_entries_);
  if (machine_.tiered()) {
    // The hot-cold mismatch gauge is the tuner's native score function
    // for tiering schemes: fraction (permille) of this interval's page
    // touches that landed outside the fast tier.
    gauges_.tier_fast_used_bytes = &r.GetGauge("sim.tier.fast_used_bytes");
    gauges_.tier_mismatch_permille =
        &r.GetGauge("sim.tier.hot_mismatch_permille");
    mirror_.Bind(r, "sim.tier.promoted_pages", &mc.tier_promoted_pages);
    mirror_.Bind(r, "sim.tier.demoted_pages", &mc.tier_demoted_pages);
    mirror_.Bind(r, "sim.tier.migrate_fails", &mc.tier_migrate_fails);
    mirror_.Bind(r, "sim.tier.promote_blocked", &mc.tier_promote_blocked);
    tier_slow_row_ =
        mirror_.Bind(r, "sim.tier.slow_touches", &mc.tier_slow_touches);
  }
}

void System::PublishTelemetry(SimTimeUs now) {
  // Gauges: current state of the machine.
  gauges_.dram_used_bytes->Set(
      static_cast<double>(machine_.dram_used_bytes()));
  gauges_.used_frames->Set(static_cast<double>(machine_.used_frames()));
  gauges_.swap_used_slots->Set(
      static_cast<double>(machine_.swap().used_slots()));
  std::uint64_t active = 0;
  for (const auto& proc : processes_)
    if (!proc->finished()) ++active;
  gauges_.processes_active->Set(static_cast<double>(active));

  if (gauges_.tier_mismatch_permille != nullptr) {
    gauges_.tier_fast_used_bytes->Set(
        static_cast<double>(machine_.FastTierUsedBytes()));
    const std::uint64_t tier_touches = machine_.counters().tier_touches;
    const std::uint64_t touches = tier_touches - tier_touches_seen_;
    tier_touches_seen_ = tier_touches;
    const std::uint64_t slow = mirror_.Pending(tier_slow_row_);
    if (touches > 0) {
      gauges_.tier_mismatch_permille->Set(
          static_cast<double>(slow * 1000 / touches));
    }
  }
  mirror_.Sync(now, trace_);
}

void System::Step() {
  const SimTimeUs now = clock_.Now();

  for (auto& proc : processes_) proc->RunQuantum(now, quantum_);

  double interference_us = 0.0;
  for (Daemon& daemon : daemons_) {
    interference_us += daemon(now, quantum_);
    if (fault::Fires(daemon_overrun_)) {
      // Daemon overshot its slice: a whole quantum of extra interference
      // lands on the workload (a kdamond stuck in a long rmap walk).
      interference_us += static_cast<double>(quantum_);
      ++daemon_overruns_;
    }
  }
  if (interference_hist_ != nullptr && interference_us > 0.0)
    interference_hist_->Observe(interference_us);
  if (interference_us > 0.0) {
    // Monitoring interference (TLB shootdowns from accessed-bit clearing)
    // hits whichever processes are running; distribute evenly.
    std::size_t active = 0;
    for (auto& proc : processes_)
      if (!proc->finished()) ++active;
    if (active > 0) {
      const double share = interference_us / static_cast<double>(active);
      for (auto& proc : processes_)
        if (!proc->finished()) proc->AddInterference(share);
    }
  }

  machine_.RunKhugepaged(now);
  machine_.RunTierBalancerIfNeeded(now);
  machine_.RunReclaimIfNeeded(now);
  if (machine_.TakeOomPending()) OomKill(now);

  if (now >= next_log_gc_) {
    next_log_gc_ = now + kUsPerSec;
    for (AddressSpace* space : machine_.spaces())
      touchlog_gc_entries_ += space->MaintainLogs(now);
  }

  if (registry_ != nullptr && now >= next_telemetry_) {
    next_telemetry_ = now + telemetry_interval_;
    PublishTelemetry(now);
  }

  clock_.Advance(quantum_);
}

SystemMetrics System::Run(SimTimeUs max_time) {
  const SimTimeUs deadline = clock_.Now() + max_time;
  // Stop early only when every *finite* process finished; a system of pure
  // servers (run_forever) runs to the deadline.
  auto finite_all_done = [this] {
    bool any_finite = false;
    for (const auto& p : processes_) {
      if (p->params().run_forever) continue;
      any_finite = true;
      if (!p->finished()) return false;
    }
    return any_finite;
  };
  while (clock_.Now() < deadline && !finite_all_done()) Step();

  SystemMetrics m;
  m.elapsed_s = static_cast<double>(clock_.Now()) / kUsPerSec;
  for (auto& proc : processes_) m.processes.push_back(proc->Metrics(clock_.Now()));
  m.reclaimed_pages = machine_.counters().reclaimed_pages;
  m.swap_ins = machine_.swap().total_ins();
  m.swap_outs = machine_.swap().total_outs();
  m.swap_used_slots = machine_.swap().used_slots();
  m.swap_write_errors = machine_.counters().swap_write_errors;
  m.oom_kills = oom_kills_;
  return m;
}

}  // namespace daos::sim
