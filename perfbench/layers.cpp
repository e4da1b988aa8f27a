#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "sim/system.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace daos;
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Splits the host time of one monitor Step into phases. The check loops
/// run hundreds of IsYoung/MkOld calls back to back, too short to time one
/// by one without distorting them; instead the clock is read only when the
/// monitor moves from one phase to another (first call of a loop, an
/// aggregation hook, a layout query, the end of the Step), and the time
/// since the previous transition goes to the phase that just ended. A check
/// phase therefore spans its whole loop, including the monitor's own loop
/// body between the calls.
class MonitorClock {
 public:
  enum Phase { kSelf, kMkOld, kYoung, kRanges, kSchemes, kPhases };

  explicit MonitorClock(LayerStats* stats) : stats_(stats) {}

  void BeginStep() {
    phase_ = kSelf;
    since_ = Clock::now();
  }
  void EndStep() {
    Enter(kSelf);
    ++stats_->steps;
  }
  void Enter(Phase phase) {
    const auto now = Clock::now();
    busy_s_[phase_] += Seconds(now - since_);
    phase_ = phase;
    since_ = now;
  }
  void EnterIfNot(Phase phase) {
    if (phase_ != phase) Enter(phase);
  }
  void LeaveChecks() {
    if (phase_ == kMkOld || phase_ == kYoung) Enter(kSelf);
  }

  /// Folds the phase totals into the item's stats.
  void Flush() {
    stats_->step_s += busy_s_[kSelf] + busy_s_[kMkOld] + busy_s_[kYoung] +
                      busy_s_[kRanges] + busy_s_[kSchemes];
    stats_->check_s += busy_s_[kMkOld] + busy_s_[kYoung];
    stats_->ranges_s += busy_s_[kRanges];
    stats_->schemes_s += busy_s_[kSchemes];
  }

 private:
  LayerStats* stats_;
  Phase phase_ = kSelf;
  Clock::time_point since_{};
  double busy_s_[kPhases] = {};
};

class TracedSource final : public sim::AccessSource {
 public:
  TracedSource(std::unique_ptr<sim::AccessSource> inner, LayerStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void BuildLayout(sim::AddressSpace& space) override {
    const auto t0 = Clock::now();
    inner_->BuildLayout(space);
    stats_->emit_s += Seconds(Clock::now() - t0);
  }

  sim::TouchStats EmitQuantum(sim::AddressSpace& space, SimTimeUs now,
                              SimTimeUs quantum) override {
    const auto t0 = Clock::now();
    const sim::TouchStats touched = inner_->EmitQuantum(space, now, quantum);
    stats_->emit_s += Seconds(Clock::now() - t0);
    ++stats_->emit_calls;
    stats_->pages_touched += touched.pages;
    return touched;
  }

 private:
  std::unique_ptr<sim::AccessSource> inner_;
  LayerStats* stats_;
};

class TracedPrimitives final : public damon::Primitives {
 public:
  TracedPrimitives(std::unique_ptr<damon::Primitives> inner,
                   LayerStats* stats, MonitorClock* clock)
      : inner_(std::move(inner)), stats_(stats), clock_(clock) {}

  std::vector<damon::AddrRange> TargetRanges() override {
    clock_->Enter(MonitorClock::kRanges);
    ++stats_->ranges_calls;
    std::vector<damon::AddrRange> ranges = inner_->TargetRanges();
    clock_->Enter(MonitorClock::kSelf);
    return ranges;
  }

  std::uint64_t LayoutGeneration() const override {
    clock_->LeaveChecks();
    return inner_->LayoutGeneration();
  }

  void MkOld(Addr a, SimTimeUs now) override {
    clock_->EnterIfNot(MonitorClock::kMkOld);
    inner_->MkOld(a, now);
  }

  bool IsYoung(Addr a) const override {
    clock_->EnterIfNot(MonitorClock::kYoung);
    const bool young = inner_->IsYoung(a);
    ++stats_->checks;
    stats_->young += young ? 1 : 0;
    return young;
  }

  double CheckCostUs() const override { return inner_->CheckCostUs(); }

  std::uint64_t ApplyAction(damon::DamosAction action, Addr start, Addr end,
                            SimTimeUs now, std::uint64_t* errors) override {
    const auto t0 = Clock::now();
    const std::uint64_t bytes =
        inner_->ApplyAction(action, start, end, now, errors);
    stats_->apply_s += Seconds(Clock::now() - t0);
    ++stats_->apply_calls;
    return bytes;
  }

 private:
  std::unique_ptr<damon::Primitives> inner_;
  LayerStats* stats_;
  MonitorClock* clock_;
};

// The two helpers below repeat analysis/experiment.cpp's private ones; the
// traced item must make exactly the decisions RunWorkload makes.
bool NeedsMonitoring(analysis::Config config) {
  switch (config) {
    case analysis::Config::kRec:
    case analysis::Config::kPrec:
    case analysis::Config::kEthp:
    case analysis::Config::kPrcl:
    case analysis::Config::kSchemes:
      return true;
    default:
      return false;
  }
}

double GaussianDraw(Rng& rng) {
  const double u1 = std::max(1e-12, rng.NextDouble());
  const double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace

LayerStats& LayerStats::operator+=(const LayerStats& o) {
  item_s += o.item_s;
  sim_s += o.sim_s;
  emit_s += o.emit_s;
  step_s += o.step_s;
  check_s += o.check_s;
  ranges_s += o.ranges_s;
  schemes_s += o.schemes_s;
  apply_s += o.apply_s;
  emit_calls += o.emit_calls;
  pages_touched += o.pages_touched;
  steps += o.steps;
  ranges_calls += o.ranges_calls;
  checks += o.checks;
  young += o.young;
  apply_calls += o.apply_calls;
  aggregations += o.aggregations;
  regions_sum += o.regions_sum;
  quanta_total += o.quanta_total;
  return *this;
}

analysis::ExperimentResult TracedRunWorkload(
    const workload::WorkloadProfile& profile, analysis::Config config,
    const analysis::ExperimentOptions& options,
    const std::vector<damos::Scheme>* custom_schemes, LayerStats* stats) {
  const auto item_t0 = Clock::now();
  double sim_s = 0.0;

  auto t0 = Clock::now();
  const sim::MachineSpec guest = options.host.GuestOf();
  const sim::ThpMode thp = config == analysis::Config::kThp
                               ? sim::ThpMode::kAlways
                               : sim::ThpMode::kNever;
  auto system = std::make_unique<sim::System>(guest, options.swap, thp,
                                              options.quantum);
  if (options.tiers.tiered()) {
    std::string tier_error;
    if (!DAOS_CHECK(system->machine().SetTierGeometry(options.tiers,
                                                      &tier_error))) {
      analysis::ExperimentResult failed;
      failed.workload = profile.name;
      failed.config = config;
      return failed;
    }
    system->machine().set_tier_policy(options.tier_policy);
  }
  sim_s += Seconds(Clock::now() - t0);

  telemetry::MetricsRegistry registry;
  system->AttachTelemetry(&registry);

  sim::Process& proc = system->AddProcess(
      workload::ToProcessParams(profile),
      std::make_unique<TracedSource>(
          workload::MakeSource(profile, options.seed), stats));
  if (options.record_tap != nullptr)
    proc.space().SetAccessTap(options.record_tap);

  std::unique_ptr<damon::DamonContext> ctx;
  damos::SchemesEngine engine;
  MonitorClock clock(stats);
  if (NeedsMonitoring(config)) {
    ctx = std::make_unique<damon::DamonContext>(
        options.attrs, options.seed * 7919 + 13,
        system->machine().costs().monitor_interference_us);
    std::unique_ptr<damon::Primitives> primitives;
    if (config == analysis::Config::kPrec) {
      primitives = std::make_unique<damon::PaddrPrimitives>(
          &system->machine(),
          system->machine().costs().monitor_check_paddr_us);
    } else {
      primitives = std::make_unique<damon::VaddrPrimitives>(
          &proc.space(), system->machine().costs().monitor_check_us);
    }
    ctx->AddTarget(
        std::make_unique<TracedPrimitives>(std::move(primitives), stats,
                                           &clock));

    std::vector<damos::Scheme> schemes;
    if (custom_schemes != nullptr) {
      schemes = *custom_schemes;
    } else if (config == analysis::Config::kEthp) {
      schemes = analysis::EthpSchemes();
    } else if (config == analysis::Config::kPrcl) {
      schemes = analysis::PrclSchemes();
    }
    ctx->BindTelemetry(registry);
    ctx->AddAggregationHook(
        [stats, &clock](damon::DamonContext& c, SimTimeUs) {
          clock.Enter(MonitorClock::kSchemes);
          ++stats->aggregations;
          stats->regions_sum += c.TotalRegions();
        });
    if (!schemes.empty()) {
      engine.Install(std::move(schemes));
      engine.Attach(*ctx);
      engine.SetMachine(&system->machine());
      engine.BindTelemetry(registry);
    }
    ctx->AddAggregationHook(
        [&clock](damon::DamonContext&, SimTimeUs) {
          clock.Enter(MonitorClock::kSelf);
        });

    system->RegisterDaemon(
        [&ctx, &clock](SimTimeUs now, SimTimeUs quantum) {
          clock.BeginStep();
          const double interference = ctx->Step(now, quantum);
          clock.EndStep();
          return interference;
        },
        [&ctx](SimTimeUs now) { return ctx->NextEventAt(now); });
  }

  t0 = Clock::now();
  const sim::SystemMetrics metrics = system->Run(options.max_time);
  sim_s += Seconds(Clock::now() - t0);
  stats->quanta_total += metrics.elapsed_s * kUsPerSec /
                         static_cast<double>(options.quantum);

  analysis::ExperimentResult result;
  result.workload = profile.name;
  result.config = config;
  const sim::ProcessMetrics& pm = metrics.processes.front();
  result.runtime_s = pm.runtime_s;
  result.finished = pm.finished;
  result.avg_rss_bytes = pm.avg_rss_bytes;
  result.peak_rss_bytes = pm.peak_rss_bytes;
  result.major_faults = pm.major_faults;
  result.interference_s = pm.interference_s;
  if (ctx) {
    registry.GetGauge("damon.ctx0.cpu_fraction")
        .Set(ctx->CpuFraction(
            static_cast<SimTimeUs>(metrics.elapsed_s * kUsPerSec)));
  }
  result.telemetry = registry.Snapshot();
  result.monitor_cpu_fraction =
      result.telemetry.Value("damon.ctx0.cpu_fraction");
  for (const damos::Scheme& s : engine.schemes())
    result.scheme_stats.push_back(s.stats());

  if (options.apply_runtime_noise && profile.noise > 0.0) {
    Rng noise_rng(options.seed * 1000003 +
                  std::hash<std::string>{}(profile.name));
    result.runtime_s *= 1.0 + profile.noise * GaussianDraw(noise_rng);
  }

  // Teardown: the monitor goes first (as in RunWorkload, which declares
  // it after the System), then the System, whose page tables are the bulk
  // of the release work.
  clock.Flush();
  ctx.reset();
  t0 = Clock::now();
  system.reset();
  sim_s += Seconds(Clock::now() - t0);

  stats->sim_s += sim_s;
  stats->item_s += Seconds(Clock::now() - item_t0);
  return result;
}

}  // namespace perfbench
