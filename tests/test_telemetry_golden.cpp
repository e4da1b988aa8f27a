// Telemetry golden: FNV-1a digests of the full registry and trace dumps
// (Prometheus text plus tracepoint JSONL) across twelve scenarios.
//
// Every other telemetry test checks a handful of names right after one
// run. This one pins every published value, including after the paths
// where a layer's own counter struct is replaced or reset underneath its
// registry mirror: a transactional commit, a checkpoint restore after an
// injected kdamond crash, a scheme reinstall, ResetStats, and a late bind
// of the monitor and the schemes engine. Registry counters are monotonic
// across all of these; a mirror that re-publishes restored or reset
// values, or counts an event twice, moves a digest.
//
// Dumps are taken between System::Run calls only, which is where dbgfs,
// daos_ctl and the benches read the registry. The goldens in
// tests/golden/telemetry_digests.csv were recorded before the layers
// switched to telemetry::CounterMirror; regenerate only for an intentional
// change to what the registry publishes, with DAOS_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "damon/monitor.hpp"
#include "damon/primitives.hpp"
#include "damos/engine.hpp"
#include "damos/parser.hpp"
#include "fault/fault.hpp"
#include "fleet/controller.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "sim/tier.hpp"
#include "telemetry/export.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace daos {
namespace {

constexpr Addr kBase = 1 * GiB;
constexpr std::uint64_t kHeap = 64 * MiB;

workload::WorkloadProfile SmallProfile() {
  workload::WorkloadProfile p;
  p.name = "test/telemetry_golden";
  p.suite = "test";
  p.data_bytes = 64 * MiB;
  p.runtime_s = 20;
  p.noise = 0;
  p.groups = {workload::GroupSpec{0.25, 0.0, 1.0, 0.3},
              workload::GroupSpec{0.25, 3.0, 0.4, 0.3},
              workload::GroupSpec{0.5, -1.0, 1.0, 0.2}};
  return p;
}

workload::WorkloadProfile TierProfile() {
  workload::WorkloadProfile p = SmallProfile();
  p.name = "test/telemetry_golden_tier";
  p.pattern = workload::PatternKind::kPhased;
  p.phase_period_s = 5.0;
  p.mem_boundness = 0.6;
  p.thp_gain = 0.0;
  return p;
}

analysis::ExperimentOptions RunOptions() {
  analysis::ExperimentOptions opt;
  opt.max_time = 30 * kUsPerSec;
  opt.apply_runtime_noise = false;
  opt.seed = 3;
  return opt;
}

std::vector<damos::Scheme> SchemesOrDie(const char* text) {
  damos::ParseResult parsed = damos::ParseSchemes(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::move(parsed.schemes);
}

/// One scenario's dump: every stage appends the whole registry and trace.
struct Dump {
  std::string text;

  void Stage(const char* name, const telemetry::MetricsRegistry& registry,
             const telemetry::TraceBuffer* trace) {
    text += "## ";
    text += name;
    text += '\n';
    text += telemetry::ToPrometheusText(registry);
    if (trace != nullptr) text += telemetry::ToJsonl(*trace);
  }
};

std::string RunWorkloadDump(const workload::WorkloadProfile& profile,
                            analysis::Config config,
                            const analysis::ExperimentOptions& opt,
                            const std::vector<damos::Scheme>* schemes =
                                nullptr) {
  const analysis::ExperimentResult r =
      analysis::RunWorkload(profile, config, opt, schemes);
  return telemetry::ToPrometheusText(r.telemetry);
}

std::string TieredDump(bool migrate_schemes) {
  analysis::ExperimentOptions opt = RunOptions();
  std::string error;
  EXPECT_TRUE(sim::ParseTierGeometry(
      "dram 12M\ncxl 24M lat=0.4\nfile 48M lat=2.0 bw=1G", &opt.tiers,
      &error))
      << error;
  if (!migrate_schemes) {
    opt.tier_policy = sim::TierPolicy::kLruDemote;
    return RunWorkloadDump(TierProfile(), analysis::Config::kRec, opt);
  }
  const std::vector<damos::Scheme> schemes = SchemesOrDie(
      "min max 1 max min max migrate_hot quota_sz=16M quota_reset_ms=500\n"
      "min max min min 1s max migrate_cold quota_sz=16M "
      "quota_reset_ms=500\n");
  return RunWorkloadDump(TierProfile(), analysis::Config::kSchemes, opt,
                         &schemes);
}

/// A supervised kdamond taken through every path that replaces or resets
/// the stack's counter structs: install, transactional commit, checkpoint,
/// an injected daemon.crash restored from that checkpoint, a reinstall and
/// ResetStats.
std::string SupervisedDump() {
  fault::FaultPlane plane;
  sim::System system(sim::MachineSpec{"golden", 4, 3.0, 4 * GiB},
                     sim::SwapConfig::Zram());
  sim::AddressSpace space(1, &system.machine(), 3.0);
  lifecycle::SupervisorConfig config;
  config.checkpoint_interval = 500 * kUsPerMs;
  config.heartbeat_interval = 50 * kUsPerMs;
  config.heartbeat_timeout = 150 * kUsPerMs;
  config.restart_backoff = 50 * kUsPerMs;
  config.max_backoff_exp = 2;
  lifecycle::KdamondSupervisor supervisor(config);
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace(4096);
  Dump dump;

  space.Map(kBase, kHeap, "heap");
  space.TouchRange(kBase, kBase + kHeap, true, 0);
  sim::AddressSpace* heap = &space;
  supervisor.SetTargetFactory([heap](damon::DamonContext& ctx) {
    ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(heap));
  });
  supervisor.AttachTo(system);
  system.SetFaultPlane(&plane);
  system.AttachTelemetry(&registry, &trace, 100 * kUsPerMs);
  supervisor.BindTelemetry(registry, &trace);

  std::string error;
  EXPECT_TRUE(supervisor.InstallSchemesFromText(
      "min max min min min max stat\nmin max min min 1s max pageout\n",
      &error))
      << error;
  system.Run(2 * kUsPerSec);
  dump.Stage("install", registry, &trace);

  // A rejected commit counts a rollback; the good one carries the stat
  // scheme by bounds identity and adds a quota to it.
  EXPECT_FALSE(supervisor.CommitFromText("bogus directive\n", &error));
  EXPECT_TRUE(supervisor.CommitFromText(
      "attrs 5000 200000 1000000 10 1000\n"
      "scheme min max min min min max stat quota_sz=16M\n"
      "scheme min max min min 2s max pageout quota_sz=8M "
      "quota_reset_ms=500\n",
      &error))
      << error;
  system.Run(1 * kUsPerSec);
  dump.Stage("commit", registry, &trace);

  supervisor.CaptureCheckpointText();
  system.Run(300 * kUsPerMs);
  fault::FaultSpec once;
  once.once_at = 1;
  plane.Arm(fault::kDaemonCrash, once);
  system.Run(2 * kUsPerSec);
  EXPECT_GE(supervisor.counters().crashes, 1u);
  EXPECT_GE(supervisor.counters().restores, 1u);
  dump.Stage("crash_restore", registry, &trace);

  EXPECT_TRUE(supervisor.RestoreFromText(supervisor.last_checkpoint(),
                                         &error))
      << error;
  system.Run(1 * kUsPerSec);
  dump.Stage("explicit_restore", registry, &trace);

  EXPECT_TRUE(supervisor.InstallSchemesFromText(
      "min max min min 1s max pageout\n", &error))
      << error;
  system.Run(1 * kUsPerSec);
  dump.Stage("reinstall", registry, &trace);

  supervisor.engine().ResetStats();
  system.Run(1 * kUsPerSec);
  dump.Stage("reset_stats", registry, &trace);

  // A crash loop exhausts the restart budget: degraded mode.
  fault::FaultSpec loop;
  loop.every_nth = 40;
  plane.Arm(fault::kDaemonCrash, loop);
  system.Run(3 * kUsPerSec);
  plane.Point(fault::kDaemonCrash).Disarm();
  system.Run(1 * kUsPerSec);
  EXPECT_GE(supervisor.counters().degraded_entries, 1u);
  dump.Stage("crash_loop", registry, &trace);
  return dump.text;
}

/// A monitor and engine that run unbound for a while, then bind: the
/// monitor catches up on everything it counted, the engine publishes only
/// what it counts from then on.
std::string LateBindDump() {
  sim::System system(sim::MachineSpec::I3Metal().GuestOf(),
                     sim::SwapConfig::Zram(), sim::ThpMode::kNever,
                     5 * kUsPerMs);
  sim::Process& proc = system.AddProcess(
      workload::ToProcessParams(SmallProfile()),
      workload::MakeSource(SmallProfile(), 7));
  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(), 5);
  damos::SchemesEngine engine;
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace(4096);
  Dump dump;

  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(
      &proc.space(), system.machine().costs().monitor_check_us));
  EXPECT_TRUE(engine.InstallFromText(
      "min max min min min max stat\nmin max min min 2s max pageout\n"));
  engine.Attach(ctx);
  system.AttachTelemetry(&registry, &trace);
  system.RegisterDaemon(
      [&ctx](SimTimeUs now, SimTimeUs q) { return ctx.Step(now, q); });

  system.Run(4 * kUsPerSec);
  ctx.BindTelemetry(registry, &trace);
  engine.BindTelemetry(registry, &trace);
  dump.Stage("bound", registry, &trace);
  system.Run(1 * kUsPerSec);
  dump.Stage("one_more_second", registry, &trace);
  return dump.text;
}

/// The sim's failure and maintenance counters: a tight machine with THP,
/// swap write errors, allocation failures, daemon overruns and OOM kills,
/// monitored under a pageout scheme and a watermark-gated one.
std::string FaultedDump() {
  fault::FaultPlane plane(/*seed=*/11);
  std::string error;
  EXPECT_TRUE(plane.Configure(
      "swap.write_error p=0.3; thp.collapse_fail p=0.3; "
      "daemon.overrun p=0.05",
      &error))
      << error;
  sim::System system(sim::MachineSpec{"tight", 4, 3.0, 128 * MiB},
                     sim::SwapConfig::File(64 * MiB), sim::ThpMode::kAlways,
                     5 * kUsPerMs);
  system.SetFaultPlane(&plane);
  telemetry::MetricsRegistry registry;
  telemetry::TraceBuffer trace(4096);
  plane.BindTelemetry(registry);
  system.AttachTelemetry(&registry, &trace, 250 * kUsPerMs);
  Dump dump;

  workload::WorkloadProfile small = SmallProfile();
  workload::WorkloadProfile big = SmallProfile();
  big.name = "test/telemetry_golden_big";
  big.data_bytes = 96 * MiB;
  small.data_bytes = 40 * MiB;
  // Both run forever, so each Run lasts its full span after the kills.
  sim::ProcessParams small_params = workload::ToProcessParams(small);
  small_params.run_forever = true;
  sim::Process& proc = system.AddProcess(std::move(small_params),
                                         workload::MakeSource(small, 5));
  sim::ProcessParams big_params = workload::ToProcessParams(big);
  big_params.run_forever = true;
  system.AddProcess(std::move(big_params), workload::MakeSource(big, 6));

  damon::DamonContext ctx(damon::MonitoringAttrs::PaperDefaults(), 9);
  ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(
      &proc.space(), system.machine().costs().monitor_check_us));
  damos::SchemesEngine engine;
  engine.SetMachine(&system.machine());
  EXPECT_TRUE(engine.InstallFromText(
      "min max min min 1s max pageout\n"
      "min max min min 2s max pageout wmarks=free_mem_rate,900,500,100 "
      "wmark_interval_ms=200\n"));
  engine.Attach(ctx);
  ctx.BindTelemetry(registry, &trace);
  engine.BindTelemetry(registry, &trace);
  system.RegisterDaemon(
      [&ctx](SimTimeUs now, SimTimeUs q) { return ctx.Step(now, q); });

  system.Run(4 * kUsPerSec);
  dump.Stage("pressure", registry, &trace);
  // Every swap-out fails for a while: pageout passes become error-only
  // and park their scheme.
  EXPECT_TRUE(plane.Configure("swap.write_error every=1", &error)) << error;
  system.Run(3 * kUsPerSec);
  dump.Stage("swap_dead", registry, &trace);
  EXPECT_TRUE(plane.Configure("swap.write_error p=0.3; alloc.frame_fail p=0.01",
                              &error))
      << error;
  system.Run(10 * kUsPerSec);
  dump.Stage("recovered", registry, &trace);
  return dump.text;
}

/// A 4-shard fleet: one promoted rollout, then one rolled back by the
/// error gate.
std::string FleetDump() {
  fleet::FleetConfig config;
  config.nr_shards = 4;
  config.workload.nr_processes = 8;
  config.workload.rss_per_process = 16 * MiB;
  config.workload.cold_touch_period_s = 0;
  config.machine = {"golden-fleet", 4, 3.0, GiB};
  config.swap = sim::SwapConfig::File(GiB);
  config.quantum = 5 * kUsPerMs;
  config.epoch = 250 * kUsPerMs;
  config.use_env_faults = false;
  config.initial_schemes = "min max min min 6s max stat";
  fleet::FleetController fleet(config);
  telemetry::MetricsRegistry registry;
  fleet.BindTelemetry(registry);
  Dump dump;

  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();
  fleet::RolloutSpec spec;
  spec.bundle_text = "scheme min max min min 1s max pageout\n";
  spec.canary_frac = 0.25;
  spec.ramp = {0.5, 1.0};
  spec.gate_epochs = 2;
  spec.timeout_epochs = 40;
  std::string error;
  EXPECT_TRUE(fleet.StartRollout(spec, &error)) << error;
  EXPECT_EQ(fleet.RunRollout(), fleet::RolloutState::kPromoted);
  dump.Stage("promoted", registry, nullptr);

  EXPECT_TRUE(fleet.ConfigureFaults("swap.write_error p=1.0", &error))
      << error;
  spec.bundle_text = "scheme min max min min 2s max pageout\n";
  spec.ramp = {1.0};
  spec.max_scheme_errors = 0;
  EXPECT_TRUE(fleet.StartRollout(spec, &error)) << error;
  EXPECT_EQ(fleet.RunRollout(), fleet::RolloutState::kRolledBack);
  for (int epoch = 0; epoch < 4; ++epoch) fleet.RunEpoch();
  dump.Stage("rolled_back", registry, nullptr);
  return dump.text;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::size_t Lines(const std::string& text) {
  std::size_t n = 0;
  for (const char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

TEST(TelemetryGoldenTest, RegistryAndTraceDumpsMatchGoldens) {
  if (std::getenv("DAOS_FAULTS") != nullptr)
    GTEST_SKIP() << "golden digests assume a fault-free run";

  std::map<std::string, std::string> dumps;
  const analysis::Config configs[] = {
      analysis::Config::kBaseline, analysis::Config::kRec,
      analysis::Config::kPrec,     analysis::Config::kThp,
      analysis::Config::kEthp,     analysis::Config::kPrcl};
  for (const analysis::Config config : configs) {
    dumps["run_" + std::string(analysis::ConfigName(config))] =
        RunWorkloadDump(SmallProfile(), config, RunOptions());
  }
  dumps["run_tier_lru"] = TieredDump(/*migrate_schemes=*/false);
  dumps["run_tier_migrate"] = TieredDump(/*migrate_schemes=*/true);
  dumps["supervised"] = SupervisedDump();
  dumps["late_bind"] = LateBindDump();
  dumps["faulted"] = FaultedDump();
  dumps["fleet"] = FleetDump();
  ASSERT_EQ(dumps.size(), 12u);

  std::map<std::string, std::string> actual;
  for (const auto& [name, text] : dumps) {
    char line[64];
    std::snprintf(line, sizeof line, "%016llx,%zu",
                  static_cast<unsigned long long>(Fnv1a(text)), Lines(text));
    actual[name] = line;
  }

  const std::string golden_path =
      std::string(DAOS_GOLDEN_DIR) + "/telemetry_digests.csv";
  if (std::getenv("DAOS_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden_path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << golden_path;
    std::fprintf(f, "scenario,digest,lines\n");
    for (const auto& [name, line] : actual)
      std::fprintf(f, "%s,%s\n", name.c_str(), line.c_str());
    std::fclose(f);
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::FILE* f = std::fopen(golden_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "missing golden " << golden_path
                        << " (run once with DAOS_UPDATE_GOLDEN=1)";
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);  // header
  std::map<std::string, std::string> golden;
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    golden[line.substr(0, comma)] = line.substr(comma + 1);
  }
  std::fclose(f);

  ASSERT_EQ(golden.size(), actual.size());
  for (const auto& [name, line] : actual) {
    ASSERT_TRUE(golden.count(name)) << name;
    EXPECT_EQ(golden[name], line)
        << name << ": published telemetry diverged from the recorded dump";
  }
}

}  // namespace
}  // namespace daos
