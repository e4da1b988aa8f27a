#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

namespace daos::sim {
namespace {

class NullSource final : public AccessSource {
 public:
  void BuildLayout(AddressSpace& space) override {
    space.Map(0x10000, kPageSize, "stub");
  }
  TouchStats EmitQuantum(AddressSpace&, SimTimeUs, SimTimeUs) override {
    return {};
  }
};

ProcessParams Work(double seconds) {
  return {.name = "w",
          .total_work_us = seconds * kUsPerSec,
          .mem_boundness = 1.0};
}

TEST(SystemTest, ClockAdvancesByQuantum) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram(),
                ThpMode::kNever, 5 * kUsPerMs);
  EXPECT_EQ(system.Now(), 0u);
  system.Step();
  EXPECT_EQ(system.Now(), 5 * kUsPerMs);
}

TEST(SystemTest, RunStopsWhenAllProcessesFinish) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(0.05), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(10 * kUsPerSec);
  EXPECT_TRUE(m.processes.front().finished);
  EXPECT_LT(m.elapsed_s, 1.0);
}

TEST(SystemTest, RunStopsAtDeadline) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  ProcessParams forever = Work(0.001);
  forever.run_forever = true;
  system.AddProcess(std::move(forever), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(50 * kUsPerMs);
  EXPECT_NEAR(m.elapsed_s, 0.05, 0.002);
  EXPECT_FALSE(m.processes.front().finished);
}

TEST(SystemTest, EmptySystemRunsToDeadline) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  const SystemMetrics m = system.Run(10 * kUsPerMs);
  EXPECT_NEAR(m.elapsed_s, 0.01, 1e-6);
}

TEST(SystemTest, DaemonSteppedEveryQuantum) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(10), std::make_unique<NullSource>());
  int calls = 0;
  system.RegisterDaemon([&calls](SimTimeUs, SimTimeUs) {
    ++calls;
    return 0.0;
  });
  for (int i = 0; i < 7; ++i) system.Step();
  EXPECT_EQ(calls, 7);
}

TEST(SystemTest, DaemonInterferenceReachesProcesses) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& proc = system.AddProcess(Work(10), std::make_unique<NullSource>());
  system.RegisterDaemon([](SimTimeUs, SimTimeUs) { return 100.0; });
  for (int i = 0; i < 10; ++i) system.Step();
  EXPECT_NEAR(proc.Metrics(system.Now()).interference_s, 0.001, 1e-6);
}

TEST(SystemTest, InterferenceSplitAcrossActiveProcesses) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& a = system.AddProcess(Work(10), std::make_unique<NullSource>());
  Process& b = system.AddProcess(Work(10), std::make_unique<NullSource>());
  system.RegisterDaemon([](SimTimeUs, SimTimeUs) { return 100.0; });
  for (int i = 0; i < 10; ++i) system.Step();
  EXPECT_NEAR(a.Metrics(system.Now()).interference_s, 0.0005, 1e-6);
  EXPECT_NEAR(b.Metrics(system.Now()).interference_s, 0.0005, 1e-6);
}

TEST(SystemTest, MultipleProcessesAllFinish) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  system.AddProcess(Work(0.02), std::make_unique<NullSource>());
  system.AddProcess(Work(0.05), std::make_unique<NullSource>());
  system.AddProcess(Work(0.01), std::make_unique<NullSource>());
  const SystemMetrics m = system.Run(kUsPerSec);
  for (const ProcessMetrics& pm : m.processes) EXPECT_TRUE(pm.finished);
  EXPECT_EQ(m.processes.size(), 3u);
}

TEST(SystemTest, PidsAreSequential) {
  System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
  Process& a = system.AddProcess(Work(1), std::make_unique<NullSource>());
  Process& b = system.AddProcess(Work(1), std::make_unique<NullSource>());
  EXPECT_EQ(a.pid(), 1);
  EXPECT_EQ(b.pid(), 2);
}

TEST(SystemTest, HintedDaemonSteppedEveryQuantumInRun) {
  // Run() steps every quantum: the two-argument RegisterDaemon drops its
  // hint, so neither a far-future deadline nor a switched-off daemon
  // (no next event at all) lets a process-less system skip a quantum.
  const std::function<SimTimeUs(SimTimeUs)> hints[] = {
      [](SimTimeUs now) { return now + kUsPerSec; },
      [](SimTimeUs) { return std::numeric_limits<SimTimeUs>::max(); }};
  for (const auto& hint : hints) {
    System system(MachineSpec{"t", 4, 3.0, GiB}, SwapConfig::Zram());
    std::vector<SimTimeUs> stepped_at;
    system.RegisterDaemon(
        [&stepped_at](SimTimeUs now, SimTimeUs) {
          stepped_at.push_back(now);
          return 0.0;
        },
        hint);
    system.Run(50 * kUsPerMs);
    EXPECT_EQ(system.Now(), 50 * kUsPerMs);
    ASSERT_EQ(stepped_at.size(), 50u);
    for (std::size_t i = 0; i < stepped_at.size(); ++i)
      EXPECT_EQ(stepped_at[i], i * kUsPerMs);
  }
}

}  // namespace
}  // namespace daos::sim
