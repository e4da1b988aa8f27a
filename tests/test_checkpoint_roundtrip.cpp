// Checkpoint round-trip properties (src/lifecycle/checkpoint.hpp).
//
// The contract under test: serialize -> parse -> serialize is the identity
// on the text, and restoring a capture into a freshly-built stack is the
// identity on the *behaviour* — the restored kdamond produces bit-identical
// monitoring state over the following aggregation windows compared with the
// uninterrupted run. Doubles travel as hex-floats ("%a"), so equality here
// means exact, not approximate.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "damon/primitives.hpp"
#include "fault/fault.hpp"
#include "lifecycle/checkpoint.hpp"
#include "lifecycle/supervisor.hpp"
#include "sim/address_space.hpp"
#include "sim/system.hpp"
#include "util/units.hpp"

namespace {

using namespace daos;

constexpr Addr kBase = 1 * GiB;
constexpr std::uint64_t kHeap = 64 * MiB;

/// A hand-built minimal checkpoint: one target, one region, no schemes.
lifecycle::Checkpoint TinyCheckpoint() {
  lifecycle::Checkpoint cp;
  cp.at = 123456;
  cp.sched.primed = true;
  cp.sched.next_sample = 123461;
  cp.sched.next_aggregate = 123556;
  cp.sched.next_update = 124456;
  cp.sched.rng_state = {1, 2, 3, 4};
  cp.sched.counters.samples = 10;
  cp.sched.counters.aggregations = 1;
  cp.sched.counters.cpu_us = 0.7;  // not representable in decimal: %a must
  cp.sched.target_layout_gens = {1};
  lifecycle::CheckpointTarget target;
  damon::Region region;
  region.start = kBase;
  region.end = kBase + 2 * MiB;
  region.nr_accesses = 3;
  region.last_nr_accesses = 2;
  region.age = 5;
  region.sampling_addr = kBase + 4096;
  target.regions.push_back(region);
  cp.targets.push_back(target);
  return cp;
}

/// Every record kind filled with non-default values: two targets (the
/// second without a layout generation), one scheme per DAMOS action across
/// both frequency units and both watermark metrics, non-zero stats,
/// backoff, quota and watermark state, and two recorder snapshots.
lifecycle::Checkpoint FullCheckpoint() {
  lifecycle::Checkpoint cp = TinyCheckpoint();
  cp.attrs.adaptive = false;
  cp.attrs.age_reset_threshold = 2;
  cp.sched.counters.region_splits = 4;
  cp.sched.counters.region_merges = 3;
  cp.sched.counters.regions_updates = 2;
  cp.engine_disarmed = true;

  lifecycle::CheckpointTarget second = cp.targets[0];
  damon::Region upper = second.regions[0];
  upper.start += 2 * MiB;
  upper.end += 4 * MiB;
  upper.sampling_addr = upper.start;
  second.regions.push_back(upper);
  cp.targets.push_back(second);  // target_layout_gens stays {1}

  constexpr damon::DamosAction kActions[] = {
      damon::DamosAction::kWillneed,   damon::DamosAction::kCold,
      damon::DamosAction::kPageout,    damon::DamosAction::kHugepage,
      damon::DamosAction::kNohugepage, damon::DamosAction::kStat,
      damon::DamosAction::kMigrateHot, damon::DamosAction::kMigrateCold};
  std::uint64_t k = 1;
  for (damon::DamosAction action : kActions) {
    const bool odd = k % 2 == 1;
    damos::SchemeBounds b;
    b.min_size = k * 4096;
    b.max_size = k * 64 * MiB;
    b.min_freq = odd ? damos::FreqBound::Samples(0.5 * static_cast<double>(k))
                     : damos::FreqBound::Percent(0.1);
    b.max_freq = odd ? damos::FreqBound::Percent(0.7)
                     : damos::FreqBound::Samples(20.0);
    b.min_age = k * kUsPerSec;
    b.max_age = k * 100 * kUsPerSec;
    b.action = action;
    lifecycle::CheckpointScheme cs;
    cs.scheme = damos::Scheme(b);

    governor::GovernorPolicy& p = cs.scheme.policy();
    p.quota.sz_bytes = k * MiB;
    p.quota.time_us = k * kUsPerMs;
    p.prio.sz = 3;
    p.prio.freq = 7;
    p.prio.age = static_cast<std::uint32_t>(k);
    if (!odd) {
      p.wmarks.metric = governor::WatermarkMetric::kFreeMemRate;
      p.wmarks.interval = 50 * kUsPerMs;
      p.wmarks.high = 900;
      p.wmarks.mid = 500;
      p.wmarks.low = 100;
    }

    damos::SchemeStats& st = cs.scheme.stats();
    st.nr_tried = k * 11;
    st.sz_tried = k * 12 * 4096;
    st.nr_applied = k * 13;
    st.sz_applied = k * 14 * 4096;
    st.nr_errors = k * 15;
    st.nr_backoffs = k * 16;
    st.nr_skipped = k * 17;
    st.qt_exceeds = k * 18;
    st.sz_quota_exceeded = k * 19 * 4096;
    st.nr_wmark_deactivations = k * 20;
    st.wmark_active = odd;

    cs.backoff.backoff_exp = static_cast<std::uint32_t>(k);
    cs.backoff.backoff_until = 123456 + k * 1000;
    cs.slot.quota.window_start = k * 1000;
    cs.slot.quota.charged_sz = k * 8192;
    cs.slot.quota.charged_us = 0.1 * static_cast<double>(k);
    cs.slot.quota.esz = k * 2 * MiB;
    cs.slot.quota.total_charged_sz = k * 65536;
    cs.slot.quota.total_charged_us = 1.3 * static_cast<double>(k);
    cs.slot.wmark_active = !odd;
    cs.slot.next_wmark_check = 124000 + k;
    cp.schemes.push_back(cs);
    ++k;
  }

  cp.recorder_every = 100 * kUsPerMs;
  cp.recorder_next = 200000;
  for (int ti = 0; ti < 2; ++ti) {
    damon::Snapshot snap;
    snap.at = 100000 * static_cast<SimTimeUs>(ti + 1);
    snap.target_index = ti;
    snap.regions.push_back({kBase, kBase + MiB, 3, 1});
    snap.regions.push_back({kBase + MiB, kBase + 2 * MiB, 0, 9});
    cp.recorder_tail.push_back(snap);
  }
  return cp;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) parts.push_back(part);
  return parts;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

/// One supervised kdamond over an anonymous heap, fault plane overridden
/// so DAOS_FAULTS cannot perturb the golden comparisons.
struct Rig {
  fault::FaultPlane plane;
  sim::System system;
  sim::AddressSpace space;
  lifecycle::KdamondSupervisor supervisor;

  Rig()
      : system(sim::MachineSpec{"ckpt", 4, 3.0, 4 * GiB},
               sim::SwapConfig::Zram()),
        space(1, &system.machine(), 3.0),
        supervisor(lifecycle::SupervisorConfig{}) {
    space.Map(kBase, kHeap, "heap");
    sim::AddressSpace* heap = &space;
    supervisor.SetTargetFactory([heap](damon::DamonContext& ctx) {
      ctx.AddTarget(std::make_unique<damon::VaddrPrimitives>(heap));
    });
    supervisor.AttachTo(system);
    system.SetFaultPlane(&plane);
  }

  void InstallOrDie(const char* schemes) {
    std::string error;
    ASSERT_TRUE(supervisor.InstallSchemesFromText(schemes, &error)) << error;
  }
};

// A governed scheme so the round trip crosses every serialized plane:
// stats, quota charges, priority weights, and the watermark gate.
constexpr char kGovernedScheme[] =
    "min max min min 1s max pageout quota_sz=4M quota_reset_ms=1000 "
    "prio_weights=3,7,1 wmarks=free_mem_rate,1000,500,1";

TEST(CheckpointFormatTest, HeaderBodyAndFooterPinned) {
  const std::string text = SerializeCheckpoint(TinyCheckpoint());
  EXPECT_EQ(text.rfind("daos-checkpoint v1\n", 0), 0u) << text;
  EXPECT_NE(text.find("\nat 123456\n"), std::string::npos);
  EXPECT_NE(text.find("\nrng 1 2 3 4\n"), std::string::npos);
  EXPECT_NE(text.find("\ntargets 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nschemes 0\n"), std::string::npos);
  EXPECT_NE(text.find("\nrecorder 0 0 0\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "end\n");
}

TEST(CheckpointFormatTest, SerializeParseSerializeIsIdentity) {
  const std::string text = SerializeCheckpoint(TinyCheckpoint());
  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(text, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  EXPECT_EQ(parsed->at, 123456u);
  ASSERT_EQ(parsed->targets.size(), 1u);
  ASSERT_EQ(parsed->targets[0].regions.size(), 1u);
  EXPECT_EQ(parsed->targets[0].regions[0].age, 5u);
  EXPECT_EQ(parsed->sched.counters.cpu_us, 0.7);
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointFormatTest, EveryFieldRoundTripsAndFailsOnItsOwnLine) {
  const std::string text = SerializeCheckpoint(FullCheckpoint());
  // The fixture reaches every encoding the format has.
  for (const char* needle :
       {"\ntargets 2\n", "\ntarget 18446744073709551615 2\n", " percent ",
        " samples ", " none ", " free_mem_rate ", "\nengine 1\n",
        "\nrecorder 100000 200000 2\n", "\nsnapshot 200000 1 2\n"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  for (damon::DamosAction action :
       {damon::DamosAction::kWillneed, damon::DamosAction::kCold,
        damon::DamosAction::kPageout, damon::DamosAction::kHugepage,
        damon::DamosAction::kNohugepage, damon::DamosAction::kStat,
        damon::DamosAction::kMigrateHot, damon::DamosAction::kMigrateCold})
    EXPECT_NE(text.find(std::string(" ")
                            .append(damon::DamosActionName(action))
                            .append("\n")),
              std::string::npos)
        << damon::DamosActionName(action);

  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(text, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);

  // Every value token after the header has a parse path that rejects
  // garbage on the token's own line, naming the token.
  const std::vector<std::string> lines = Split(text, '\n');
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::vector<std::string> tokens = Split(lines[li], ' ');
    for (std::size_t ti = 1; ti < tokens.size(); ++ti) {
      std::vector<std::string> bad_tokens = tokens;
      bad_tokens[ti] = std::string("x");
      std::vector<std::string> bad_lines = lines;
      bad_lines[li] = Join(bad_tokens, ' ');
      lifecycle::CheckpointError bad;
      EXPECT_FALSE(
          lifecycle::ParseCheckpoint(Join(bad_lines, '\n') + '\n', &bad)
              .has_value())
          << lines[li] << " field " << ti;
      EXPECT_EQ(bad.line_number, static_cast<int>(li) + 1)
          << lines[li] << " field " << ti << ": " << bad.message;
      EXPECT_NE(bad.message.find("'x'"), std::string::npos)
          << lines[li] << " field " << ti << ": " << bad.message;
    }
  }
}

TEST(CheckpointRoundTripTest, LiveCaptureReserializesExactly) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(kGovernedScheme);
  rig.system.Run(3 * kUsPerSec);

  const std::string text = rig.supervisor.CaptureCheckpointText();
  lifecycle::CheckpointError error;
  const std::optional<lifecycle::Checkpoint> parsed =
      lifecycle::ParseCheckpoint(text, &error);
  ASSERT_TRUE(parsed.has_value())
      << "line " << error.line_number << ": " << error.message;
  // Hex-float doubles and raw integer fields reproduce the exact text —
  // the property that makes a checkpoint a faithful state fingerprint.
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
  EXPECT_GT(parsed->targets.at(0).regions.size(), 0u);
  ASSERT_EQ(parsed->schemes.size(), 1u);
  EXPECT_GT(parsed->schemes[0].scheme.stats().nr_tried, 0u);
}

TEST(CheckpointRoundTripTest, RestoreIsIdentityOverFollowingWindows) {
  // Two identical systems stepped in lockstep stay bit-identical (the sim
  // is deterministic). Mid-run, B's stack is torn down and rebuilt from
  // its own checkpoint text; if restore is lossless, A and B must remain
  // indistinguishable for every window after it.
  Rig a;
  Rig b;
  a.space.TouchRange(kBase, kBase + kHeap, true, 0);
  b.space.TouchRange(kBase, kBase + kHeap, true, 0);
  a.InstallOrDie(kGovernedScheme);
  b.InstallOrDie(kGovernedScheme);

  auto run_lockstep = [&](SimTimeUs until) {
    while (a.system.Now() < until) {
      // A shifting hot set so splits, merges, quota charging and the
      // recorder all stay busy across the restore point.
      if (a.system.Now() % (250 * kUsPerMs) == 0) {
        const Addr hot =
            kBase + (a.system.Now() / (250 * kUsPerMs) % 4) * (8 * MiB);
        a.space.TouchRange(hot, hot + 8 * MiB, true, a.system.Now());
        b.space.TouchRange(hot, hot + 8 * MiB, true, b.system.Now());
      }
      a.system.Step();
      b.system.Step();
    }
  };

  run_lockstep(2 * kUsPerSec);
  const std::string at_2s_a = a.supervisor.CaptureCheckpointText();
  const std::string at_2s_b = b.supervisor.CaptureCheckpointText();
  ASSERT_EQ(at_2s_a, at_2s_b) << "lockstep baseline diverged";

  std::string error;
  ASSERT_TRUE(b.supervisor.RestoreFromText(at_2s_b, &error)) << error;
  EXPECT_EQ(b.supervisor.counters().restores, 1u);

  run_lockstep(4 * kUsPerSec);
  EXPECT_EQ(a.supervisor.CaptureCheckpointText(),
            b.supervisor.CaptureCheckpointText());
}

TEST(CheckpointRoundTripTest, RejectedRestoreLeavesRunningStackUntouched) {
  Rig rig;
  rig.space.TouchRange(kBase, kBase + kHeap, true, 0);
  rig.InstallOrDie(kGovernedScheme);
  rig.system.Run(2 * kUsPerSec);

  const std::string before = rig.supervisor.CaptureCheckpointText();
  std::string error;
  EXPECT_FALSE(rig.supervisor.RestoreFromText("daos-checkpoint v2\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_EQ(rig.supervisor.counters().restores, 0u);
  // Parse errors are detected before the old stack is torn down.
  EXPECT_EQ(before, rig.supervisor.CaptureCheckpointText());
}

TEST(CheckpointRoundTripTest, TargetCountMismatchFailsRestore) {
  lifecycle::Checkpoint cp = TinyCheckpoint();
  cp.targets.push_back(cp.targets[0]);  // claims two targets
  cp.sched.target_layout_gens = {1, 1};

  Rig rig;  // factory creates exactly one target
  std::string error;
  EXPECT_FALSE(
      rig.supervisor.RestoreFromText(SerializeCheckpoint(cp), &error));
  EXPECT_NE(error.find("2 targets"), std::string::npos) << error;
}

}  // namespace
