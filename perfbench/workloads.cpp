#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "damos/parser.hpp"
#include "sim/tier.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace perfbench {

using namespace daos;

namespace {

// Size caps for the paper grid: small enough that a 102-item round takes a
// few seconds at 4 jobs, so every run holds several hundred item samples;
// groups are fractions of data_bytes, so the access shape is kept.
constexpr std::uint64_t kGridDataCap = 128 * MiB;
constexpr double kGridRuntimeCap = 30.0;
// Derived seeds per grid cell per pass; two halve the seed-to-seed spread
// of the prcl slowdown, which one seed per profile leaves near 10 %.
constexpr std::size_t kGridSeeds = 2;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0xffffffffffffULL;  // readable, still distinct
}

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

std::string U(std::uint64_t v) { return std::to_string(v); }

// Canonical texts of every field the library receives, floats in hex, so
// two runs print the same input digest exactly when they got the same load.

std::string MachineText(const sim::MachineSpec& m) {
  return m.name + "," + std::to_string(m.vcpus) + "," +
         Format("%a", m.cpu_ghz) + "," + U(m.dram_bytes);
}

std::string SwapText(const sim::SwapConfig& s) {
  return std::string(sim::SwapKindName(s.kind)) + "," + U(s.capacity_bytes) +
         "," + U(s.page_in_us) + "," + U(s.page_out_us) + "," +
         (s.occupies_dram ? "1" : "0");
}

std::string AttrsText(const damon::MonitoringAttrs& a) {
  return U(a.sampling_interval) + "," + U(a.aggregation_interval) + "," +
         U(a.regions_update_interval) + "," + U(a.min_nr_regions) + "," +
         U(a.max_nr_regions) + "," + (a.adaptive ? "1" : "0") + "," +
         U(a.age_reset_threshold);
}

std::string ProfileText(const workload::WorkloadProfile& p) {
  // Trace-driven profiles would need the trace hashed too; none is used.
  if (p.trace_data != nullptr)
    throw std::runtime_error("trace-driven profile " + p.name);
  std::string t = p.name + " suite=" + p.suite +
                  " data=" + std::to_string(p.data_bytes) +
                  " rt=" + Format("%a", p.runtime_s) +
                  " mb=" + Format("%a", p.mem_boundness) +
                  " thp=" + Format("%a", p.thp_gain) +
                  " zram=" + Format("%a", p.zram_ratio) +
                  " noise=" + Format("%a", p.noise) +
                  " pattern=" + std::to_string(static_cast<int>(p.pattern)) +
                  " phase=" + Format("%a", p.phase_period_s) +
                  " zipf=" + Format("%a", p.zipf_touches_per_s) + "/" +
                  Format("%a", p.zipf_exponent);
  for (const workload::GroupSpec& g : p.groups) {
    t += " group=" + Format("%a", g.size_frac) + "," +
         Format("%a", g.period_s) + "," + Format("%a", g.density) + "," +
         Format("%a", g.write_frac);
  }
  return t;
}

std::string ItemText(const Item& item, const std::string& extra) {
  const analysis::ExperimentOptions& o = item.spec.options;
  return ProfileText(item.spec.profile) + " config=" +
         std::string(analysis::ConfigName(item.spec.config)) +
         " role=" + item.role + " seed=" + std::to_string(o.seed) +
         " quantum=" + std::to_string(o.quantum) +
         " max_time=" + std::to_string(o.max_time) +
         " noise=" + (o.apply_runtime_noise ? "on" : "off") +
         " host=" + MachineText(o.host) + " swap=" + SwapText(o.swap) +
         " attrs=" + AttrsText(o.attrs) + " tiers=" + o.tiers.ToText() +
         " tier_policy=" + std::to_string(static_cast<int>(o.tier_policy)) +
         " " + extra;
}

// Tiered geometries and schemes: bench/fig_tiering's, scaled with the data
// size (64M of 360M), so total tier capacity stays just below the working
// set and the bottom tier stays under watermark pressure.
struct Geometry {
  const char* name;
  const char* text;
};
const Geometry kGeometries[] = {
    {"dram12M+cxl46M", "dram 12M\ncxl 46M lat=0.6 bw=8G"},
    {"dram9M+cxl17M+file34M",
     "dram 9M\ncxl 17M lat=0.4\nfile 34M lat=2.0 bw=1G"},
};
constexpr const char* kMigrateSchemes =
    "min max 1 max min max migrate_hot quota_sz=24M quota_reset_ms=1000\n"
    "min max min min 1s max migrate_cold quota_sz=24M quota_reset_ms=1000\n";

// Each tiered cell runs under this many derived seeds per pass: the hot
// window placement is random enough that one seed per cell would move the
// simulated outcomes by tens of percent from one benchmark seed to the next.
constexpr std::size_t kTierSeeds = 8;

workload::WorkloadProfile TierProfile(const char* name,
                                      workload::PatternKind pattern,
                                      double phase_period_s,
                                      double warm_period_s) {
  workload::WorkloadProfile p;
  p.name = name;
  p.suite = "tier";
  p.data_bytes = 64 * MiB;
  p.runtime_s = 12.0;
  p.mem_boundness = 0.6;
  p.thp_gain = 0.0;
  p.noise = 0.0;
  p.pattern = pattern;
  p.phase_period_s = phase_period_s;
  p.groups = {{0.5, 0.0, 1.0, 0.3},
              {0.25, warm_period_s, 1.0, 0.3},
              {0.25, -1.0, 1.0, 0.1}};
  return p;
}

}  // namespace

std::uint64_t Fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Item> PaperGridItems(std::uint64_t seed) {
  std::vector<std::string> names = workload::Figure4Names();
  names.push_back("scenario/kvstore");
  const analysis::Config configs[] = {
      analysis::Config::kBaseline, analysis::Config::kRec,
      analysis::Config::kPrec,     analysis::Config::kThp,
      analysis::Config::kEthp,     analysis::Config::kPrcl};
  if (names.size() * std::size(configs) != kGridRoundSize)
    throw std::runtime_error("paper grid round size mismatch");
  std::vector<Item> items;
  // Seed-major order, as for the tiered items.
  for (std::size_t g = 0; g < names.size() * kGridSeeds; ++g) {
    const std::string& name = names[g % names.size()];
    const workload::WorkloadProfile* base = workload::FindProfile(name);
    if (base == nullptr) throw std::runtime_error("no profile " + name);
    workload::WorkloadProfile profile = *base;
    profile.data_bytes = std::min(profile.data_bytes, kGridDataCap);
    profile.runtime_s = std::min(profile.runtime_s, kGridRuntimeCap);
    for (const analysis::Config config : configs) {
      Item item;
      item.spec.profile = profile;
      item.spec.config = config;
      item.spec.options.seed = Mix(seed, g);
      // The per-run runtime noise is a synthetic Gaussian draw that would
      // dominate the seed-to-seed spread of the simulated outcomes.
      item.spec.options.apply_runtime_noise = false;
      item.role = std::string(analysis::ConfigName(config));
      item.group = static_cast<int>(g);
      item.text = ItemText(item, "");
      items.push_back(std::move(item));
    }
  }
  return items;
}

std::vector<Item> TieredMigrateItems(std::uint64_t seed) {
  const workload::WorkloadProfile profiles[] = {
      TierProfile("tier/phased", workload::PatternKind::kPhased, 5.0, 3.0),
      TierProfile("tier/scan", workload::PatternKind::kScan, 20.0, 3.0),
      TierProfile("tier/churn", workload::PatternKind::kPhased, 2.5, 1.0),
  };
  const damos::ParseResult schemes = damos::ParseSchemes(kMigrateSchemes);
  if (!schemes.ok()) throw std::runtime_error("migrate schemes rejected");

  std::vector<Item> items;
  // Seed-major order: every block of kTierRoundSize items is all cells
  // under one derived seed.
  for (std::size_t g = 0; g < std::size(profiles) * kTierSeeds; ++g) {
    Item dram;
    dram.spec.profile = profiles[g % std::size(profiles)];
    dram.spec.options.seed = Mix(seed, g);
    dram.spec.options.apply_runtime_noise = false;
    dram.role = "dram";
    dram.group = static_cast<int>(g);
    dram.text = ItemText(dram, "");
    items.push_back(dram);
    for (std::size_t k = 0; k < std::size(kGeometries); ++k) {
      for (const char* policy : {"static", "lru", "damos"}) {
        Item item = dram;
        item.role = policy;
        item.geometry = static_cast<int>(k);
        std::string error;
        if (!sim::ParseTierGeometry(kGeometries[k].text,
                                    &item.spec.options.tiers, &error))
          throw std::runtime_error("tier geometry rejected: " + error);
        std::string extra;
        if (item.role == "lru") {
          item.spec.options.tier_policy = sim::TierPolicy::kLruDemote;
        } else if (item.role == "damos") {
          item.spec.config = analysis::Config::kSchemes;
          item.spec.schemes = schemes.schemes;
          extra = std::string("schemes=") + kMigrateSchemes;
        }
        item.text = ItemText(item, extra);
        items.push_back(std::move(item));
      }
    }
  }
  return items;
}

fleet::FleetConfig FleetRolloutConfig(std::uint64_t seed) {
  // bench/fig9_fleet's default scale and cadence.
  fleet::FleetConfig config;
  config.nr_shards = 16;
  config.workload.nr_processes = 640;
  config.workload.rss_per_process = MiB;
  config.workload.cold_touch_period_s = 0;
  config.machine = {"fleet-shard", 8, 3.0, 2 * GiB};
  config.swap = sim::SwapConfig::File(2 * GiB);
  config.quantum = 20 * kUsPerMs;
  config.epoch = 500 * kUsPerMs;
  config.seed = Mix(seed, 0);
  config.supervisor.seed = Mix(seed, 1);
  config.supervisor.attrs.sampling_interval = 20 * kUsPerMs;
  config.supervisor.attrs.aggregation_interval = 200 * kUsPerMs;
  config.supervisor.checkpoint_interval = 2 * kUsPerSec;
  config.initial_schemes = "min max min min 6s max pageout";
  config.use_env_faults = false;
  return config;
}

fleet::RolloutSpec GoodRollout() {
  fleet::RolloutSpec good;
  good.bundle_text = "scheme min max min min 1s max pageout\n";
  good.canary_frac = 0.125;
  good.ramp = {0.25, 0.5, 1.0};
  good.gate_epochs = 2;
  good.timeout_epochs = 64;
  return good;
}

fleet::RolloutSpec BadRollout() {
  fleet::RolloutSpec bad;
  bad.bundle_text = "attrs 100 2000 2000000 10 1000\n";
  bad.canary_frac = 0.125;
  bad.ramp = {1.0};
  bad.gate_epochs = 2;
  bad.timeout_epochs = 32;
  bad.max_cpu_overhead = 0.01;
  return bad;
}

std::string FleetRolloutText(std::uint64_t seed) {
  const fleet::FleetConfig c = FleetRolloutConfig(seed);
  const lifecycle::SupervisorConfig& sv = c.supervisor;
  std::string t =
      "shards=" + U(c.nr_shards) +
      " procs=" + std::to_string(c.workload.nr_processes) +
      " rss=" + U(c.workload.rss_per_process) +
      " wss=" + Format("%a", c.workload.working_set_frac) +
      " cold_touch=" + Format("%a", c.workload.cold_touch_period_s) +
      " zram=" + Format("%a", c.workload.zram_ratio) +
      " machine=" + MachineText(c.machine) + " swap=" + SwapText(c.swap) +
      " thp=" + std::to_string(static_cast<int>(c.thp)) +
      " quantum=" + U(c.quantum) + " epoch=" + U(c.epoch) +
      " seed=" + U(c.seed) + " sv_attrs=" + AttrsText(sv.attrs) +
      " sv_seed=" + U(sv.seed) +
      " sv_intf=" + Format("%a", sv.interference_per_sample_us) +
      " sv_rec=" + U(sv.recorder_every) +
      " sv_ckpt=" + U(sv.checkpoint_interval) +
      " sv_tail=" + U(sv.recorder_tail_max) +
      " sv_hb=" + U(sv.heartbeat_interval) + "," + U(sv.heartbeat_timeout) +
      " sv_backoff=" + U(sv.restart_backoff) + "," + U(sv.max_backoff_exp) +
      " sv_budget=" + U(sv.restart_budget) + "," +
      U(sv.restart_budget_window) + " schemes=" + c.initial_schemes +
      " env_faults=" + (c.use_env_faults ? "1" : "0") +
      " quarantine=" + U(c.quarantine_crash_threshold) + "," +
      U(c.quarantine_window_epochs) + "," +
      U(c.quarantine_probation_epochs) +
      " rollback_retry=" + U(c.rollback_retry_max) +
      " quorum=" + Format("%a", c.health_quorum_frac) +
      " warmup=" + U(kFleetWarmupEpochs) + " steady=" + U(kFleetSteadyEpochs);
  for (const fleet::RolloutSpec& r : {GoodRollout(), BadRollout()}) {
    t += " rollout=" + r.bundle_text + " canary=" +
         Format("%a", r.canary_frac) + " gate=" + U(r.gate_epochs) +
         " timeout=" + U(r.timeout_epochs) +
         " saving=" + Format("%a", r.max_saving_regression) +
         " cpu=" + Format("%a", r.max_cpu_overhead) +
         " errors=" + U(r.max_scheme_errors);
    for (const double f : r.ramp) t += " ramp=" + Format("%a", f);
  }
  return t;
}

}  // namespace perfbench
