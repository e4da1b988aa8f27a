// The repository benchmark: one process, one workload per invocation.
//
//   daos_perfbench --workload <paper_grid|fleet_rollout|tiered_migrate>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--revision <text>] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs one fixed pass of the load, each item untraced and then traced,
// checks that the two agree item by item, and reports the per-layer
// metrics. The last line
// of standard output is the result object; every line before it is a
// human-readable report. Exit code 0 only when every output check passed.
// perfbench/README.md documents the metrics and what each should move.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.hpp"
#include "fleet/controller.hpp"
#include "layers.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace daos;
using Clock = std::chrono::steady_clock;

/// Worker threads of the one benchmark process, the same for every
/// workload: the grid runner's and, through DAOS_JOBS, the fleet's. Fixed so
/// that figures compare across hosts with at least this many CPUs; the
/// stamp records nproc and the CPU affinity next to it.
constexpr unsigned kJobs = 4;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> spans;     // JSON lines, written at exit
  std::vector<std::string> failures;  // human-readable, one per check
  std::string input_digest;
  std::string samples_note;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50.0); }

/// Every field of a result, floats in hex, so two results are the same
/// exactly when their texts are.
std::string ResultText(const analysis::ExperimentResult& r) {
  std::string t = r.workload + " " +
                  std::string(analysis::ConfigName(r.config)) +
                  " rt=" + HexFloat(r.runtime_s) +
                  " fin=" + (r.finished ? "1" : "0") +
                  " avg_rss=" + HexFloat(r.avg_rss_bytes) +
                  " peak_rss=" + std::to_string(r.peak_rss_bytes) +
                  " majflt=" + std::to_string(r.major_faults) +
                  " cpu=" + HexFloat(r.monitor_cpu_fraction) +
                  " intf=" + HexFloat(r.interference_s);
  for (const damos::SchemeStats& s : r.scheme_stats) {
    t += " scheme=" + std::to_string(s.nr_tried) + "," +
         std::to_string(s.sz_tried) + "," + std::to_string(s.nr_applied) +
         "," + std::to_string(s.sz_applied) + "," +
         std::to_string(s.nr_errors) + "," + std::to_string(s.nr_backoffs) +
         "," + std::to_string(s.nr_skipped) + "," +
         std::to_string(s.qt_exceeds) + "," +
         std::to_string(s.sz_quota_exceeded) + "," +
         std::to_string(s.nr_wmark_deactivations) + "," +
         (s.wmark_active ? "1" : "0");
  }
  for (const telemetry::MetricSample& m : r.telemetry.samples()) {
    t += '\n';
    t += m.name;
    t += ' ';
    t += std::to_string(static_cast<int>(m.kind));
    t += ' ';
    t += HexFloat(m.value);
    t += ' ';
    t += std::to_string(m.count);
    for (const double b : m.bounds) {
      t += ' ';
      t += HexFloat(b);
    }
    for (const std::uint64_t b : m.buckets) {
      t += ' ';
      t += std::to_string(b);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Grid workloads (paper_grid, tiered_migrate)

/// One finished item run.
struct Sample {
  bool done = false;
  double start_s = 0.0;  // since the loop started
  double end_s = 0.0;
  int worker = -1;
};

/// Fans `fn(slot)` out over `runner` for slots [0, n_slots), where slot
/// `k` belongs to round `k / round_size`. A closed loop: each worker takes
/// its next slot only after finishing the last. Once `deadline` passes no
/// new round starts, but every round already started runs to completion,
/// so the measured item set is always whole rounds; the first `always`
/// slots run regardless. Returns the loop's wall seconds.
template <typename Fn>
double RunLoop(analysis::ParallelRunner& runner, std::size_t n_slots,
               std::size_t round_size, std::size_t always,
               Clock::time_point deadline, std::vector<Sample>* samples,
               Fn&& fn) {
  samples->assign(n_slots, Sample{});
  std::mutex mu;  // guards the three below
  std::map<std::thread::id, int> workers;
  std::size_t max_round_started = 0;
  bool cut = false;
  const auto t0 = Clock::now();
  runner.ForEach(n_slots, [&](std::size_t slot) {
    const std::size_t round = slot / round_size;
    int worker = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!cut && Clock::now() >= deadline) cut = true;
      if (cut && round > max_round_started && slot >= always) return;
      max_round_started = std::max(max_round_started, round);
      worker = workers.emplace(std::this_thread::get_id(),
                               static_cast<int>(workers.size()))
                   .first->second;
    }
    Sample& s = (*samples)[slot];
    s.start_s = Seconds(Clock::now() - t0);
    fn(slot);
    s.end_s = Seconds(Clock::now() - t0);
    s.worker = worker;
    s.done = true;
  });
  return Seconds(Clock::now() - t0);
}

std::string ItemName(const Item& item) {
  return item.spec.profile.name + "/" + item.role + " seed " +
         std::to_string(item.spec.options.seed);
}

analysis::ExperimentResult RunItem(const Item& item) {
  const analysis::RunSpec& s = item.spec;
  return analysis::RunWorkload(s.profile, s.config, s.options,
                               s.schemes ? &*s.schemes : nullptr);
}

/// Simulated outcomes of one complete pass (index = item).
struct SimOutcome {
  double rss_saving_pct = 0.0;
  double slowdown_pct = 0.0;
  double monitor_cpu_pct = 0.0;
};

SimOutcome GridSimOutcome(const std::vector<Item>& items,
                          const std::vector<analysis::ExperimentResult>& rs,
                          bool tiered, Outcome* out) {
  // Reference per (group, geometry): baseline cells for the paper grid,
  // the all-DRAM run (slowdown) and static placement (saving) for tiers.
  std::map<int, const analysis::ExperimentResult*> slow_ref;
  std::map<std::pair<int, int>, const analysis::ExperimentResult*> rss_ref;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    if (it.role == (tiered ? "dram" : "baseline")) slow_ref[it.group] = &rs[i];
    if (it.role == (tiered ? "static" : "baseline"))
      rss_ref[{it.group, it.geometry}] = &rs[i];
  }
  std::vector<double> savings, slowdowns, cpus;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    const analysis::ExperimentResult& r = rs[i];
    const bool saving_cell =
        tiered ? (it.role == "lru" || it.role == "damos") : it.role == "prcl";
    const bool slowdown_cell = tiered ? it.role != "dram" : it.role == "prcl";
    if (saving_cell) {
      const double ref = rss_ref.at({it.group, it.geometry})->avg_rss_bytes;
      savings.push_back(100.0 * (1.0 - r.avg_rss_bytes / ref));
      if (!tiered && !(r.avg_rss_bytes < ref))
        out->Fail(ItemName(it) + ": prcl saved no memory");
    }
    if (slowdown_cell)
      slowdowns.push_back(r.runtime_s / slow_ref.at(it.group)->runtime_s);
    if (it.spec.config != analysis::Config::kBaseline &&
        it.spec.config != analysis::Config::kThp)
      cpus.push_back(100.0 * r.monitor_cpu_fraction);
  }
  // Slowdown is a geometric mean of runtime ratios: a cell that thrashes
  // its bottom tier under one seed and not the next would otherwise carry
  // the whole average.
  double log_sum = 0.0;
  for (const double ratio : slowdowns) log_sum += std::log(ratio);
  const double slowdown_pct =
      slowdowns.empty()
          ? 0.0
          : 100.0 * (std::exp(log_sum / static_cast<double>(slowdowns.size())) -
                     1.0);
  return {Mean(savings), slowdown_pct, Mean(cpus)};
}

/// The first-quantum set-up of every item: construction, the lazy layout
/// build and the first fault-in, through RunWorkload with a one-quantum
/// budget. Serial, so the figure does not depend on the job count.
double SetupPass(const std::vector<Item>& items) {
  const auto t0 = Clock::now();
  for (const Item& item : items) {
    analysis::ExperimentOptions options = item.spec.options;
    options.max_time = options.quantum;
    const analysis::RunSpec& s = item.spec;
    analysis::RunWorkload(s.profile, s.config, options,
                          s.schemes ? &*s.schemes : nullptr);
  }
  return Seconds(Clock::now() - t0);
}

constexpr int kSetupRepeats = 7;
constexpr std::size_t kMaxRounds = 200;

void RunGridTimed(const Args& args, const std::vector<Item>& items,
                  bool tiered, Outcome* out) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) setups.push_back(SetupPass(items));

  analysis::ParallelRunner runner(kJobs);
  const std::size_t n = items.size();
  std::vector<analysis::ExperimentResult> first(n);
  std::vector<std::uint64_t> digest(n * kMaxRounds, 0);
  std::vector<double> sim_s(n * kMaxRounds, 0.0);
  std::vector<char> finished(n * kMaxRounds, 0);
  std::vector<Sample> samples;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const double wall = RunLoop(
      runner, n * kMaxRounds, tiered ? kTierRoundSize : kGridRoundSize, n,
      deadline,
      &samples, [&](std::size_t slot) {
        const std::size_t i = slot % n;
        analysis::ExperimentResult r = RunItem(items[i]);
        digest[slot] = Fnv1a(ResultText(r));
        sim_s[slot] = r.runtime_s;
        finished[slot] = r.finished ? 1 : 0;
        if (slot < n) first[i] = std::move(r);
      });

  std::vector<double> item_ms;
  double proc_sim_s = 0.0;
  for (std::size_t slot = 0; slot < samples.size(); ++slot) {
    if (!samples[slot].done) continue;
    const std::size_t i = slot % n;
    ++out->attempted;
    item_ms.push_back(1000.0 * (samples[slot].end_s - samples[slot].start_s));
    proc_sim_s += sim_s[slot];
    if (!finished[slot]) {
      out->Fail(ItemName(items[i]) + ": did not finish");
    } else if (digest[slot] != digest[i]) {
      out->Fail(ItemName(items[i]) + ": repeated run differs from its first run");
    }
  }
  const SimOutcome sim = GridSimOutcome(items, first, tiered, out);
  out->Add("setup_s", Median(setups), "s");
  out->Add("proc_sim_s_per_s", proc_sim_s / wall, "proc-sim-s/s");
  out->Add("item_ms_p50", Percentile(item_ms, 50.0), "ms");
  out->Add("item_ms_p90", Percentile(item_ms, 90.0), "ms");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
  out->Add("sim_rss_saving_pct", sim.rss_saving_pct, "%");
  out->Add("sim_slowdown_pct", sim.slowdown_pct, "%");
  out->Add("sim_monitor_cpu_pct", sim.monitor_cpu_pct, "%");
  out->samples_note = std::to_string(item_ms.size()) + " items (" +
                      Num(static_cast<double>(item_ms.size()) / n) +
                      " passes of " + std::to_string(n) + ") in " + Num(wall) +
                      " s";
}

/// Per-layer metric names, in output order (BENCHMARK.json's per_layer).
struct LayerRow {
  const char* name;
  const char* unit;
};
const LayerRow kLayerRows[] = {
    {"workload.emit_s", "s"},          {"workload.emit_calls", "count"},
    {"workload.pages_touched", "count"}, {"sim.self_s", "s"},
    {"sim.quanta_stepped_frac", "ratio"}, {"sim.major_faults", "count"},
    {"damon.step_s", "s"},             {"damon.self_s", "s"},
    {"damon.check_s", "s"},            {"damon.checks", "count"},
    {"damon.ns_per_check", "ns"},      {"damon.young_frac", "ratio"},
    {"damon.ranges_s", "s"},           {"damon.regions_avg", "count"},
    {"damos.hook_s", "s"},             {"damos.apply_s", "s"},
    {"damos.apply_calls", "count"},    {"damos.applied_frac", "ratio"},
    {"damos.errors", "count"},         {"governor.quota_clipped_frac", "ratio"},
    {"governor.qt_exceeds", "count"},  {"lifecycle.checkpoints", "count"},
    {"lifecycle.commits", "count"},    {"lifecycle.restores", "count"},
    {"fleet.epoch_ms_p50", "ms"},      {"fleet.epoch_ms_p90", "ms"},
    {"fleet.ckpt_epoch_ratio", "ratio"}, {"fleet.rollout_epochs", "count"},
    {"fleet.rollback_epochs", "count"}, {"analysis.worker_busy_frac", "ratio"},
    {"analysis.tail_idle_s", "s"},     {"trace.overhead_pct", "%"},
    {"trace.coverage_frac", "ratio"},  {"trace.sim_self_frac", "ratio"},
};

/// Least share of item wall time the layer self times must account for.
constexpr double kMinCoverage = 0.95;

/// Emits every per-layer row in order; rows a workload does not reach are
/// reported as 0 (README.md lists which layers each workload measures).
void AddLayerRows(const std::map<std::string, double>& values, Outcome* out) {
  for (const LayerRow& row : kLayerRows) {
    const auto it = values.find(row.name);
    out->Add(row.name, it == values.end() ? 0.0 : it->second, row.unit);
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Self times: each span minus its children. Together they partition the
/// `sim` span (System construction, Run and teardown).
struct SelfTimes {
  double sim = 0.0;
  double damon = 0.0;
  double schemes = 0.0;
};

SelfTimes Selfs(const LayerStats& st) {
  return {st.sim_s - st.emit_s - st.step_s,
          st.step_s - st.check_s - st.ranges_s - st.schemes_s,
          st.schemes_s - st.apply_s};
}

std::string SpanLine(int id, int parent, std::size_t item,
                     const std::string& name, double busy_s, double self_s,
                     std::uint64_t calls) {
  return "{\"span\": " + std::to_string(id) + ", \"parent\": " +
         (parent < 0 ? std::string("null") : std::to_string(parent)) +
         ", \"item\": " + std::to_string(item) + ", \"name\": \"" + name +
         "\", \"busy_s\": " + Num(busy_s) + ", \"self_s\": " + Num(self_s) +
         ", \"calls\": " + std::to_string(calls) + "}";
}

void RunGridTraced(const std::vector<Item>& items, Outcome* out) {
  analysis::ParallelRunner runner(kJobs);
  const std::size_t n = items.size();
  const auto no_deadline = Clock::time_point::max();

  std::vector<std::string> plain(n);
  std::vector<double> plain_s(n, 0.0);
  std::vector<LayerStats> stats(n);
  std::vector<analysis::ExperimentResult> traced(n);
  std::vector<Sample> samples;
  // Each item runs untraced, then traced, back to back on one worker, so
  // drift in host speed cancels out of trace.overhead_pct.
  const double wall =
      RunLoop(runner, n, n, n, no_deadline, &samples, [&](std::size_t i) {
        const analysis::RunSpec& s = items[i].spec;
        const auto t0 = Clock::now();
        plain[i] = ResultText(RunItem(items[i]));
        plain_s[i] = Seconds(Clock::now() - t0);
        traced[i] = TracedRunWorkload(s.profile, s.config, s.options,
                                      s.schemes ? &*s.schemes : nullptr,
                                      &stats[i]);
      });

  LayerStats sum;
  std::uint64_t major_faults = 0, errors = 0, qt_exceeds = 0;
  double sz_tried = 0.0, sz_applied = 0.0, sz_quota_exceeded = 0.0;
  double plain_item_s = 0.0, busy_s = 0.0;
  std::vector<double> worker_last_end(kJobs, 0.0);
  int next_span = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++out->attempted;
    const analysis::ExperimentResult& r = traced[i];
    if (!r.finished) out->Fail(ItemName(items[i]) + ": did not finish");
    if (ResultText(r) != plain[i])
      out->Fail(ItemName(items[i]) + ": traced result differs from the untraced run");
    const LayerStats& st = stats[i];
    sum += st;
    plain_item_s += plain_s[i];
    busy_s += samples[i].end_s - samples[i].start_s;
    major_faults += r.major_faults;
    for (const damos::SchemeStats& s : r.scheme_stats) {
      errors += s.nr_errors;
      qt_exceeds += s.qt_exceeds;
      sz_tried += static_cast<double>(s.sz_tried);
      sz_applied += static_cast<double>(s.sz_applied);
      sz_quota_exceeded += static_cast<double>(s.sz_quota_exceeded);
    }
    const int w = samples[i].worker;
    if (w >= 0 && static_cast<std::size_t>(w) < worker_last_end.size())
      worker_last_end[w] = std::max(worker_last_end[w], samples[i].end_s);

    // Spans: the item, then one per layer call class with its parent.
    const SelfTimes self = Selfs(st);
    const int item_id = next_span++;
    out->spans.push_back(
        "{\"span\": " + std::to_string(item_id) +
        ", \"parent\": null, \"item\": " + std::to_string(i) +
        ", \"name\": \"item\", \"role\": \"" + items[i].role +
        "\", \"profile\": \"" + items[i].spec.profile.name +
        "\", \"start_s\": " + Num(samples[i].start_s + plain_s[i]) +
        ", \"end_s\": " + Num(samples[i].end_s) +
        ", \"busy_s\": " + Num(st.item_s) +
        ", \"self_s\": " + Num(st.item_s - st.sim_s) + ", \"calls\": 1}");
    const int sim_id = next_span++;
    out->spans.push_back(
        SpanLine(sim_id, item_id, i, "sim", st.sim_s, self.sim, 1));
    out->spans.push_back(SpanLine(next_span++, sim_id, i, "workload.emit",
                                  st.emit_s, st.emit_s, st.emit_calls));
    if (st.steps == 0) continue;
    const int step_id = next_span++;
    out->spans.push_back(SpanLine(step_id, sim_id, i, "damon.step", st.step_s,
                                  self.damon, st.steps));
    out->spans.push_back(SpanLine(next_span++, step_id, i, "damon.check",
                                  st.check_s, st.check_s, st.checks));
    out->spans.push_back(SpanLine(next_span++, step_id, i, "damon.ranges",
                                  st.ranges_s, st.ranges_s, st.ranges_calls));
    const int hook_id = next_span++;
    out->spans.push_back(SpanLine(hook_id, step_id, i, "damos.hook",
                                  st.schemes_s, self.schemes,
                                  st.aggregations));
    out->spans.push_back(SpanLine(next_span++, hook_id, i, "damos.apply",
                                  st.apply_s, st.apply_s, st.apply_calls));
  }
  double tail_idle = 0.0;
  for (const double last : worker_last_end) tail_idle += wall - last;

  const SelfTimes self = Selfs(sum);
  const double coverage = Ratio(sum.sim_s, sum.item_s);
  std::map<std::string, double> v = {
      {"workload.emit_s", sum.emit_s},
      {"workload.emit_calls", static_cast<double>(sum.emit_calls)},
      {"workload.pages_touched", static_cast<double>(sum.pages_touched)},
      {"sim.self_s", self.sim},
      {"sim.quanta_stepped_frac",
       Ratio(static_cast<double>(sum.emit_calls), sum.quanta_total)},
      {"sim.major_faults", static_cast<double>(major_faults)},
      {"damon.step_s", sum.step_s},
      {"damon.self_s", self.damon},
      {"damon.check_s", sum.check_s},
      {"damon.checks", static_cast<double>(sum.checks)},
      {"damon.ns_per_check",
       1e9 * Ratio(sum.check_s, static_cast<double>(sum.checks))},
      {"damon.young_frac",
       Ratio(static_cast<double>(sum.young), static_cast<double>(sum.checks))},
      {"damon.ranges_s", sum.ranges_s},
      {"damon.regions_avg", Ratio(static_cast<double>(sum.regions_sum),
                                  static_cast<double>(sum.aggregations))},
      {"damos.hook_s", self.schemes},
      {"damos.apply_s", sum.apply_s},
      {"damos.apply_calls", static_cast<double>(sum.apply_calls)},
      {"damos.applied_frac", Ratio(sz_applied, sz_tried)},
      {"damos.errors", static_cast<double>(errors)},
      {"governor.quota_clipped_frac", Ratio(sz_quota_exceeded, sz_tried)},
      {"governor.qt_exceeds", static_cast<double>(qt_exceeds)},
      {"analysis.worker_busy_frac", Ratio(busy_s, kJobs * wall)},
      {"analysis.tail_idle_s", tail_idle / kJobs},
      {"trace.overhead_pct", 100.0 * (Ratio(sum.item_s, plain_item_s) - 1.0)},
      // The layer self times sum to the sim span. sim.self_s is the part no
      // decorator reaches, so its share is printed beside the coverage.
      {"trace.coverage_frac", coverage},
      {"trace.sim_self_frac", Ratio(self.sim, sum.item_s)},
  };
  if (!(coverage >= kMinCoverage))
    out->Fail("layer self times cover " + Num(coverage) +
              " of item wall time, below " + Num(kMinCoverage));
  AddLayerRows(v, out);
  out->samples_note = std::to_string(n) + " items, each untraced then " +
                      "traced, in " + Num(wall) + " s";
}

// ---------------------------------------------------------------------------
// fleet_rollout

struct Fleet {
  std::unique_ptr<telemetry::MetricsRegistry> registry;  // outlives controller
  std::unique_ptr<fleet::FleetController> controller;
};

std::size_t FleetProcesses(std::uint64_t seed) {
  const fleet::FleetConfig c = FleetRolloutConfig(seed);
  return c.nr_shards * static_cast<std::size_t>(c.workload.nr_processes);
}

struct EpochRecord {
  double wall_s = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t commits = 0;
  std::uint64_t restores = 0;
  char phase = 's';  // 'w' warm-up, 'a' good rollout, 'b' bad rollout,
                     // 's' steady
};

lifecycle::LifecycleCounters LifecycleTotals(fleet::FleetController& f) {
  lifecycle::LifecycleCounters t;
  for (std::size_t s = 0; s < f.nr_shards(); ++s) {
    const lifecycle::LifecycleCounters& c = f.supervisor(s).counters();
    t.checkpoints += c.checkpoints;
    t.commits += c.commits;
    t.restores += c.restores;
  }
  return t;
}

/// One epoch, timed; with `trace` also the lifecycle counter deltas.
EpochRecord TimedEpoch(fleet::FleetController& f, char phase, bool trace) {
  EpochRecord rec;
  rec.phase = phase;
  lifecycle::LifecycleCounters before;
  if (trace) before = LifecycleTotals(f);
  const auto t0 = Clock::now();
  f.RunEpoch();
  rec.wall_s = Seconds(Clock::now() - t0);
  if (trace) {
    const lifecycle::LifecycleCounters after = LifecycleTotals(f);
    rec.checkpoints = after.checkpoints - before.checkpoints;
    rec.commits = after.commits - before.commits;
    rec.restores = after.restores - before.restores;
  }
  return rec;
}

/// One fleet and what was measured on it. The traced run steps an untraced
/// and a traced lane in lockstep, epoch by epoch, so that both see the same
/// host conditions.
struct Lane {
  Fleet fleet;
  bool trace = false;
  std::vector<EpochRecord> epochs;
  double other_s = 0.0;  // construction and rollout staging
};

/// Construction only; the warm-up epochs follow through StepLanes.
Fleet BuildFleet(std::uint64_t seed) {
  Fleet f;
  f.registry = std::make_unique<telemetry::MetricsRegistry>();
  f.controller =
      std::make_unique<fleet::FleetController>(FleetRolloutConfig(seed));
  f.controller->BindTelemetry(*f.registry);
  return f;
}

void StepLanes(std::vector<Lane>& lanes, char phase) {
  for (Lane& lane : lanes)
    lane.epochs.push_back(
        TimedEpoch(*lane.fleet.controller, phase, lane.trace));
}

/// Starts `spec` on every lane and steps epochs until each rollout settles,
/// within RunRollout's default epoch budget. Returns false when a lane did
/// not reach `want`.
bool RunPhase(std::vector<Lane>& lanes, const fleet::RolloutSpec& spec,
              fleet::RolloutState want, char phase, std::string* why) {
  for (Lane& lane : lanes) {
    std::string error;
    const auto t0 = Clock::now();
    const bool started = lane.fleet.controller->StartRollout(spec, &error);
    lane.other_s += Seconds(Clock::now() - t0);
    if (!started) {
      *why = "rollout rejected: " + error;
      return false;
    }
  }
  const std::uint32_t budget = spec.timeout_epochs + 32;
  for (std::uint32_t i = 0; i < budget; ++i) {
    bool active = false;
    for (Lane& lane : lanes) {
      fleet::FleetController& f = *lane.fleet.controller;
      if (!f.rollout_active()) continue;
      lane.epochs.push_back(TimedEpoch(f, phase, lane.trace));
      active = true;
    }
    if (!active) break;
  }
  for (Lane& lane : lanes) {
    const fleet::RolloutState state = lane.fleet.controller->rollout_state();
    if (state != want) {
      *why = std::string("rollout ended ") +
             std::string(fleet::RolloutStateName(state)) + ", expected " +
             std::string(fleet::RolloutStateName(want));
      return false;
    }
  }
  return true;
}

struct Cycle {
  double setup_s = 0.0;   // lane 0's construction plus warm-up epochs
  SimTimeUs timed_us = 0;  // simulated time after the warm-up
};

/// One cycle of the fleet script on every lane: a fresh fleet, its set-up
/// (construction plus the warm-up epochs in which monitors prime and the
/// population faults its memory in), the healthy rollout, the bad rollout
/// and kFleetSteadyEpochs steady epochs. Every cycle at one seed is the
/// same simulated script, so a run made of whole cycles has the same epoch
/// mix however fast the host is. Each rollout that misses its verdict is
/// one failure.
Cycle RunCycle(std::uint64_t seed, std::vector<Lane>& lanes, Outcome* out) {
  double build_s = 0.0;
  for (Lane& lane : lanes) {
    lane.fleet.controller.reset();  // release the previous fleet first
    const auto t0 = Clock::now();
    lane.fleet = BuildFleet(seed);
    const double s = Seconds(Clock::now() - t0);
    lane.other_s += s;
    if (&lane == &lanes.front()) build_s = s;
  }
  const std::size_t first = lanes.front().epochs.size();
  for (std::size_t e = 0; e < kFleetWarmupEpochs; ++e) StepLanes(lanes, 'w');
  Cycle cycle;
  cycle.setup_s = build_s;
  for (std::size_t e = first; e < lanes.front().epochs.size(); ++e)
    cycle.setup_s += lanes.front().epochs[e].wall_s;
  const fleet::FleetController& c = *lanes.front().fleet.controller;
  const SimTimeUs warm = c.Now();
  std::string why;
  if (!RunPhase(lanes, GoodRollout(), fleet::RolloutState::kPromoted, 'a',
                &why))
    out->Fail("healthy rollout: " + why);
  if (!RunPhase(lanes, BadRollout(), fleet::RolloutState::kRolledBack, 'b',
                &why))
    out->Fail("bad rollout: " + why);
  for (std::size_t e = 0; e < kFleetSteadyEpochs; ++e) StepLanes(lanes, 's');
  cycle.timed_us = c.Now() - warm;
  return cycle;
}

/// Four cycles hold 132 timed epochs, so p90 has 13 samples beyond it.
constexpr std::size_t kMinFleetCycles = 4;

SimOutcome FleetSimOutcome(Fleet& f) {
  fleet::FleetController& c = *f.controller;
  double stall = 0.0, runtime = 0.0, cpu = 0.0;
  for (std::size_t s = 0; s < c.nr_shards(); ++s) {
    for (const auto& proc : c.system(s).processes()) {
      const sim::ProcessMetrics m = proc->Metrics(c.Now());
      stall += m.stall_s;
      runtime += m.runtime_s;
    }
    cpu += c.supervisor(s).context().CpuFraction(c.Now());
  }
  SimOutcome o;
  o.rss_saving_pct = 100.0 * f.registry->Snapshot().Value(
                                 "fleet.health.saving_p50");
  o.slowdown_pct = 100.0 * Ratio(stall, runtime);
  o.monitor_cpu_pct = 100.0 * cpu / static_cast<double>(c.nr_shards());
  return o;
}

std::string FleetCountersText(const fleet::FleetCounters& c) {
  const std::uint64_t fields[] = {
      c.epochs,         c.rollouts,         c.stage_promotions,
      c.promoted,       c.rolled_back,      c.aborted,
      c.gate_trips,     c.quorum_misses,    c.quarantines,
      c.releases,       c.crash_injections, c.telemetry_losses,
      c.rollback_retries, c.rollback_failures};
  std::string t;
  for (const std::uint64_t f : fields) t += std::to_string(f) + " ";
  return t;
}

std::string FleetStateText(const Fleet& f) {
  return FleetCountersText(f.controller->counters()) + "\n" +
         f.controller->StatusText();
}

void RunFleetTimed(const Args& args, Outcome* out) {
  std::vector<Lane> lanes(1);
  const Fleet& f = lanes[0].fleet;
  const std::vector<EpochRecord>& epochs = lanes[0].epochs;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // Whole cycles until the deadline, and at least kMinFleetCycles; the
  // cycle that crosses the deadline runs to its end, so the measured epoch
  // set is always whole cycles.
  std::vector<double> setups;
  SimOutcome sim;
  double peak_rss_mb = 0.0;
  std::string first_state;
  SimTimeUs timed_sim_us = 0;
  do {
    const Cycle cycle = RunCycle(args.seed, lanes, out);
    setups.push_back(cycle.setup_s);
    timed_sim_us += cycle.timed_us;
    const std::string state = FleetStateText(f);
    if (setups.size() == 1) {
      // The simulated outcomes and the peak RSS are read at the end of the
      // first cycle; later cycles must end in the same state.
      sim = FleetSimOutcome(lanes[0].fleet);
      peak_rss_mb = PeakRssMb();
      first_state = state;
    } else if (state != first_state) {
      out->Fail("cycle " + std::to_string(setups.size()) +
                " ended in another state than the first");
    }
  } while (setups.size() < kMinFleetCycles || Clock::now() < deadline);

  std::vector<double> epoch_ms;
  double wall = 0.0;
  for (const EpochRecord& e : epochs) {
    if (e.phase == 'w') continue;  // set-up, timed in setup_s
    epoch_ms.push_back(1000.0 * e.wall_s);
    wall += e.wall_s;
  }
  out->attempted += epoch_ms.size();
  const double proc_sim_s = static_cast<double>(FleetProcesses(args.seed)) *
                            static_cast<double>(timed_sim_us) / kUsPerSec;
  out->Add("setup_s", Median(setups), "s");
  out->Add("proc_sim_s_per_s", proc_sim_s / wall, "proc-sim-s/s");
  out->Add("item_ms_p50", Percentile(epoch_ms, 50.0), "ms");
  out->Add("item_ms_p90", Percentile(epoch_ms, 90.0), "ms");
  out->Add("peak_rss_mb", peak_rss_mb, "MiB");
  out->Add("sim_rss_saving_pct", sim.rss_saving_pct, "%");
  out->Add("sim_slowdown_pct", sim.slowdown_pct, "%");
  out->Add("sim_monitor_cpu_pct", sim.monitor_cpu_pct, "%");
  out->samples_note = std::to_string(epoch_ms.size()) + " epochs in " +
                      std::to_string(setups.size()) + " cycles, " +
                      Num(wall) + " s";
}

void RunFleetTraced(const Args& args, Outcome* out) {
  // Lane 0 untraced, lane 1 traced, stepped alternately.
  std::vector<Lane> lanes(2);
  lanes[1].trace = true;
  RunCycle(args.seed, lanes, out);
  if (FleetStateText(lanes[0].fleet) != FleetStateText(lanes[1].fleet))
    out->Fail("traced fleet state differs from the untraced run");
  const std::vector<EpochRecord>& epochs = lanes[1].epochs;

  std::vector<double> all_ms, ckpt_ms, other_ms;
  double epoch_s = 0.0, plain_epoch_s = 0.0;
  std::uint64_t rollout_epochs = 0, rollback_epochs = 0;
  lifecycle::LifecycleCounters life;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const EpochRecord& r = epochs[e];
    ++out->attempted;
    all_ms.push_back(1000.0 * r.wall_s);
    (r.checkpoints > 0 ? ckpt_ms : other_ms).push_back(1000.0 * r.wall_s);
    epoch_s += r.wall_s;
    rollout_epochs += r.phase == 'a';
    rollback_epochs += r.phase == 'b';
    life.checkpoints += r.checkpoints;
    life.commits += r.commits;
    life.restores += r.restores;
    out->spans.push_back(
        "{\"span\": " + std::to_string(e) +
        ", \"parent\": null, \"item\": " + std::to_string(e) +
        ", \"name\": \"fleet.epoch\", \"phase\": \"" + r.phase +
        "\", \"busy_s\": " + Num(r.wall_s) +
        ", \"checkpoints\": " + std::to_string(r.checkpoints) +
        ", \"commits\": " + std::to_string(r.commits) +
        ", \"restores\": " + std::to_string(r.restores) + "}");
  }
  for (const EpochRecord& r : lanes[0].epochs) plain_epoch_s += r.wall_s;
  std::map<std::string, double> v = {
      {"lifecycle.checkpoints", static_cast<double>(life.checkpoints)},
      {"lifecycle.commits", static_cast<double>(life.commits)},
      {"lifecycle.restores", static_cast<double>(life.restores)},
      {"fleet.epoch_ms_p50", Percentile(all_ms, 50.0)},
      {"fleet.epoch_ms_p90", Percentile(all_ms, 90.0)},
      {"fleet.ckpt_epoch_ratio", Ratio(Median(ckpt_ms), Median(other_ms))},
      {"fleet.rollout_epochs", static_cast<double>(rollout_epochs)},
      {"fleet.rollback_epochs", static_cast<double>(rollback_epochs)},
      {"trace.overhead_pct", 100.0 * (Ratio(epoch_s, plain_epoch_s) - 1.0)},
      {"trace.coverage_frac", Ratio(epoch_s, epoch_s + lanes[1].other_s)},
  };
  AddLayerRows(v, out);
  out->samples_note = std::to_string(epochs.size()) + " epochs traced in " +
                      Num(epoch_s) + " s; untraced " + Num(plain_epoch_s) +
                      " s";
}

// ---------------------------------------------------------------------------
// Output

std::string AffinityText() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!cpus.empty()) cpus += ",";
    cpus += std::to_string(c);
  }
  return cpus;
}

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "none";
#endif

std::string StampJson(const Args& args, const Outcome& out) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity_count =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  return std::string("{\"workload\": \"") + args.workload +
         "\", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + Num(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"jobs\": " + std::to_string(kJobs) + ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"affinity_cpus\": " + std::to_string(affinity_count) +
         ", \"affinity\": \"" + AffinityText() +
         "\", \"compiler\": \"gcc " __VERSION__
         "\", \"build_type\": \"" DAOS_PERFBENCH_BUILD_TYPE
         "\", \"sanitizer\": \"" + kSanitizer +
         "\", \"revision\": \"" + args.revision +
         "\", \"input_digest\": \"" + out.input_digest + "\"}";
}

void Report(const Args& args, const Outcome& out) {
  std::printf("stamp %s\n", StampJson(args, out).c_str());
  std::printf("samples: %s\n", out.samples_note.c_str());
  for (const std::string& why : out.failures)
    std::printf("FAILED: %s\n", why.c_str());
  for (const Metric& m : out.metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (!args.spans_path.empty()) {
    if (std::FILE* f = std::fopen(args.spans_path.c_str(), "w")) {
      std::fprintf(f, "{\"stamp\": %s}\n", StampJson(args, out).c_str());
      for (const std::string& line : out.spans)
        std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
  std::string json = std::string("{\"correct\": ") +
                     (out.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", " : "") + std::string("\"") + m.name +
            "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--revision") {
      args->revision = value;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "paper_grid" || args->workload == "fleet_rollout" ||
          args->workload == "tiered_migrate");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: daos_perfbench --workload "
                 "<paper_grid|fleet_rollout|tiered_migrate> --seed <n> "
                 "--seconds <s> --trace <0|1> [--revision <text>] "
                 "[--spans <file>]\n");
    return 2;
  }
  // The fleet steps its shards through its own ParallelRunner, whose
  // worker count comes from DAOS_JOBS.
  setenv("DAOS_JOBS", std::to_string(kJobs).c_str(), 1);

  Outcome out;
  try {
    if (args.workload == "fleet_rollout") {
      out.input_digest = Hex(Fnv1a(FleetRolloutText(args.seed)));
      if (args.trace)
        RunFleetTraced(args, &out);
      else
        RunFleetTimed(args, &out);
    } else {
      const bool tiered = args.workload == "tiered_migrate";
      const std::vector<Item> items =
          tiered ? TieredMigrateItems(args.seed) : PaperGridItems(args.seed);
      std::uint64_t h = Fnv1a("");
      for (const Item& item : items) h = Fnv1a(item.text + "\n", h);
      out.input_digest = Hex(h);
      if (args.trace)
        RunGridTraced(items, &out);
      else
        RunGridTimed(args, items, tiered, &out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daos_perfbench: %s\n", e.what());
    return 1;
  }
  Report(args, out);
  return out.failed == 0 ? 0 : 1;
}
