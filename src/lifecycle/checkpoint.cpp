#include "lifecycle/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <string>

#include "damos/parser.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::lifecycle {
namespace {

using damon::DamosAction;
using damos::FreqBound;
using governor::WatermarkMetric;

const char* FreqUnitName(FreqBound::Unit unit) {
  return unit == FreqBound::Unit::kPercent ? "percent" : "samples";
}

/// A target's layout generation. A capture whose sched state has no
/// generation for a target writes all ones; the reader has sized `gens`.
const std::uint64_t& LayoutGen(const std::vector<std::uint64_t>& gens,
                               std::size_t ti) {
  static constexpr std::uint64_t kNoGen = ~std::uint64_t{0};
  return ti < gens.size() ? gens[ti] : kNoGen;
}
std::uint64_t& LayoutGen(std::vector<std::uint64_t>& gens, std::size_t ti) {
  return gens[ti];
}

/// The daos-checkpoint v1 body after the header line: every record in file
/// order, every field listed once. The Writer runs it over a const
/// Checkpoint and the Reader over a fresh one; Check, Count and Resize act
/// only when reading.
template <class Io, class Cp>
void Layout(Io& io, Cp& cp) {
  io.Record("at", cp.at);

  auto& a = cp.attrs;
  io.Record("attrs", a.sampling_interval, a.aggregation_interval,
            a.regions_update_interval, a.min_nr_regions, a.max_nr_regions,
            a.adaptive, a.age_reset_threshold);
  io.Check(a.sampling_interval > 0, "attrs: sampling interval must be > 0");
  io.Check(a.aggregation_interval >= a.sampling_interval,
           "attrs: aggregation interval below sampling interval");
  io.Check(a.min_nr_regions > 0 && a.max_nr_regions >= a.min_nr_regions,
           "attrs: need 0 < min_nr_regions <= max_nr_regions");

  auto& s = cp.sched;
  io.Record("sched", s.primed, s.next_sample, s.next_aggregate,
            s.next_update);
  auto& rng = s.rng_state;
  io.Record("rng", rng[0], rng[1], rng[2], rng[3]);
  io.Check((rng[0] | rng[1] | rng[2] | rng[3]) != 0,
           "rng: the all-zero state is invalid for xoshiro256**");
  auto& c = s.counters;
  io.Record("counters", c.samples, c.aggregations, c.region_splits,
            c.region_merges, c.regions_updates, c.cpu_us);
  io.Record("engine", cp.engine_disarmed);

  std::uint64_t nr_targets = cp.targets.size();
  io.Record("targets", nr_targets);
  io.Count(nr_targets, 4096, "target");
  io.Resize(cp.targets, nr_targets);
  io.Resize(s.target_layout_gens, nr_targets);
  for (std::size_t ti = 0; ti < cp.targets.size(); ++ti) {
    auto& regions = cp.targets[ti].regions;
    std::uint64_t nr_regions = regions.size();
    io.Record("target", LayoutGen(s.target_layout_gens, ti), nr_regions);
    io.Count(nr_regions, 1u << 20, "region");
    io.Resize(regions, nr_regions);
    for (auto& r : regions) {
      io.Record("region", r.start, r.end, r.nr_accesses, r.last_nr_accesses,
                r.age, r.sampling_addr);
      io.Check(r.end > r.start, "region end must be above start");
    }
  }

  std::uint64_t nr_schemes = cp.schemes.size();
  io.Record("schemes", nr_schemes);
  io.Count(nr_schemes, 4096, "scheme");
  io.Resize(cp.schemes, nr_schemes);
  for (auto& cs : cp.schemes) {
    // The one-line Scheme::ToText() form is human-facing and lossy
    // (FormatSize rounds); a checkpoint needs the raw fields back exactly.
    auto& b = cs.scheme.bounds();
    io.Record("scheme", b.min_size, b.max_size, b.min_freq.unit,
              b.min_freq.value, b.max_freq.unit, b.max_freq.value, b.min_age,
              b.max_age, b.action);
    auto& p = cs.scheme.policy();
    io.Record("policy", p.quota.sz_bytes, p.quota.time_us,
              p.quota.reset_interval, p.prio.sz, p.prio.freq, p.prio.age,
              p.wmarks.metric, p.wmarks.interval, p.wmarks.high, p.wmarks.mid,
              p.wmarks.low);
    std::string why;
    const bool valid = governor::ValidatePolicy(p, &why);
    io.Check(valid, "invalid governor policy: " + why);
    auto& st = cs.scheme.stats();
    io.Record("stats", st.nr_tried, st.sz_tried, st.nr_applied,
              st.sz_applied, st.nr_errors, st.nr_backoffs, st.nr_skipped,
              st.qt_exceeds, st.sz_quota_exceeded, st.nr_wmark_deactivations,
              st.wmark_active);
    io.Record("backoff", cs.backoff.backoff_exp, cs.backoff.backoff_until);
    auto& q = cs.slot.quota;
    io.Record("quota", q.window_start, q.charged_sz, q.charged_us, q.esz,
              q.total_charged_sz, q.total_charged_us);
    io.Record("wmark", cs.slot.wmark_active, cs.slot.next_wmark_check);
  }

  std::uint64_t nr_snapshots = cp.recorder_tail.size();
  io.Record("recorder", cp.recorder_every, cp.recorder_next, nr_snapshots);
  io.Count(nr_snapshots, 1u << 20, "snapshot");
  io.Resize(cp.recorder_tail, nr_snapshots);
  for (auto& snap : cp.recorder_tail) {
    std::uint64_t nr_rows = snap.regions.size();
    io.Record("snapshot", snap.at, snap.target_index, nr_rows);
    io.Count(nr_rows, 1u << 20, "snapshot row");
    io.Resize(snap.regions, nr_rows);
    for (auto& row : snap.regions)
      io.Record("srow", row.start, row.end, row.nr_accesses, row.age);
  }

  io.Record("end");
}

/// Appends each record as one line: the key, then every field in the
/// encoding its type picks.
struct Writer {
  std::string out;

  template <class... T>
  void Record(std::string_view key, const T&... fields) {
    out += key;
    (Field(fields), ...);
    out += '\n';
  }
  void Check(bool, std::string_view) {}
  void Count(std::uint64_t, std::uint64_t, const char*) {}
  template <class V>
  void Resize(V&, std::uint64_t) {}

  void Field(std::uint64_t v) { AppendF(out, " %" PRIu64, v); }
  void Field(std::uint32_t v) { AppendF(out, " %" PRIu32, v); }
  void Field(int v) { AppendF(out, " %d", v); }
  void Field(bool v) { out += v ? " 1" : " 0"; }
  // Doubles are written as hex-floats: "%a" round-trips every finite value
  // exactly through ParseDouble, which "%f"/"%g" do not — and quota charges
  // or frequency bounds that drift by one ulp across a restore would break
  // the bit-identical-continuation guarantee.
  void Field(double v) { AppendF(out, " %a", v); }
  void Field(FreqBound::Unit v) { (out += ' ') += FreqUnitName(v); }
  void Field(DamosAction v) { (out += ' ') += DamosActionName(v); }
  void Field(WatermarkMetric v) { (out += ' ') += WatermarkMetricName(v); }
};

/// Line-by-line cursor over the checkpoint text. Every accessor records a
/// line-accurate error and flips `failed`; once failed, every later call is
/// a no-op, so Layout runs to its end and the caller checks once.
struct Reader {
  explicit Reader(std::string_view text) : lines(text) {}

  LineCursor lines;  // past the end, errors point after the last line
  CheckpointError error;
  bool failed = false;

  bool Fail(std::string message) {
    if (!failed) {
      failed = true;
      error.line_number = lines.number();
      error.message = std::move(message);
    }
    return false;
  }

  /// Next line split into whitespace tokens; empty vector = end of input.
  std::vector<std::string_view> NextLine() {
    while (lines.Next()) {
      std::vector<std::string_view> tokens = SplitWhitespace(lines.raw());
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  /// Next line, required to carry `key` plus exactly one value per field.
  template <class... T>
  void Record(std::string_view key, T&... fields) {
    if (failed) return;
    const std::vector<std::string_view> tokens = NextLine();
    if (tokens.empty()) {
      Fail("unexpected end of checkpoint (expected '" + std::string(key) +
           "' record)");
      return;
    }
    if (tokens[0] != key) {
      Fail("expected '" + std::string(key) + "' record, got '" +
           std::string(tokens[0]) + "'");
      return;
    }
    if (tokens.size() != sizeof...(T) + 1) {
      Fail("'" + std::string(key) + "' record needs " +
           std::to_string(sizeof...(T)) + " fields, got " +
           std::to_string(tokens.size() - 1));
      return;
    }
    [[maybe_unused]] std::size_t i = 0;
    (Field(tokens[++i], fields), ...);
  }

  void Check(bool ok, std::string_view message) {
    if (!ok && !failed) Fail(std::string(message));
  }
  void Count(std::uint64_t n, std::uint64_t cap, const char* what) {
    if (n > cap && !failed)
      Fail("implausible " + std::string(what) + " count " +
           std::to_string(n));
  }
  template <class V>
  void Resize(V& v, std::uint64_t n) {
    if (!failed) v.resize(n);
  }

  void Field(std::string_view token, std::uint64_t& out) {
    if (failed) return;
    const auto v = ParseU64(token);
    if (!v) {
      Fail("bad unsigned value '" + std::string(token) + "'");
      return;
    }
    out = *v;
  }

  void Field(std::string_view token, std::uint32_t& out) {
    std::uint64_t v = 0;
    Field(token, v);
    if (!failed && v > 0xffffffffull)
      Fail("value '" + std::string(token) + "' overflows 32 bits");
    out = static_cast<std::uint32_t>(v);
  }

  void Field(std::string_view token, int& out) {
    std::uint64_t v = 0;
    Field(token, v);
    if (!failed && v > INT_MAX)
      Fail("value '" + std::string(token) + "' overflows int");
    out = static_cast<int>(v);
  }

  void Field(std::string_view token, bool& out) {
    if (failed) return;
    if (token == "0" || token == "1") {
      out = token == "1";
      return;
    }
    Fail("bad boolean '" + std::string(token) + "' (want 0 or 1)");
  }

  void Field(std::string_view token, double& out) {
    if (failed) return;
    const auto v = ParseDouble(token);
    if (!v) {
      Fail("bad floating-point value '" + std::string(token) + "'");
      return;
    }
    out = *v;
  }

  void Field(std::string_view token, FreqBound::Unit& out) {
    if (failed) return;
    if (token == "percent") {
      out = FreqBound::Unit::kPercent;
    } else if (token == "samples") {
      out = FreqBound::Unit::kSamples;
    } else {
      Fail("bad frequency unit '" + std::string(token) +
           "' (want percent|samples)");
    }
  }

  void Field(std::string_view token, DamosAction& out) {
    if (!failed && !damos::ParseAction(token, &out))
      Fail("unknown scheme action '" + std::string(token) + "'");
  }

  void Field(std::string_view token, WatermarkMetric& out) {
    if (!failed && !governor::ParseWatermarkMetric(token, &out))
      Fail("unknown watermark metric '" + std::string(token) + "'");
  }
};

}  // namespace

std::string SerializeCheckpoint(const Checkpoint& cp) {
  Writer w;
  w.out.reserve(4096);
  AppendF(w.out, "%.*s v%d\n", static_cast<int>(kCheckpointMagic.size()),
          kCheckpointMagic.data(), cp.version);
  Layout(w, cp);
  return std::move(w.out);
}

std::optional<Checkpoint> ParseCheckpoint(std::string_view text,
                                          CheckpointError* error) {
  Reader in(text);
  Checkpoint cp;

  auto fail = [&]() -> std::optional<Checkpoint> {
    if (error != nullptr) *error = in.error;
    return std::nullopt;
  };

  // Header: "daos-checkpoint v<version>". Version skew is rejected here —
  // silently reinterpreting a future format would restore garbage state.
  {
    std::vector<std::string_view> tokens = in.NextLine();
    if (tokens.empty()) {
      in.Fail("empty checkpoint (expected '" + std::string(kCheckpointMagic) +
              " v1' header)");
      return fail();
    }
    if (tokens[0] != kCheckpointMagic || tokens.size() != 2 ||
        tokens[1].size() < 2 || tokens[1][0] != 'v') {
      in.Fail("not a checkpoint: expected '" + std::string(kCheckpointMagic) +
              " v1' header");
      return fail();
    }
    std::uint64_t version = 0;
    in.Field(tokens[1].substr(1), version);
    if (in.failed) return fail();
    if (version != static_cast<std::uint64_t>(kCheckpointVersion)) {
      in.Fail("unsupported checkpoint version v" + std::to_string(version) +
              " (this build reads v" + std::to_string(kCheckpointVersion) +
              ")");
      return fail();
    }
    cp.version = static_cast<int>(version);
  }

  Layout(in, cp);
  if (in.failed) return fail();
  if (!in.NextLine().empty()) {
    in.Fail("trailing data after 'end' record");
    return fail();
  }
  return cp;
}

Checkpoint CaptureCheckpoint(const damon::DamonContext& ctx,
                             const damos::SchemesEngine& engine,
                             const damon::Recorder* recorder, SimTimeUs now,
                             std::size_t recorder_tail_max) {
  Checkpoint cp;
  cp.at = now;
  cp.attrs = ctx.attrs();
  cp.sched = ctx.ExportSchedState();
  for (const damon::DamonTarget& target : ctx.targets()) {
    CheckpointTarget ct;
    ct.regions = target.regions;
    cp.targets.push_back(std::move(ct));
  }
  cp.engine_disarmed = engine.disarmed();
  for (std::size_t si = 0; si < engine.schemes().size(); ++si) {
    CheckpointScheme cs;
    cs.scheme = engine.schemes()[si];
    cs.backoff = engine.ExportSlotRuntime(si);
    cs.slot = si < engine.governor().nr_slots()
                  ? engine.governor().ExportSlot(si)
                  : governor::Governor::SlotState{};
    cp.schemes.push_back(std::move(cs));
  }
  if (recorder != nullptr) {
    cp.recorder_every = recorder->every();
    cp.recorder_next = recorder->next();
    const std::vector<damon::Snapshot>& all = recorder->snapshots();
    const std::size_t keep = std::min(all.size(), recorder_tail_max);
    cp.recorder_tail.assign(all.end() - static_cast<std::ptrdiff_t>(keep),
                            all.end());
  }
  return cp;
}

bool RestoreCheckpoint(const Checkpoint& cp, damon::DamonContext& ctx,
                       damos::SchemesEngine& engine,
                       damon::Recorder* recorder, std::string* error) {
  if (ctx.targets().size() != cp.targets.size()) {
    if (error != nullptr)
      *error = "checkpoint has " + std::to_string(cp.targets.size()) +
               " targets but the rebuilt context has " +
               std::to_string(ctx.targets().size());
    return false;
  }

  ctx.attrs() = cp.attrs;
  for (std::size_t ti = 0; ti < cp.targets.size(); ++ti)
    ctx.targets()[ti].regions = cp.targets[ti].regions;
  ctx.ImportSchedState(cp.sched);

  std::vector<damos::Scheme> schemes;
  schemes.reserve(cp.schemes.size());
  for (const CheckpointScheme& cs : cp.schemes) schemes.push_back(cs.scheme);
  engine.Install(std::move(schemes));
  for (std::size_t si = 0; si < cp.schemes.size(); ++si) {
    engine.ImportSlotRuntime(si, cp.schemes[si].backoff);
    engine.governor().ImportSlot(si, cp.schemes[si].slot);
  }
  engine.SetDisarmed(cp.engine_disarmed);

  if (recorder != nullptr)
    recorder->RestoreTail(cp.recorder_tail, cp.recorder_next);
  return true;
}

}  // namespace daos::lifecycle
