#include "damos/scheme.hpp"

#include <cinttypes>
#include <cmath>

#include "util/text.hpp"
#include "util/units.hpp"

namespace daos::damos {

bool Scheme::Matches(const damon::Region& region,
                     const damon::MonitoringAttrs& attrs) const {
  const std::uint64_t sz = region.size();
  if (sz < bounds_.min_size || sz > bounds_.max_size) return false;

  const double freq = static_cast<double>(region.nr_accesses);
  if (freq < bounds_.min_freq.ToSamples(attrs)) return false;
  if (freq > bounds_.max_freq.ToSamples(attrs)) return false;

  // Region age is counted in aggregation intervals; scheme bounds are
  // durations. Saturate the multiply for long-lived regions.
  const double age_us = static_cast<double>(region.age) *
                        static_cast<double>(attrs.aggregation_interval);
  if (age_us < static_cast<double>(bounds_.min_age)) return false;
  if (bounds_.max_age != kMaxU64 &&
      age_us > static_cast<double>(bounds_.max_age))
    return false;
  return true;
}

namespace {

std::string SizeToken(std::uint64_t v, bool is_min) {
  if (is_min && v == 0) return "min";
  if (v == kMaxU64) return "max";
  return FormatSize(v);
}

std::string FreqToken(const FreqBound& f, bool is_min) {
  if (f.unit == FreqBound::Unit::kPercent) {
    if (f.value <= 0.0) return "min";  // the listings write "min min"
    if (!is_min && f.value >= 1.0) return "max";
    return FormatPercent(f.value);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", f.value);
  return buf;
}

std::string AgeToken(SimTimeUs v, bool is_min) {
  if (is_min && v == 0) return "min";
  if (v == kMaxU64) return "max";
  return FormatDuration(v);
}

}  // namespace

std::string Scheme::ToText() const {
  std::string out;
  out += SizeToken(bounds_.min_size, true);
  out += ' ';
  out += SizeToken(bounds_.max_size, false);
  out += ' ';
  out += FreqToken(bounds_.min_freq, true);
  out += ' ';
  out += FreqToken(bounds_.max_freq, false);
  out += ' ';
  out += AgeToken(bounds_.min_age, true);
  out += ' ';
  out += AgeToken(bounds_.max_age, false);
  out += ' ';
  out += std::string(damon::DamosActionName(bounds_.action));
  out += policy_.ToText();  // empty when disarmed: old 7-field form
  return out;
}

std::string FormatStats(const SchemeStats& stats) {
  std::string out;
  AppendF(out,
          "tried %" PRIu64 " (%" PRIu64 " bytes) applied %" PRIu64 " (%" PRIu64
          " bytes) errors %" PRIu64 " backoffs %" PRIu64 " qt_exceeds %" PRIu64
          " sz_quota_exceeded %" PRIu64 " wmarks %s",
          stats.nr_tried, stats.sz_tried, stats.nr_applied, stats.sz_applied,
          stats.nr_errors, stats.nr_backoffs, stats.qt_exceeds,
          stats.sz_quota_exceeded, stats.wmark_active ? "active" : "inactive");
  return out;
}

Scheme Scheme::Prcl(SimTimeUs min_age) {
  SchemeBounds b;
  b.min_size = 4 * KiB;
  b.min_freq = FreqBound::MinValue();
  b.max_freq = FreqBound::MinValue();  // "min min": zero access rate only
  b.min_age = min_age;
  b.action = damon::DamosAction::kPageout;
  return Scheme(b);
}

Scheme Scheme::EthpHugepage(double min_samples) {
  SchemeBounds b;
  b.min_freq = FreqBound::Samples(min_samples);
  b.action = damon::DamosAction::kHugepage;
  return Scheme(b);
}

Scheme Scheme::EthpNohugepage(SimTimeUs min_age) {
  SchemeBounds b;
  b.min_size = 2 * MiB;
  b.min_freq = FreqBound::MinValue();
  b.max_freq = FreqBound::MinValue();
  b.min_age = min_age;
  b.action = damon::DamosAction::kNohugepage;
  return Scheme(b);
}

Scheme Scheme::WssStat() {
  SchemeBounds b;
  b.min_freq = FreqBound::Samples(1.0);
  b.action = damon::DamosAction::kStat;
  return Scheme(b);
}

}  // namespace daos::damos
