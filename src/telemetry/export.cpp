#include "telemetry/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/text.hpp"

namespace daos::telemetry {
namespace {

std::string Sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

// Deterministic number formatting: integers render without a decimal
// point, everything else with up-to-6 significant digits.
std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void AppendHistogram(std::string& out, const std::string& name,
                     const MetricSample& s) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    cumulative += s.buckets[i];
    const std::string le =
        i < s.bounds.size() ? FormatNumber(s.bounds[i]) : "+Inf";
    out += name + "_bucket{le=\"" + le + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += name + "_sum " + FormatNumber(s.value) + "\n";
  out += name + "_count " + std::to_string(s.count) + "\n";
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricSample& s : snapshot.samples()) {
    const std::string name = Sanitize(s.name);
    out += "# TYPE " + name + " " +
           std::string(InstrumentKindName(s.kind)) + "\n";
    if (s.kind == InstrumentKind::kHistogram) {
      AppendHistogram(out, name, s);
    } else {
      out += name + " " + FormatNumber(s.value) + "\n";
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  return ToPrometheusText(registry.Snapshot());
}

std::string ToJsonl(const TraceBuffer& trace) {
  std::string out;
  for (const TraceEvent& e : trace.Events()) {
    const std::string_view kind = EventKindName(e.kind);
    AppendF(out,
            "{\"t\":%" PRIu64 ",\"kind\":\"%.*s\",\"id\":%" PRIu32
            ",\"args\":[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]}\n",
            e.time, static_cast<int>(kind.size()), kind.data(), e.id, e.arg0,
            e.arg1, e.arg2);
  }
  AppendF(out, "{\"pushed\":%" PRIu64 ",\"dropped\":%" PRIu64 "}\n",
          trace.pushed(), trace.dropped());
  return out;
}

}  // namespace daos::telemetry
