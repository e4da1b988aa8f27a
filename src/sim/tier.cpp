#include "sim/tier.hpp"

#include "util/strings.hpp"
#include "util/text.hpp"
#include "util/units.hpp"

namespace daos::sim {
namespace {

// Keep geometries small: real tiered hosts have 2-4 tiers; 8 leaves slack
// for exotic setups while bounding per-page tier indices comfortably inside
// Page's 16-bit field.
constexpr std::size_t kMaxLineLength = 512;

}  // namespace

std::string_view TierKindName(TierKind kind) {
  switch (kind) {
    case TierKind::kDram:
      return "dram";
    case TierKind::kCxl:
      return "cxl";
    case TierKind::kZram:
      return "zram";
    case TierKind::kFile:
      return "file";
  }
  return "?";
}

std::optional<TierKind> ParseTierKind(std::string_view text) {
  if (text == "dram") return TierKind::kDram;
  if (text == "cxl") return TierKind::kCxl;
  if (text == "zram") return TierKind::kZram;
  if (text == "file") return TierKind::kFile;
  return std::nullopt;
}

std::string TierSpec::ToText() const {
  std::string out(TierKindName(kind));
  out += ' ';
  out += FormatSize(capacity_bytes);
  if (access_extra_us != 0.0) AppendF(out, " lat=%g", access_extra_us);
  if (migrate_bw_bytes_per_s != 0) {
    out += " bw=";
    out += FormatSize(migrate_bw_bytes_per_s);
  }
  return out;
}

std::uint64_t TierGeometry::TotalCapacityBytes() const noexcept {
  std::uint64_t total = 0;
  for (const TierSpec& t : tiers) total += t.capacity_bytes;
  return total;
}

std::string TierGeometry::ToText() const {
  std::string out;
  for (const TierSpec& t : tiers) {
    out += t.ToText();
    out += '\n';
  }
  return out;
}

bool ParseTierGeometry(std::string_view text, TierGeometry* out,
                       std::string* error) {
  TierGeometry geo;
  LineCursor lines(text);
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = LineError(lines.number(), what, "tier ");
    return false;
  };
  while (lines.Next()) {
    if (lines.raw().size() > kMaxLineLength) return fail("line too long");
    const auto tokens = SplitWhitespace(StripComment(lines.raw()));
    if (tokens.empty()) continue;
    if (tokens.size() < 2)
      return fail("expected '<kind> <capacity> [lat=] [bw=]'");
    TierSpec spec;
    const auto kind = ParseTierKind(tokens[0]);
    if (!kind) {
      return fail("unknown tier kind '" + std::string(tokens[0]) +
                  "' (want dram|cxl|zram|file)");
    }
    spec.kind = *kind;
    const auto cap = ParseSize(tokens[1]);
    if (!cap || *cap == 0)
      return fail("bad capacity '" + std::string(tokens[1]) + "'");
    spec.capacity_bytes = *cap;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      if (tok.substr(0, 4) == "lat=") {
        const auto lat = ParseDouble(tok.substr(4));
        if (!lat || *lat < 0.0) {
          return fail("bad latency '" + std::string(tok.substr(4)) +
                      "' (want non-negative microseconds)");
        }
        spec.access_extra_us = *lat;
      } else if (tok.substr(0, 3) == "bw=") {
        const std::string_view val = tok.substr(3);
        // ParseSize rejects negatives wholesale; name the failure mode so
        // "bw=-1G" reads as what it is, not a generic syntax error.
        if (!val.empty() && val[0] == '-')
          return fail("negative bandwidth '" + std::string(val) + "'");
        const auto bw = ParseSize(val);
        if (!bw) return fail("bad bandwidth '" + std::string(val) + "'");
        spec.migrate_bw_bytes_per_s = *bw;
      } else {
        return fail("unknown clause '" + std::string(tok) + "'");
      }
    }
    if (geo.tiers.empty() && spec.kind != TierKind::kDram)
      return fail("first tier must be dram");
    if (geo.tiers.size() == kMaxTiers) return fail("too many tiers (max 8)");
    geo.tiers.push_back(spec);
  }
  if (geo.tiers.empty()) {
    if (error != nullptr) *error = "tier geometry is empty";
    return false;
  }
  *out = std::move(geo);
  return true;
}

}  // namespace daos::sim
