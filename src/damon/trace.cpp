#include "damon/trace.hpp"

#include <cinttypes>
#include <climits>

#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::damon {

std::string SerializeTrace(const std::vector<Snapshot>& snapshots) {
  std::string out;
  for (const Snapshot& snap : snapshots) {
    AppendF(out, "T %" PRIu64 " %d %zu\n", snap.at, snap.target_index,
            snap.regions.size());
    for (const SnapshotRegion& r : snap.regions) {
      AppendF(out, "R %" PRIu64 " %" PRIu64 " %u %u\n", r.start, r.end,
              r.nr_accesses, r.age);
    }
  }
  return out;
}

std::optional<std::vector<Snapshot>> ParseTrace(std::string_view text) {
  std::vector<Snapshot> snapshots;
  std::uint64_t expected_regions = 0;
  LineCursor lines(text);
  while (lines.Next()) {
    const std::vector<std::string_view> f = SplitWhitespace(lines.raw());
    if (f.empty()) continue;
    if (f[0] == "T" && f.size() == 4) {
      const auto at = ParseU64(f[1]);
      const auto target = ParseU32(f[2]);
      const auto nr = ParseU64(f[3]);
      if (!at || !target || *target > INT_MAX || !nr) return std::nullopt;
      if (expected_regions != 0) return std::nullopt;  // short block
      Snapshot snap;
      snap.at = *at;
      snap.target_index = static_cast<int>(*target);
      snapshots.push_back(std::move(snap));
      expected_regions = *nr;
    } else if (f[0] == "R" && f.size() == 5) {
      if (snapshots.empty() || expected_regions == 0) return std::nullopt;
      const auto start = ParseU64(f[1]);
      const auto end = ParseU64(f[2]);
      const auto nr_accesses = ParseU32(f[3]);
      const auto age = ParseU32(f[4]);
      if (!start || !end || !nr_accesses || !age || *end <= *start)
        return std::nullopt;
      snapshots.back().regions.push_back(
          SnapshotRegion{*start, *end, *nr_accesses, *age});
      --expected_regions;
    } else {
      return std::nullopt;
    }
  }
  if (expected_regions != 0) return std::nullopt;
  return snapshots;
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<Snapshot>& snapshots) {
  return WriteFile(path, SerializeTrace(snapshots));
}

std::optional<std::vector<Snapshot>> ReadTraceFile(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text.has_value()) return std::nullopt;
  return ParseTrace(*text);
}

}  // namespace daos::damon
