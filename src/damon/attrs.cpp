#include "damon/attrs.hpp"

#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::damon {

bool ParseAttrsLine(std::string_view text, MonitoringAttrs* attrs,
                    std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  const auto tokens = SplitWhitespace(text);
  if (tokens.size() != 5)
    return fail("attrs expects: sample_us aggr_us update_us min_nr max_nr");
  const auto bad = [&](std::string_view token) {
    return fail("bad number '" + std::string(token) + "'");
  };
  std::uint64_t intervals[3];
  for (int i = 0; i < 3; ++i) {
    const auto v = ParseU64(tokens[i]);
    if (!v) return bad(tokens[i]);
    intervals[i] = *v;
  }
  const auto min_nr = ParseU32(tokens[3]);
  if (!min_nr) return bad(tokens[3]);
  const auto max_nr = ParseU32(tokens[4]);
  if (!max_nr) return bad(tokens[4]);
  attrs->sampling_interval = intervals[0];
  attrs->aggregation_interval = intervals[1];
  attrs->regions_update_interval = intervals[2];
  attrs->min_nr_regions = *min_nr;
  attrs->max_nr_regions = *max_nr;
  return true;
}

}  // namespace daos::damon
