// Monitoring regions: the unit of DAOS's region-based sampling (paper §3.1).
//
// A region is a span of adjacent pages assumed to share an access frequency.
// The monitor checks one sample page per region per sampling interval and
// aggregates the results in `nr_accesses`; the adaptive regions adjustment
// splits/merges regions so the assumption holds.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace daos::damon {

struct AddrRange {
  Addr start = 0;
  Addr end = 0;

  std::uint64_t size() const noexcept { return end - start; }
  bool operator==(const AddrRange&) const = default;
};

struct Region {
  Addr start = 0;
  Addr end = 0;

  /// Number of positive access checks in the current aggregation window.
  std::uint32_t nr_accesses = 0;
  /// `nr_accesses` of the previous window; the aging mechanism compares the
  /// two to decide whether the region's behaviour is stable.
  std::uint32_t last_nr_accesses = 0;
  /// Aggregation intervals for which size and access frequency stayed
  /// roughly constant (paper §3.1 "Aging").
  std::uint32_t age = 0;
  /// The page currently armed for the next access check.
  Addr sampling_addr = 0;

  std::uint64_t size() const noexcept { return end - start; }
};

}  // namespace daos::damon
