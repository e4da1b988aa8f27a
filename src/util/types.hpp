// Core scalar types shared by every DAOS module.
//
// All simulated time is kept in microseconds as a strong-ish typedef so the
// unit is visible at every call site; all addresses are byte addresses in a
// simulated (virtual or physical) address space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace daos {

/// Byte address within a simulated address space.
using Addr = std::uint64_t;

/// Index of a 4 KiB page (addr >> kPageShift).
using PageIdx = std::uint64_t;

/// Simulated time in microseconds since simulation start.
using SimTimeUs = std::uint64_t;

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = std::uint64_t{1} << kPageShift;
inline constexpr std::uint64_t kHugePageShift = 21;
inline constexpr std::uint64_t kHugePageSize = std::uint64_t{1}
                                               << kHugePageShift;
/// Number of base pages per 2 MiB huge page.
inline constexpr std::uint64_t kPagesPerHuge = kHugePageSize / kPageSize;

inline constexpr std::uint64_t KiB = std::uint64_t{1} << 10;
inline constexpr std::uint64_t MiB = std::uint64_t{1} << 20;
inline constexpr std::uint64_t GiB = std::uint64_t{1} << 30;

inline constexpr SimTimeUs kUsPerMs = 1000;
inline constexpr SimTimeUs kUsPerSec = 1000 * 1000;
inline constexpr SimTimeUs kUsPerMin = 60 * kUsPerSec;

/// Sentinel used for "no upper bound" in scheme conditions.
inline constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

constexpr PageIdx PageOf(Addr a) noexcept { return a >> kPageShift; }
constexpr Addr AlignDown(Addr a, std::uint64_t align) noexcept {
  return a - (a % align);
}
constexpr Addr AlignUp(Addr a, std::uint64_t align) noexcept {
  return AlignDown(a + align - 1, align);
}

}  // namespace daos
