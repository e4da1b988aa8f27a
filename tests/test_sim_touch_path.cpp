// Touch-path digests: seeded random operation sequences against the sim
// core, with the complete page state digested after every operation.
//
// The monitor golden in test_sim_bitmap pins the core through 24 fixed
// workload profiles, so it only ever sees the states those profiles reach.
// This test searches more of them. Each variant drives two address spaces
// on one machine with a random mix of layout changes (Map/Unmap), range
// touches over sub-block, word-edge, whole-VMA and cross-VMA spans, page
// touches, pageout, swap-in, THP promote/demote, COLD deactivation,
// monitor MkOld/IsYoung queries and touch-log GC; tiered variants add
// MigrateRange and TierDemoteScan, and the frame_fail variants arm
// alloc.frame_fail so direct reclaim runs in the middle of range touches.
//
// After every operation the digest folds in all eight bit planes, every
// PageMeta, the block counters, the touch-log length, the operation's
// TouchStats or return value, the address-space counters and the machine
// counters. The goldens in tests/golden/touch_path_digests.csv were
// recorded on the per-page TouchRange loop and the deque-backed touch
// log; any rewrite of those paths must reproduce them exactly.
// Regenerate only for an intentional behaviour change, with
// DAOS_UPDATE_GOLDEN=1.
//
// Each variant owns its machine and fault plane, so DAOS_FAULTS cannot
// perturb the digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/tier.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace daos::sim {
namespace {

constexpr Addr kBase = 0x10000000;  // 2 MiB aligned

/// One VMA the layout ops map and unmap. Sizes and starts are picked for
/// edge cases: a partial tail word, a start that is neither word- nor
/// block-aligned, and two full promotable blocks.
struct Region {
  Addr start;
  std::uint64_t pages;
  const char* name;
  bool mapped = false;
};

std::vector<Region> Layout() {
  return {
      {kBase, 1000, "odd_tail"},
      {kBase + 16 * MiB + 3 * kPageSize, 700, "unaligned"},
      {kBase + 64 * MiB, 1024, "blocks"},
  };
}

struct Variant {
  const char* name;
  ThpMode thp;
  bool tiered;
  bool frame_fail;
  bool log_heavy;  // many tiny distinct sweeps: overflows the touch-log cap
  std::uint64_t seed;
  int ops;
};

constexpr Variant kVariants[] = {
    {"flat", ThpMode::kNever, false, false, false, 1, 2500},
    {"thp_always", ThpMode::kAlways, false, false, false, 2, 2500},
    {"frame_fail", ThpMode::kNever, false, true, false, 3, 2500},
    {"frame_fail_thp", ThpMode::kAlways, false, true, false, 4, 2500},
    {"tiered", ThpMode::kNever, true, false, false, 5, 2500},
    {"tiered_frame_fail_thp", ThpMode::kAlways, true, true, false, 6, 2500},
    {"log_cap", ThpMode::kNever, false, false, true, 7, 12000},
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

std::uint64_t MixStats(std::uint64_t h, const TouchStats& st) {
  h = Mix(h, st.pages);
  h = Mix(h, st.minor_faults);
  h = Mix(h, st.major_faults);
  h = Mix(h, st.huge_pages);
  return Mix(h, DoubleBits(st.stall_us));
}

std::uint64_t MixSpace(std::uint64_t h, const AddressSpace& space) {
  for (const Vma& vma : space.vmas()) {
    h = Mix(h, vma.start());
    h = Mix(h, vma.end());
    for (std::size_t p = 0; p < kPageBitPlanes; ++p) {
      const std::uint64_t* plane = vma.plane(static_cast<PageBit>(p));
      for (std::size_t w = 0; w < vma.word_count(); ++w) h = Mix(h, plane[w]);
    }
    for (std::size_t i = 0; i < vma.page_count(); ++i) {
      const PageMeta& m = vma.Meta(i);
      h = Mix(h, (static_cast<std::uint64_t>(m.acc_cleared_ms) << 32) |
                     m.last_touch_ms);
      h = Mix(h, (static_cast<std::uint64_t>(m.reclaim_gen) << 16) | m.tier);
    }
    for (std::size_t b = 0; b < vma.block_count(); ++b) {
      const Vma::Block& blk = vma.block(b);
      h = Mix(h, (static_cast<std::uint64_t>(blk.huge) << 32) |
                     (static_cast<std::uint64_t>(blk.slow) << 16) |
                     blk.resident);
    }
    h = Mix(h, vma.log_size());
  }
  h = Mix(h, space.resident_pages());
  h = Mix(h, space.swapped_pages());
  h = Mix(h, space.mapped_bytes());
  h = Mix(h, space.major_faults());
  h = Mix(h, space.minor_faults());
  h = Mix(h, space.bloat_pages());
  h = Mix(h, space.huge_blocks());
  h = Mix(h, space.dirty_evictions());
  h = Mix(h, space.clean_evictions());
  return Mix(h, space.layout_generation());
}

std::uint64_t MixMachine(std::uint64_t h, const Machine& machine) {
  const MachineCounters& c = machine.counters();
  for (const std::uint64_t v :
       {c.reclaimed_pages, c.reclaim_scans, c.failed_evictions,
        c.khugepaged_collapses, c.overcommit_events, c.swap_write_errors,
        c.alloc_stalls, c.thp_collapse_errors, c.khugepaged_backoffs,
        c.tier_promoted_pages, c.tier_demoted_pages, c.tier_migrate_fails,
        c.tier_promote_blocked, c.tier_touches, c.tier_slow_touches}) {
    h = Mix(h, v);
  }
  h = Mix(h, machine.used_frames());
  h = Mix(h, machine.swap().used_slots());
  h = Mix(h, machine.swap().stored_bytes());
  h = Mix(h, machine.swap().total_ins());
  h = Mix(h, machine.swap().total_outs());
  h = Mix(h, machine.OomPending() ? 1 : 0);
  for (std::size_t t = 0; t < machine.tier_geometry().size(); ++t) {
    h = Mix(h, machine.TierUsedPages(static_cast<std::uint16_t>(t)));
  }
  return h;
}

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t resident_pages = 0;
  std::uint64_t swapped_pages = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t alloc_stalls = 0;
  std::uint64_t log_entries = 0;
};

/// Runs one variant's op sequence; returns the chained digest.
Outcome RunVariant(const Variant& v) {
  Machine machine(MachineSpec{"touch-path", 4, 3.0, 4 * GiB},
                  SwapConfig::Zram(256 * MiB), v.thp);
  if (v.tiered) {
    TierGeometry geo;
    std::string error;
    EXPECT_TRUE(ParseTierGeometry("dram 2M\ncxl 64M lat=0.6 bw=8G\n", &geo,
                                  &error))
        << error;
    EXPECT_TRUE(machine.SetTierGeometry(geo, &error)) << error;
  }
  fault::FaultPlane plane(v.seed * 7919);
  if (v.frame_fail) {
    fault::FaultSpec spec;
    spec.probability = 0.05;
    plane.Arm(fault::kAllocFrameFail, spec);
  }
  machine.SetFaultPlane(&plane);

  std::vector<std::unique_ptr<AddressSpace>> spaces;
  std::vector<std::vector<Region>> layouts;
  for (int s = 0; s < 2; ++s) {
    spaces.push_back(std::make_unique<AddressSpace>(s, &machine, 2.5 + s));
    layouts.push_back(Layout());
    for (Region& r : layouts.back()) {
      r.mapped = spaces.back()->Map(r.start, r.pages * kPageSize, r.name) !=
                 nullptr;
    }
  }

  Rng rng(v.seed);
  SimTimeUs now = 0;
  std::uint64_t h = 1469598103934665603ULL;

  // A random page-aligned span, mostly inside one mapped region.
  const auto pick_span = [&](const std::vector<Region>& layout, Addr* lo,
                             Addr* hi) {
    const Region& r =
        v.log_heavy ? layout.front() : layout[rng.NextBounded(layout.size())];
    const std::uint64_t kind = rng.NextBounded(v.log_heavy ? 2 : 6);
    std::uint64_t first = 0;
    std::uint64_t count = 1;
    switch (kind) {
      case 0:  // tiny sweep
        first = rng.NextBounded(r.pages);
        count = 1 + rng.NextBounded(8);
        break;
      case 1:  // sub-block sweep
        first = rng.NextBounded(r.pages);
        count = 1 + rng.NextBounded(200);
        break;
      case 2: {  // word-edge sweep: bounds one page off a 64-page boundary
        const std::uint64_t word = rng.NextBounded(r.pages / 64 + 1);
        first = word * 64 + rng.NextBounded(3);
        first = first > 0 ? first - 1 : 0;
        count = 63 + rng.NextBounded(3) + 64 * rng.NextBounded(3);
        break;
      }
      case 3:  // whole region
        first = 0;
        count = r.pages;
        break;
      case 4:  // runs past the region end into the gap (or the next VMA)
        first = r.pages - 1 - rng.NextBounded(std::min<std::uint64_t>(r.pages, 90));
        count = 50 + rng.NextBounded(20000);
        break;
      default:  // large random
        first = rng.NextBounded(r.pages);
        count = 1 + rng.NextBounded(r.pages);
        break;
    }
    *lo = r.start + first * kPageSize;
    *hi = *lo + count * kPageSize;
  };
  const auto pick_addr = [&](const std::vector<Region>& layout) {
    const Region& r = layout[rng.NextBounded(layout.size())];
    if (rng.NextBounded(20) == 0) return r.start + (r.pages + 5) * kPageSize;
    return r.start + rng.NextBounded(r.pages) * kPageSize +
           rng.NextBounded(kPageSize);
  };

  for (int op = 0; op < v.ops; ++op) {
    // Time: mostly same-millisecond or one-millisecond steps (touch-log
    // coalescing), sometimes a jump past the tier idle horizon.
    const std::uint64_t dt_kind = rng.NextBounded(v.log_heavy ? 1000 : 100);
    if (dt_kind == 0) {
      now += 400 * 1000 + rng.NextBounded(1200) * 1000;
    } else if (dt_kind < (v.log_heavy ? 500u : 40u)) {
      now += rng.NextBounded(1200);
    }
    const std::size_t si = !v.log_heavy && rng.NextBounded(8) == 0 ? 1 : 0;
    AddressSpace& space = *spaces[si];
    std::vector<Region>& layout = layouts[si];
    Addr lo = 0;
    Addr hi = 0;
    const std::uint64_t roll = rng.NextBounded(100);
    const std::uint64_t action =
        v.log_heavy ? (roll < 70 ? 0 : roll < 85 ? 80 : roll < 99 ? 70 : 88)
                    : roll;
    h = Mix(h, action);
    if (action < 30) {
      pick_span(layout, &lo, &hi);
      h = MixStats(h, space.TouchRange(lo, hi, rng.NextBool(0.4), now));
    } else if (action < 40) {
      h = MixStats(h, space.TouchPage(pick_addr(layout), rng.NextBool(0.4),
                                      now));
    } else if (action < 45) {
      pick_span(layout, &lo, &hi);
      std::uint64_t errors = 0;
      h = Mix(h, space.PageOutRange(lo, hi, now, &errors));
      h = Mix(h, errors);
    } else if (action < 49) {
      pick_span(layout, &lo, &hi);
      std::uint64_t errors = 0;
      h = Mix(h, space.PromoteRange(lo, hi, now, &errors));
      h = Mix(h, errors);
    } else if (action < 52) {
      pick_span(layout, &lo, &hi);
      h = Mix(h, space.DemoteRange(lo, hi));
    } else if (action < 57) {
      pick_span(layout, &lo, &hi);
      h = Mix(h, space.DeactivateRange(lo, hi));
    } else if (action < 60) {
      pick_span(layout, &lo, &hi);
      h = Mix(h, space.SwapInRange(lo, hi, now));
    } else if (action < 74) {
      const std::uint64_t n = 1 + rng.NextBounded(8);
      for (std::uint64_t i = 0; i < n; ++i) space.MkOld(pick_addr(layout), now);
    } else if (action < 88) {
      std::uint64_t young = 0;
      for (int i = 0; i < 16; ++i) {
        young = (young << 2) | (space.IsYoung(pick_addr(layout)) ? 1u : 0u) |
                (space.IsResident(pick_addr(layout)) ? 2u : 0u);
      }
      h = Mix(h, young);
    } else if (action < 90) {
      h = Mix(h, space.MaintainLogs(now));
    } else if (action < 92) {
      Region& r = layout[rng.NextBounded(layout.size())];
      if (r.mapped) {
        space.UnmapVma(r.start);
        r.mapped = false;
      } else {
        r.mapped = space.Map(r.start, r.pages * kPageSize, r.name) != nullptr;
      }
      h = Mix(h, r.mapped ? 1 : 0);
    } else if (action < 96) {
      pick_span(layout, &lo, &hi);
      std::uint64_t errors = 0;
      h = Mix(h, space.MigrateRange(lo, hi, now, rng.NextBool(0.5), &errors));
      h = Mix(h, errors);
    } else {
      std::uint64_t budget = 1 + rng.NextBounded(3000);
      const auto from = static_cast<std::uint16_t>(rng.NextBounded(2));
      h = Mix(h, space.TierDemoteScan(from, &budget, 1 + rng.NextBounded(64),
                                      now));
      h = Mix(h, budget);
    }
    for (const auto& s : spaces) h = MixSpace(h, *s);
    h = MixMachine(h, machine);
  }

  Outcome out;
  out.digest = h;
  for (const auto& s : spaces) {
    out.resident_pages += s->resident_pages();
    out.swapped_pages += s->swapped_pages();
    out.major_faults += s->major_faults();
    for (const Vma& vma : s->vmas()) out.log_entries += vma.log_size();
  }
  out.alloc_stalls = machine.counters().alloc_stalls;
  return out;
}

TEST(TouchPathDigestTest, RandomOpSequencesMatchGoldens) {
  std::map<std::string, std::string> actual;
  for (const Variant& v : kVariants) {
    const Outcome o = RunVariant(v);
    char line[160];
    std::snprintf(line, sizeof line, "%d,%016llx,%llu,%llu,%llu,%llu,%llu",
                  v.ops, static_cast<unsigned long long>(o.digest),
                  static_cast<unsigned long long>(o.resident_pages),
                  static_cast<unsigned long long>(o.swapped_pages),
                  static_cast<unsigned long long>(o.major_faults),
                  static_cast<unsigned long long>(o.alloc_stalls),
                  static_cast<unsigned long long>(o.log_entries));
    actual[v.name] = line;
    // The variants must reach the states they exist for.
    if (v.frame_fail) {
      EXPECT_GT(o.alloc_stalls, 0u) << v.name;
    }
  }

  const std::string golden_path =
      std::string(DAOS_GOLDEN_DIR) + "/touch_path_digests.csv";
  if (std::getenv("DAOS_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden_path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << golden_path;
    std::fprintf(f,
                 "variant,ops,digest,resident_pages,swapped_pages,"
                 "major_faults,alloc_stalls,log_entries\n");
    for (const auto& [name, line] : actual)
      std::fprintf(f, "%s,%s\n", name.c_str(), line.c_str());
    std::fclose(f);
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::FILE* f = std::fopen(golden_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "missing golden " << golden_path
                        << " (run once with DAOS_UPDATE_GOLDEN=1)";
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);  // header
  std::map<std::string, std::string> golden;
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    golden[line.substr(0, comma)] = line.substr(comma + 1);
  }
  std::fclose(f);

  ASSERT_EQ(golden.size(), actual.size());
  for (const auto& [name, line] : actual) {
    ASSERT_TRUE(golden.count(name)) << name;
    EXPECT_EQ(golden[name], line)
        << name << ": touch-path state diverged from the recorded sequence";
  }
}

}  // namespace
}  // namespace daos::sim
