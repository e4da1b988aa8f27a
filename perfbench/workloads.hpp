// The benchmark's workloads, generated from the command-line seed. The
// library receives only these generated specs; `text` is their canonical
// description, hashed into the printed input digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "fleet/controller.hpp"

namespace perfbench {

/// One grid item: a RunWorkload call. Items of one `group` share a profile
/// and seed, so their simulated outcomes compare pairwise.
struct Item {
  daos::analysis::RunSpec spec;
  std::string role;   // paper_grid: config name; tiered_migrate: policy
  int group = 0;      // profile index
  int geometry = -1;  // tiered_migrate: tier geometry index, else -1
  std::string text;   // canonical input description
};

/// The paper's §4 grid: the Figure-4 Parsec3/Splash-2x profiles plus
/// scenario/kvstore, size-capped, under {baseline, rec, prec, thp, ethp,
/// prcl}, each under two derived seeds, in blocks of kGridRoundSize items
/// per seed.
std::vector<Item> PaperGridItems(std::uint64_t seed);
inline constexpr std::size_t kGridRoundSize = 17 * 6;

/// Tiered runs shaped like bench/fig_tiering, scaled down: three
/// hot-set patterns x {dram+cxl, dram+cxl+file} x {static, lru, damos},
/// plus one all-DRAM run per pattern as the slowdown reference, each under
/// eight derived seeds, in blocks of kTierRoundSize items per seed.
std::vector<Item> TieredMigrateItems(std::uint64_t seed);
inline constexpr std::size_t kTierRoundSize = 3 * (1 + 2 * 3);

/// The fig9_fleet population (16 shards x 640 one-MiB servers).
daos::fleet::FleetConfig FleetRolloutConfig(std::uint64_t seed);
/// A PAGEOUT min-age 6s -> 1s rollout that must promote.
daos::fleet::RolloutSpec GoodRollout();
/// A 100 us sampling interval that blows the CPU gate and must roll back.
daos::fleet::RolloutSpec BadRollout();
/// The fleet script is run in cycles, each on a fresh fleet: these warm-up
/// epochs (set-up), the good rollout, the bad rollout, then these steady
/// epochs.
inline constexpr std::size_t kFleetWarmupEpochs = 4;
inline constexpr std::size_t kFleetSteadyEpochs = 24;
/// Canonical description of the fleet inputs above, the cycle included.
std::string FleetRolloutText(std::uint64_t seed);

/// FNV-1a 64-bit hash, used for the input digest and result digests.
std::uint64_t Fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
