#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace daos {
namespace {

TEST(SplitMix64, DeterministicStream) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  const std::uint64_t first = a.NextU64();
  a.NextU64();
  a.Reseed(7);
  EXPECT_EQ(a.NextU64(), first);
}

TEST(Rng, BoundedStaysInBound) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Rng rng(11);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Rng, BoundedOneReturnsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, InRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRoughlyUniformMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoolProbabilityZeroAndOne) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, BoolFrequencyTracksProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextZipf(100, 0.9), 100u);
  }
}

TEST(Rng, ZipfSmallNDegenerate) {
  Rng rng(13);
  EXPECT_EQ(rng.NextZipf(0, 0.9), 0u);
  EXPECT_EQ(rng.NextZipf(1, 0.9), 0u);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  const int n = 50000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.0) < 100) ++low;
  }
  // With s=1 roughly ln(101)/ln(1001) ~ 67 % of mass in the first 10 %.
  EXPECT_GT(low, n / 2);
}

TEST(Rng, ZipfExponentOneCovered) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextZipf(10, 1.0));
  EXPECT_GE(seen.size(), 8u);  // nearly all ranks appear
}

/// The inline sampler ZipfDist replaced, kept verbatim: both pow calls
/// per draw. The hoisted constants must reproduce it bit for bit.
std::uint64_t InlineZipf(Rng& rng, std::uint64_t n, double s) {
  if (n <= 1) return 0;
  const double u = rng.NextDouble();
  if (s == 1.0) {
    const double x = std::exp(u * std::log1p(static_cast<double>(n))) - 1.0;
    const auto r = static_cast<std::uint64_t>(x);
    return r >= n ? n - 1 : r;
  }
  const double oms = 1.0 - s;
  const double top = std::pow(static_cast<double>(n) + 1.0, oms) - 1.0;
  const double x = std::pow(u * top + 1.0, 1.0 / oms) - 1.0;
  if (x <= 0.0) return 0;
  const auto r = static_cast<std::uint64_t>(x);
  return r >= n ? n - 1 : r;
}

TEST(ZipfDist, MatchesInlineFormulaBitForBit) {
  for (const double s : {0.9, 0.99, 1.0, 1.2}) {
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{1000}, std::uint64_t{1} << 40}) {
      Rng ref(41);
      Rng dist_rng(41);
      Rng wrapper_rng(41);
      const ZipfDist dist(n, s);
      for (int i = 0; i < 100000; ++i) {
        const std::uint64_t want = InlineZipf(ref, n, s);
        ASSERT_EQ(dist.Draw(dist_rng), want) << "n=" << n << " s=" << s;
        ASSERT_EQ(wrapper_rng.NextZipf(n, s), want) << "n=" << n << " s=" << s;
      }
      // Same number of generator steps consumed (none at all for n <= 1).
      EXPECT_EQ(dist_rng.State(), ref.State()) << "n=" << n << " s=" << s;
      EXPECT_EQ(wrapper_rng.State(), ref.State()) << "n=" << n << " s=" << s;
    }
  }
}

std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::string(DAOS_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << "cannot read " << relative;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ZipfDist, TranscendentalsLiveOnlyInZipfDist) {
  // In rng.cpp, every function that calls pow/log1p/exp is a ZipfDist
  // member: NextZipf only forwards, so no caller pays the per-(n, s) terms
  // per draw. A top-level definition starts at column 0.
  std::istringstream rng_src(ReadSource("src/util/rng.cpp"));
  std::string line;
  std::string definition;
  int calls = 0;
  while (std::getline(rng_src, line)) {
    if (!line.empty() && line[0] != ' ' && line[0] != '}' && line[0] != '#' &&
        line.find('(') != std::string::npos) {
      definition = line;
    }
    for (const char* fn : {"pow(", "log1p(", "exp("}) {
      if (line.find(fn) == std::string::npos) continue;
      ++calls;
      EXPECT_NE(definition.find("ZipfDist::"), std::string::npos)
          << fn << " outside ZipfDist, in: " << definition;
    }
  }
  EXPECT_GT(calls, 0);
  // The two zipf-sampling workload sources keep a ZipfDist instead of
  // calling the one-shot wrapper per draw.
  for (const char* file :
       {"src/workload/generator.cpp", "src/workload/scenario.cpp"}) {
    const std::string text = ReadSource(file);
    EXPECT_EQ(text.find("NextZipf("), std::string::npos) << file;
    EXPECT_EQ(text.find("pow("), std::string::npos) << file;
    EXPECT_EQ(text.find("log1p("), std::string::npos) << file;
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng fork = a.Fork();
  // Forked stream should differ from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.NextU64() != fork.NextU64();
  EXPECT_TRUE(any_diff);
}

class RngBoundednessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundednessTest, NeverExceedsBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 31 + 7);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundednessTest,
                         ::testing::Values(2, 3, 7, 1000, 1u << 20,
                                           std::uint64_t{1} << 40));

}  // namespace
}  // namespace daos
