#include "bench/trajectory.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace daos::bench {
namespace {

class TrajectoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "trajectory_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Write(const std::string& content) {
    std::ofstream(path_, std::ios::binary) << content;
  }
  std::string Read() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string path_;
};

constexpr const char* kFresh = "[\n  {\"a\": 1}\n]\n";

TEST_F(TrajectoryTest, MissingFileStartsAnArray) {
  ASSERT_TRUE(AppendTrajectoryEntry(path_.c_str(), "{\"a\": 1}"));
  EXPECT_EQ(Read(), kFresh);
}

TEST_F(TrajectoryTest, EmptyFileStartsAnArray) {
  Write("");
  ASSERT_TRUE(AppendTrajectoryEntry(path_.c_str(), "{\"a\": 1}"));
  EXPECT_EQ(Read(), kFresh);
}

TEST_F(TrajectoryTest, EmptyArrayGetsNoLeadingComma) {
  for (const char* empty : {"[]", "[]\n", "[\n]", "[\n]\n"}) {
    Write(empty);
    ASSERT_TRUE(AppendTrajectoryEntry(path_.c_str(), "{\"a\": 1}"));
    EXPECT_EQ(Read(), kFresh) << "starting from '" << empty << "'";
  }
}

TEST_F(TrajectoryTest, NonEmptyArrayIsAppended) {
  Write(kFresh);
  ASSERT_TRUE(AppendTrajectoryEntry(path_.c_str(), "{\"b\": [\n    2\n  ]}"));
  EXPECT_EQ(Read(), "[\n  {\"a\": 1},\n  {\"b\": [\n    2\n  ]}\n]\n");
}

TEST_F(TrajectoryTest, UnwritablePathReported) {
  EXPECT_FALSE(AppendTrajectoryEntry(
      (::testing::TempDir() + "no/such/dir/bench.json").c_str(), "{}"));
}

}  // namespace
}  // namespace daos::bench
