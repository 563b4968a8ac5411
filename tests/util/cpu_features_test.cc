// Tests for the runtime ISA probe and the force/clamp override surface.
// Hardware-agnostic by construction: nothing here assumes the machine
// has AVX2 or AVX-512 — only that the invariants between Detected,
// Active, Available, and Force hold on whatever the probe found.

#include "util/cpu_features.h"

#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

namespace cne {
namespace {

class CpuFeaturesTest : public ::testing::Test {
 protected:
  // Every test may re-point the active level; put it back so suite
  // order never matters.
  void TearDown() override { ForceSimdLevel(DetectedSimdLevel()); }
};

// First in the file, so in a full run it still reads the level before any
// ForceSimdLevel. tests/CMakeLists.txt runs it alone a second time with
// CNE_SIMD_LEVEL=scalar; without the variable it skips.
TEST_F(CpuFeaturesTest, EnvironmentLevelCapsTheFirstActiveLevel) {
  const char* env = std::getenv("CNE_SIMD_LEVEL");
  if (env == nullptr || env[0] == '\0') GTEST_SKIP() << "CNE_SIMD_LEVEL unset";
  const SimdLevel requested =
      ParseSimdLevel(env).value_or(DetectedSimdLevel());
  const SimdLevel want = static_cast<SimdLevel>(std::min(
      static_cast<int>(requested), static_cast<int>(DetectedSimdLevel())));
  EXPECT_EQ(ActiveSimdLevel(), want)
      << "CNE_SIMD_LEVEL=" << env << ", detected "
      << SimdLevelName(DetectedSimdLevel());
}

TEST_F(CpuFeaturesTest, DetectedLevelIsStableAndInRange) {
  const SimdLevel first = DetectedSimdLevel();
  EXPECT_GE(static_cast<int>(first), 0);
  EXPECT_LT(static_cast<int>(first), kNumSimdLevels);
  EXPECT_EQ(first, DetectedSimdLevel());  // cached, not re-probed
}

TEST_F(CpuFeaturesTest, ActiveNeverExceedsDetected) {
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

TEST_F(CpuFeaturesTest, AvailableLevelsAreContiguousFromScalar) {
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  EXPECT_EQ(levels.back(), DetectedSimdLevel());
  for (size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(static_cast<int>(levels[i]), static_cast<int>(i));
  }
}

TEST_F(CpuFeaturesTest, ForceSetsEveryAvailableLevel) {
  for (SimdLevel level : AvailableSimdLevels()) {
    ForceSimdLevel(level);
    EXPECT_EQ(ActiveSimdLevel(), level) << SimdLevelName(level);
  }
}

TEST_F(CpuFeaturesTest, ForceAboveDetectedClampsInsteadOfCrashing) {
  // On a full-AVX-512 machine this is a no-op request; everywhere else
  // it exercises the clamp. Either way Active stays executable.
  ForceSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

TEST_F(CpuFeaturesTest, NamesAndParserRoundTrip) {
  for (int l = 0; l < kNumSimdLevels; ++l) {
    const SimdLevel level = static_cast<SimdLevel>(l);
    const auto parsed = ParseSimdLevel(SimdLevelName(level));
    ASSERT_TRUE(parsed.has_value()) << SimdLevelName(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseSimdLevel("").has_value());
  EXPECT_FALSE(ParseSimdLevel("sse2").has_value());
  EXPECT_FALSE(ParseSimdLevel("AVX2").has_value());  // names are lowercase
}

}  // namespace
}  // namespace cne
