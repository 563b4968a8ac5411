#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cne {
namespace {

CommandLine Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return CommandLine(static_cast<int>(args.size()), args.data());
}

TEST(CommandLineTest, EqualsSyntax) {
  const CommandLine cl = Parse({"--epsilon=2.5", "--pairs=100"});
  EXPECT_DOUBLE_EQ(cl.GetDouble("epsilon", 0), 2.5);
  EXPECT_EQ(cl.GetInt("pairs", 0), 100);
}

TEST(CommandLineTest, SpaceSyntax) {
  const CommandLine cl = Parse({"--datasets", "RM,AC", "--seed", "7"});
  EXPECT_EQ(cl.GetString("datasets"), "RM,AC");
  EXPECT_EQ(cl.GetInt("seed", 0), 7);
}

TEST(CommandLineTest, BareFlagIsTrue) {
  const CommandLine cl = Parse({"--csv"});
  EXPECT_TRUE(cl.Has("csv"));
  EXPECT_TRUE(cl.GetBool("csv"));
  EXPECT_FALSE(cl.GetBool("missing"));
}

TEST(CommandLineTest, DefaultsWhenAbsent) {
  const CommandLine cl = Parse({});
  EXPECT_EQ(cl.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(cl.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(cl.GetString("s", "d"), "d");
}

TEST(CommandLineTest, UnparsableNumbersAreRefused) {
  // "0,5" is a locale-style typo of 0.5: falling back to the default would
  // release at a larger epsilon than the one typed.
  const CommandLine cl = Parse({"--n=abc", "--epsilon=0,5", "--k=2x",
                                "--x=2x", "--bare", "--huge=1e999"});
  EXPECT_THROW(cl.GetInt("n", 9), std::invalid_argument);
  EXPECT_THROW(cl.GetDouble("epsilon", 2.0), std::invalid_argument);
  EXPECT_THROW(cl.GetInt("k", 1), std::invalid_argument);
  EXPECT_THROW(cl.GetDouble("x", 1.0), std::invalid_argument);
  EXPECT_THROW(cl.GetInt("bare", 1), std::invalid_argument);
  EXPECT_THROW(cl.GetDouble("huge", 1.0), std::invalid_argument);
  try {
    cl.GetDouble("epsilon", 2.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--epsilon: cannot parse '0,5' as a number");
  }
}

TEST(CommandLineTest, PositionalArguments) {
  const CommandLine cl = Parse({"input.txt", "--flag=1", "output.txt"});
  ASSERT_EQ(cl.positional().size(), 2u);
  EXPECT_EQ(cl.positional()[0], "input.txt");
  EXPECT_EQ(cl.positional()[1], "output.txt");
}

TEST(CommandLineTest, ListFlag) {
  const CommandLine cl = Parse({"--datasets=RM,AC,OC"});
  const auto list = cl.GetList("datasets");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "RM");
  EXPECT_EQ(list[2], "OC");
}

TEST(SplitStringTest, DropsEmptyPieces) {
  const auto parts = SplitString(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(SplitStringTest, EmptyInput) {
  EXPECT_TRUE(SplitString("", ',').empty());
}

}  // namespace
}  // namespace cne
