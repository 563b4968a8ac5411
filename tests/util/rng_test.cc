#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/statistics.h"

namespace cne {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  // The SplitMix64 expansion must avoid the all-zero xoshiro state, which
  // would make the stream constant.
  std::set<uint64_t> values;
  for (int i = 0; i < 32; ++i) values.insert(rng.NextU64());
  EXPECT_GT(values.size(), 30u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextDouble());
  // Standard error ~ 0.000913; allow 5 sigma.
  EXPECT_NEAR(stats.Mean(), 0.5, 5.0 * stats.StdError() + 1e-4);
}

TEST(RngTest, UniformIntWithinBound) {
  Rng rng(13);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1'000'000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(17);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(bound)];
  // Chi-squared with 9 dof; 99.9% quantile ~ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(n) / bound;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 35.0);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  for (double p : {0.1, 0.25, 0.5, 0.9}) {
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) hits += rng.Bernoulli(p);
    const double se = std::sqrt(p * (1 - p) / n);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 5 * se);
  }
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, LaplaceMeanAndVariance) {
  Rng rng(29);
  const double scale = 2.0;
  RunningStats stats;
  const int n = 200000;
  for (int i = 0; i < n; ++i) stats.Add(rng.Laplace(scale));
  // Laplace(b): mean 0, variance 2b^2 = 8.
  EXPECT_NEAR(stats.Mean(), 0.0, 5 * stats.StdError());
  EXPECT_NEAR(stats.Variance(), 2 * scale * scale, 0.3);
}

TEST(RngTest, LaplaceSymmetry) {
  Rng rng(31);
  int positive = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) positive += rng.Laplace(1.0) > 0;
  const double se = std::sqrt(0.25 / n);
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 5 * se);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(37);
  const double lambda = 3.0;
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(lambda));
  EXPECT_NEAR(stats.Mean(), 1.0 / lambda, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(41);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.Variance(), 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementBasics) {
  Rng rng(53);
  auto sample = rng.SampleWithoutReplacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(59);
  auto sample = rng.SampleWithoutReplacement(20, 20);
  std::sort(sample.begin(), sample.end());
  for (uint64_t i = 0; i < 20; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(61);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementUniformInclusion) {
  // Every element should be included with probability k/n.
  Rng rng(67);
  const uint64_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    for (uint64_t v : rng.SampleWithoutReplacement(n, k)) ++counts[v];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(counts[v], expected, 6 * std::sqrt(expected))
        << "element " << v;
  }
}

TEST(RngTest, SplitStreamsAreIndependentlySeeded) {
  Rng parent(71);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.NextU64() == child2.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIsDeterministicPerStream) {
  const Rng parent(73);
  Rng a = parent.Fork(5);
  Rng b = parent.Fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng forked(79), untouched(79);
  forked.Fork(0);
  forked.Fork(123456);
  // Fork is const: the parent stream continues exactly as if Fork had
  // never been called.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(forked.NextU64(), untouched.NextU64());
  }
}

TEST(RngTest, ForkIsOrderIndependent) {
  const Rng parent(83);
  // Forking streams in any order — or from copies — yields identical
  // children; this is what makes multi-threaded execution reproducible.
  Rng first_then_second_a = parent.Fork(1);
  Rng second = parent.Fork(2);
  Rng first_then_second_b = parent.Fork(1);
  (void)second;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(first_then_second_a.NextU64(), first_then_second_b.NextU64());
  }
}

TEST(RngTest, ForkStreamsDiverge) {
  const Rng parent(89);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkStreamsAreStatisticallyIndependent) {
  // Pearson correlation between uniform draws of adjacent streams; also
  // checks each stream's mean individually so a bad mix in either shows.
  const Rng parent(97);
  const int n = 50000;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    Rng a = parent.Fork(stream);
    Rng b = parent.Fork(stream + 1);
    double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
    for (int i = 0; i < n; ++i) {
      const double x = a.NextDouble();
      const double y = b.NextDouble();
      sum_a += x;
      sum_b += y;
      sum_aa += x * x;
      sum_bb += y * y;
      sum_ab += x * y;
    }
    const double mean_a = sum_a / n;
    const double mean_b = sum_b / n;
    const double cov = sum_ab / n - mean_a * mean_b;
    const double var_a = sum_aa / n - mean_a * mean_a;
    const double var_b = sum_bb / n - mean_b * mean_b;
    const double corr = cov / std::sqrt(var_a * var_b);
    // Under independence corr ~ N(0, 1/n): 5 sigma ~ 0.0224.
    EXPECT_LT(std::abs(corr), 0.0224) << "streams " << stream << ", "
                                      << stream + 1;
    EXPECT_NEAR(mean_a, 0.5, 0.01);
  }
}

TEST(RngTest, ForkOfForkDiverges) {
  // Nested forks (service root -> store base -> per-vertex stream) must
  // not collide with first-level streams of the same index.
  const Rng root(101);
  const Rng child = root.Fork(7);
  Rng nested = child.Fork(7);
  Rng flat = root.Fork(7);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (nested.NextU64() == flat.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace cne
