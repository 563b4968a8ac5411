// Privacy property suite: verifies the ε-edge-LDP guarantee itself, not
// just the estimators' accuracy.
//
// For randomized response over a tiny domain the output distribution is
// enumerable: P(noisy set S | neighbor list A) = Π_j p or (1-p) per bit.
// The tests check (a) the analytic distributions of any two neighboring
// lists satisfy the e^ε bound with equality in the worst case, and
// (b) the sparse sampler's empirical distribution matches the analytic
// one outcome by outcome — i.e. the O(d + pn) implementation provides
// exactly the mechanism whose privacy is proven.

#include <array>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "ldp/budget.h"
#include "ldp/randomized_response.h"
#include "util/rng.h"

namespace cne {
namespace {

// Probability of observing output bits `out` from true bits `in` under RR
// with flip probability p.
double RrOutputProbability(const std::vector<int>& in,
                           const std::vector<int>& out, double p) {
  double prob = 1.0;
  for (size_t i = 0; i < in.size(); ++i) {
    prob *= (in[i] == out[i]) ? (1.0 - p) : p;
  }
  return prob;
}

TEST(RrPrivacyTest, AnalyticEpsilonBoundIsTightOneBit) {
  for (double epsilon : {0.5, 1.0, 2.0, 3.0}) {
    const double p = FlipProbability(epsilon);
    // Lists differing in one bit: probability ratio per outcome is either
    // (1-p)/p or p/(1-p); the max must be exactly e^eps.
    const double worst = (1.0 - p) / p;
    EXPECT_NEAR(worst, std::exp(epsilon), 1e-9 * std::exp(epsilon))
        << "eps " << epsilon;
  }
}

TEST(RrPrivacyTest, AllOutcomesWithinBudgetForNeighboringLists) {
  const double epsilon = 1.2;
  const double p = FlipProbability(epsilon);
  const std::vector<int> list_a = {1, 0, 1};
  const std::vector<int> list_b = {1, 1, 1};  // differs in bit 1
  for (int mask = 0; mask < 8; ++mask) {
    const std::vector<int> out = {(mask >> 0) & 1, (mask >> 1) & 1,
                                  (mask >> 2) & 1};
    const double pa = RrOutputProbability(list_a, out, p);
    const double pb = RrOutputProbability(list_b, out, p);
    EXPECT_LE(pa, std::exp(epsilon) * pb + 1e-12) << "outcome " << mask;
    EXPECT_LE(pb, std::exp(epsilon) * pa + 1e-12) << "outcome " << mask;
  }
}

TEST(RrPrivacyTest, SparseSamplerRealizesTheAnalyticMechanism) {
  // Domain of 3 lower vertices, true neighbors {0, 2}.
  GraphBuilder b(1, 3);
  b.AddEdge(0, 0).AddEdge(0, 2);
  const BipartiteGraph g = b.Build();
  const std::vector<int> truth = {1, 0, 1};
  const double epsilon = 1.0;
  const double p = FlipProbability(epsilon);

  const int trials = 200000;
  std::array<int, 8> observed{};
  Rng rng(99);
  for (int t = 0; t < trials; ++t) {
    const NoisyNeighborSet noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng);
    int mask = 0;
    for (int bit = 0; bit < 3; ++bit) {
      if (noisy.Contains(static_cast<VertexId>(bit))) mask |= 1 << bit;
    }
    ++observed[mask];
  }
  for (int mask = 0; mask < 8; ++mask) {
    const std::vector<int> out = {(mask >> 0) & 1, (mask >> 1) & 1,
                                  (mask >> 2) & 1};
    const double expected = RrOutputProbability(truth, out, p);
    const double freq = static_cast<double>(observed[mask]) / trials;
    const double se = std::sqrt(expected * (1 - expected) / trials);
    EXPECT_NEAR(freq, expected, 5 * se + 1e-4) << "outcome " << mask;
  }
}

TEST(RrPrivacyTest, WordParallelAndReferenceSamplersShareTheDistribution) {
  // A 4-id domain, under one mask word: all 16 outcomes are enumerable.
  GraphBuilder b(1, 4);
  b.AddEdge(0, 1).AddEdge(0, 3);
  const BipartiteGraph g = b.Build();
  const double epsilon = 0.8;
  const int trials = 100000;
  std::map<int, int> bitmap_counts, dense_counts;
  Rng rng_b(7), rng_d(8);
  auto mask_of = [](const NoisyNeighborSet& s) {
    int mask = 0;
    for (VertexId v : s.SortedMembers()) mask |= 1 << v;
    return mask;
  };
  for (int t = 0; t < trials; ++t) {
    ++bitmap_counts[mask_of(
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng_b))];
    ++dense_counts[mask_of(ApplyRandomizedResponseDense(
        g, {Layer::kUpper, 0}, epsilon, rng_d))];
  }
  for (int mask = 0; mask < 16; ++mask) {
    const double fb = static_cast<double>(bitmap_counts[mask]) / trials;
    const double fd = static_cast<double>(dense_counts[mask]) / trials;
    EXPECT_NEAR(fb, fd, 5 * std::sqrt(0.25 / trials) + 1e-4)
        << "outcome " << mask;
  }
}

TEST(LaplacePrivacyTest, DensityRatioBoundedByBudget) {
  // Laplace(Δ/ε) on outputs f and f' with |f - f'| <= Δ: the density
  // ratio at any point is at most e^ε. Check on a grid.
  const double epsilon = 1.5;
  const double sensitivity = 2.0;
  const double b = sensitivity / epsilon;
  auto density = [&](double x, double mean) {
    return std::exp(-std::abs(x - mean) / b) / (2 * b);
  };
  const double f1 = 10.0;
  const double f2 = f1 + sensitivity;  // worst-case neighboring output
  for (double x = -20; x <= 40; x += 0.5) {
    const double ratio = density(x, f1) / density(x, f2);
    EXPECT_LE(ratio, std::exp(epsilon) + 1e-9) << "x " << x;
    EXPECT_GE(ratio, std::exp(-epsilon) - 1e-9) << "x " << x;
  }
}

TEST(CompositionPrivacyTest, MultiRSSBudgetNeverExceedsEpsilon) {
  // Structural check mirrored by the accountant: the even split plus
  // sequential composition is exactly ε.
  BudgetAccountant acc;
  const double epsilon = 2.0;
  const BudgetSplit split = EvenTwoWaySplit(epsilon);
  acc.ChargeSequential("randomized_response", split.epsilon1);
  acc.ChargeSequential("laplace", split.epsilon2);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), epsilon);
}

TEST(CompositionPrivacyTest, MultiRDSRoundsComposeToEpsilon) {
  BudgetAccountant acc;
  const double epsilon = 2.0;
  const double eps0 = 0.05 * epsilon;
  const double eps1 = 0.9;
  const double eps2 = epsilon - eps0 - eps1;
  // Round 1: every query-layer vertex reports its degree (disjoint lists).
  for (int v = 0; v < 5; ++v) acc.ChargeParallel("degree", eps0, 1);
  // Round 2: RR from u and w (disjoint neighbor lists).
  acc.ChargeParallel("rr", eps1, 2);
  acc.ChargeParallel("rr", eps1, 2);
  // Round 3: Laplace releases from u and w (disjoint neighbor lists).
  acc.ChargeParallel("laplace", eps2, 3);
  acc.ChargeParallel("laplace", eps2, 3);
  EXPECT_NEAR(acc.TotalEpsilon(), epsilon, 1e-12);
}

}  // namespace
}  // namespace cne
