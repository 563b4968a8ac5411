// The pipeline contract: plans describe exactly the releases each
// protocol makes, the de-bias constants are the single definition of
// φ(i, j), and ExecuteProtocol is observationally identical to the
// estimator drivers built on top of it.

#include "core/protocol_pipeline.h"

#include <gtest/gtest.h>

#include "core/multir_ds.h"
#include "core/multir_ss.h"
#include "core/naive.h"
#include "core/oner.h"
#include "graph/generators.h"
#include "ldp/laplace_mechanism.h"
#include "ldp/randomized_response.h"

namespace cne {
namespace {

TEST(ProtocolPlanTest, NamesRoundTrip) {
  for (ProtocolKind kind :
       {ProtocolKind::kNaive, ProtocolKind::kOneR, ProtocolKind::kMultiRSS,
        ProtocolKind::kMultiRDS}) {
    const auto parsed = ParseProtocolKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseProtocolKind("CentralDP").has_value());
}

TEST(ProtocolPlanTest, ReleaseStructurePerKind) {
  // Naive/OneR: two noisy views, no Laplace, one round, full ε on RR.
  for (ProtocolKind kind : {ProtocolKind::kNaive, ProtocolKind::kOneR}) {
    const ProtocolPlan plan = MakeProtocolPlan(kind, 2.0, 0.5);
    EXPECT_TRUE(plan.UsesNoisyViewU());
    EXPECT_TRUE(plan.UsesNoisyViewW());
    EXPECT_FALSE(plan.LaplaceFromU());
    EXPECT_FALSE(plan.LaplaceFromW());
    EXPECT_EQ(plan.NumLaplaceReleases(), 0);
    EXPECT_EQ(plan.NumRounds(), 1);
    EXPECT_DOUBLE_EQ(plan.epsilon1, 2.0);
    EXPECT_DOUBLE_EQ(plan.epsilon2, 0.0);
  }

  // MultiR-SS: only w releases a view; u releases one Laplace scalar.
  const ProtocolPlan ss = MakeProtocolPlan(ProtocolKind::kMultiRSS, 2.0, 0.25);
  EXPECT_FALSE(ss.UsesNoisyViewU());
  EXPECT_TRUE(ss.UsesNoisyViewW());
  EXPECT_TRUE(ss.LaplaceFromU());
  EXPECT_FALSE(ss.LaplaceFromW());
  EXPECT_EQ(ss.NumLaplaceReleases(), 1);
  EXPECT_EQ(ss.NumRounds(), 2);
  EXPECT_DOUBLE_EQ(ss.epsilon1, 0.5);
  EXPECT_DOUBLE_EQ(ss.epsilon2, 1.5);

  // MultiR-DS: both views, both Laplace scalars.
  const ProtocolPlan ds = MakeProtocolPlan(ProtocolKind::kMultiRDS, 2.0, 0.5);
  EXPECT_TRUE(ds.UsesNoisyViewU());
  EXPECT_TRUE(ds.LaplaceFromU());
  EXPECT_TRUE(ds.LaplaceFromW());
  EXPECT_EQ(ds.NumLaplaceReleases(), 2);
  EXPECT_EQ(ds.NumRounds(), 2);
}

TEST(DebiasConstantsTest, MatchesTheClosedFormDefinitions) {
  for (double epsilon1 : {0.5, 1.0, 2.0}) {
    const double p = FlipProbability(epsilon1);
    const DebiasConstants d = MakeDebiasConstantsForEpsilon(epsilon1);
    EXPECT_DOUBLE_EQ(d.flip_probability, p);
    EXPECT_DOUBLE_EQ(d.q, 1.0 - 2.0 * p);
    // The single-source coefficients — `stay` doubles as the Laplace
    // sensitivity of f_u.
    EXPECT_DOUBLE_EQ(d.stay, SingleSourceSensitivity(epsilon1));
    EXPECT_DOUBLE_EQ(d.flip, p / (1.0 - 2.0 * p));
  }
}

TEST(DebiasConstantsTest, OneRFromCountsEqualsClosedForm) {
  const DebiasConstants d = MakeDebiasConstants(0.2);
  for (uint64_t n1 : {0u, 3u, 7u}) {
    for (uint64_t extra : {0u, 5u}) {
      const uint64_t n2 = n1 + extra;
      EXPECT_DOUBLE_EQ(OneRFromCounts(d, n1, n2, 100),
                       OneRClosedForm(n1, n2, 100, 0.2));
    }
  }
  // p = 0 recovers the intersection exactly.
  const DebiasConstants exact = MakeDebiasConstants(0.0);
  EXPECT_DOUBLE_EQ(OneRFromCounts(exact, 7, 20, 100), 7.0);
}

TEST(DebiasConstantsTest, SingleSourceFromCountsMatchesDefinition) {
  const DebiasConstants d = MakeDebiasConstants(0.25);
  const double p = 0.25, q = 0.5;
  // s1 = 4 of degree 10: f = 4 (1-p)/q - 6 p/q.
  EXPECT_NEAR(SingleSourceFromCounts(d, 4, 10),
              4.0 * (1.0 - p) / q - 6.0 * p / q, 1e-12);
}

TEST(DebiasConstantsTest, DegreeFromViewSizeInvertsTheExpectation) {
  // Feeding the exact expected noisy size returns the true degree.
  const double epsilon = 1.0;
  const DebiasConstants d = MakeDebiasConstantsForEpsilon(epsilon);
  const double p = d.flip_probability;
  const uint64_t degree = 12;
  const VertexId domain = 200;
  const double expected_size =
      static_cast<double>(degree) * (1.0 - p) +
      static_cast<double>(domain - degree) * p;
  EXPECT_NEAR(DebiasedDegreeFromViewSize(
                  d, static_cast<uint64_t>(expected_size + 0.5), domain),
              static_cast<double>(degree), 1.0);
}

// --- The estimator drivers are thin: same rng stream in, same result out.

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  const BipartiteGraph graph_ = PlantedCommonNeighbors(3, 5, 2, 40, 4);
  const QueryPair query_{Layer::kLower, 0, 1};
};

TEST_F(PipelineEquivalenceTest, NaiveDriverMatchesExecuteProtocol) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng a(seed), b(seed);
    const EstimateResult driver =
        NaiveEstimator().Estimate(graph_, query_, 1.5, a);
    const ProtocolOutcome direct = ExecuteProtocol(
        graph_, query_, MakeProtocolPlan(ProtocolKind::kNaive, 1.5, 0.5), b);
    EXPECT_EQ(driver.estimate, direct.estimate);
    EXPECT_EQ(driver.rounds, direct.rounds);
    EXPECT_EQ(driver.uploaded_bytes, direct.uploaded_bytes);
    EXPECT_EQ(driver.downloaded_bytes, direct.downloaded_bytes);
  }
}

TEST_F(PipelineEquivalenceTest, OneRDriverMatchesExecuteProtocol) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng a(seed), b(seed);
    const EstimateResult driver =
        OneREstimator().Estimate(graph_, query_, 1.5, a);
    const ProtocolOutcome direct = ExecuteProtocol(
        graph_, query_, MakeProtocolPlan(ProtocolKind::kOneR, 1.5, 0.5), b);
    EXPECT_EQ(driver.estimate, direct.estimate);
    EXPECT_EQ(driver.rounds, direct.rounds);
  }
}

TEST_F(PipelineEquivalenceTest, MultiRSSDriverMatchesExecuteProtocol) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng a(seed), b(seed);
    const EstimateResult driver =
        MultiRSSEstimator(0.5).Estimate(graph_, query_, 2.0, a);
    const ProtocolOutcome direct = ExecuteProtocol(
        graph_, query_, MakeProtocolPlan(ProtocolKind::kMultiRSS, 2.0, 0.5),
        b);
    EXPECT_EQ(driver.estimate, direct.estimate);
    EXPECT_EQ(driver.rounds, direct.rounds);
    EXPECT_EQ(driver.uploaded_bytes, direct.uploaded_bytes);
    EXPECT_EQ(driver.downloaded_bytes, direct.downloaded_bytes);
  }
}

TEST_F(PipelineEquivalenceTest, MultiRDSBasicDriverMatchesExecuteProtocol) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng a(seed), b(seed);
    const EstimateResult driver =
        MakeMultiRDSBasic(0.5)->Estimate(graph_, query_, 2.0, a);
    const ProtocolOutcome direct = ExecuteProtocol(
        graph_, query_,
        MakeProtocolPlanSplit(ProtocolKind::kMultiRDS, 1.0, 1.0, 0.5), b);
    EXPECT_EQ(driver.estimate, direct.estimate);
    EXPECT_EQ(driver.rounds, direct.rounds);
  }
}

TEST_F(PipelineEquivalenceTest, SingleSourceEstimateUsesTheConstants) {
  // A fake noisy set equal to the truth with p = 0 recovers C2 exactly.
  const auto neighbors = graph_.Neighbors({Layer::kLower, 1});
  const NoisyNeighborSet fake(
      std::vector<VertexId>(neighbors.begin(), neighbors.end()),
      graph_.NumUpper(), 0.0);
  EXPECT_DOUBLE_EQ(
      SingleSourceEstimate(graph_, {Layer::kLower, 0}, fake),
      static_cast<double>(graph_.CountCommonNeighbors(Layer::kLower, 0, 1)));
}

}  // namespace
}  // namespace cne
