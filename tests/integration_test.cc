// End-to-end integration: the full roster running over generated dataset
// analogs through the experiment harness, reproducing the qualitative
// claims of the paper's evaluation in miniature.

#include <memory>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/multir_ds.h"
#include "core/multir_ss.h"
#include "core/naive.h"
#include "core/oner.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "eval/query_sampler.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace cne {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A mid-size power-law graph comparable to the rmwiki analog.
    Rng rng(2024);
    graph_ = new BipartiteGraph(
        ChungLuPowerLaw(1200, 8100, 58000, 2.1, rng));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static const BipartiteGraph* graph_;
};

const BipartiteGraph* IntegrationTest::graph_ = nullptr;

TEST_F(IntegrationTest, MultiRoundBeatsOneRoundBeatsNaive) {
  // The headline of Fig. 6(a), on uniform pairs at ε = 2. Sixteen
  // protocol runs per pair average the noise out of each MAE, so the
  // ratios below measure the estimators rather than one noise draw.
  Rng rng(1);
  const auto pairs = SampleUniformPairs(*graph_, Layer::kUpper, 40, rng);
  ExperimentConfig config;
  config.epsilon = 2.0;
  config.trials_per_pair = 16;
  const auto roster = MakeAllEstimators();
  const auto metrics = RunAllEstimators(*graph_, roster, pairs, config, rng);

  double mae_naive = 0, mae_oner = 0, mae_ss = 0, mae_ds = 0, mae_central = 0;
  for (const auto& m : metrics) {
    if (m.estimator == "Naive") mae_naive = m.mean_absolute_error;
    if (m.estimator == "OneR") mae_oner = m.mean_absolute_error;
    if (m.estimator == "MultiR-SS") mae_ss = m.mean_absolute_error;
    if (m.estimator == "MultiR-DS") mae_ds = m.mean_absolute_error;
    if (m.estimator == "CentralDP") mae_central = m.mean_absolute_error;
  }
  EXPECT_GT(mae_naive, 5 * mae_oner);    // naive overcounts massively
  // Candidate-pool reduction. With 16 runs per pair the OneR/MultiR-SS
  // MAE ratio on this graph lies in 2.7-3.1 for each query seed from 1 to
  // 10 (about 2.9 on these pairs), so the bound leaves room for noise
  // but not for a real loss of accuracy. One run per pair scatters the
  // same ratio over 2.1-4.1.
  EXPECT_GT(mae_oner, 2.5 * mae_ss);
  EXPECT_LT(mae_ds, mae_oner);           // DS also beats one-round
  EXPECT_LT(mae_central, mae_ss);        // central model is the floor
}

TEST_F(IntegrationTest, ErrorDecreasesWithEpsilon) {
  // Fig. 7 shape for the one-round algorithms on a fixed workload.
  Rng rng(2);
  const auto pairs = SampleUniformPairs(*graph_, Layer::kUpper, 30, rng);
  OneREstimator oner;
  double previous = 1e300;
  for (double eps : {1.0, 2.0, 3.0}) {
    ExperimentConfig config;
    config.epsilon = eps;
    config.trials_per_pair = 3;
    Rng run_rng(static_cast<uint64_t>(eps * 10));
    const EstimatorMetrics m =
        RunEstimator(*graph_, oner, pairs, config, run_rng);
    EXPECT_LT(m.mean_absolute_error, previous) << "eps " << eps;
    previous = m.mean_absolute_error;
  }
}

TEST_F(IntegrationTest, MultiRoundErrorStableUnderVertexSampling) {
  // Fig. 11 shape: MultiR-SS error does not grow with |V|; OneR's does.
  MultiRSSEstimator ss;
  OneREstimator oner;
  ExperimentConfig config;
  config.epsilon = 2.0;
  config.trials_per_pair = 2;

  double ss_small = 0, ss_full = 0, oner_small = 0, oner_full = 0;
  {
    Rng sub_rng(3);
    const BipartiteGraph small =
        InducedSubgraphByVertexFraction(*graph_, 0.2, sub_rng);
    Rng rng(4);
    const auto pairs = SampleUniformPairs(small, Layer::kUpper, 30, rng);
    ss_small = RunEstimator(small, ss, pairs, config, rng)
                   .mean_absolute_error;
    oner_small = RunEstimator(small, oner, pairs, config, rng)
                     .mean_absolute_error;
  }
  {
    Rng rng(5);
    const auto pairs = SampleUniformPairs(*graph_, Layer::kUpper, 30, rng);
    ss_full = RunEstimator(*graph_, ss, pairs, config, rng)
                  .mean_absolute_error;
    oner_full = RunEstimator(*graph_, oner, pairs, config, rng)
                    .mean_absolute_error;
  }
  // OneR error grows markedly with the candidate pool (~sqrt(n1) in MAE);
  // MultiR-SS stays within a modest band.
  EXPECT_GT(oner_full, 1.5 * oner_small);
  EXPECT_LT(ss_full, 3.0 * ss_small + 3.0);
}

TEST_F(IntegrationTest, DSMoreRobustThanSSOnImbalancedPairs) {
  // Fig. 9 shape at high kappa.
  Rng rng(6);
  const auto pairs =
      SampleImbalancedPairs(*graph_, Layer::kUpper, 100.0, 25, rng);
  ASSERT_GT(pairs.size(), 10u);
  ExperimentConfig config;
  config.epsilon = 2.0;
  config.trials_per_pair = 4;
  MultiRSSEstimator ss;
  auto ds = MakeMultiRDS();
  Rng rng_ss(7), rng_ds(8);
  const double mae_ss =
      RunEstimator(*graph_, ss, pairs, config, rng_ss).mean_absolute_error;
  const double mae_ds =
      RunEstimator(*graph_, *ds, pairs, config, rng_ds).mean_absolute_error;
  EXPECT_LT(mae_ds, mae_ss);
}

TEST(IntegrationSmallDatasetTest, RegistryGraphRunsEndToEnd) {
  // Generate the smallest registry dataset and push it through the full
  // pipeline once.
  const auto spec = FindDataset("RM");
  ASSERT_TRUE(spec.has_value());
  const BipartiteGraph g = MakeDataset(*spec);
  Rng rng(9);
  const auto pairs = SampleUniformPairs(g, spec->query_layer, 5, rng);
  const auto roster = MakeAllEstimators();
  const auto metrics = RunAllEstimators(g, roster, pairs, {}, rng);
  ASSERT_EQ(metrics.size(), roster.size());
  for (const auto& m : metrics) {
    EXPECT_EQ(m.num_queries, 5u) << m.estimator;
  }
}

}  // namespace
}  // namespace cne
