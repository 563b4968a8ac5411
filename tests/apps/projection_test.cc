#include "apps/projection.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace cne {
namespace {

// Lower-layer fixture: pairs (0,1) share 3, (0,2) share 1, (1,2) share 0.
BipartiteGraph MakeFixture() {
  GraphBuilder b(6, 3);
  b.AddEdge(0, 0).AddEdge(1, 0).AddEdge(2, 0).AddEdge(3, 0);
  b.AddEdge(0, 1).AddEdge(1, 1).AddEdge(2, 1);
  b.AddEdge(3, 2).AddEdge(4, 2).AddEdge(5, 2);
  return b.Build();
}

TEST(ExactProjectionTest, ThresholdFiltersPairs) {
  const BipartiteGraph g = MakeFixture();
  const std::vector<QueryPair> candidates = {
      {Layer::kLower, 0, 1}, {Layer::kLower, 0, 2}, {Layer::kLower, 1, 2}};
  const auto strict = ExactProjection(g, candidates, 2.0);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].a, 0u);
  EXPECT_EQ(strict[0].b, 1u);
  EXPECT_DOUBLE_EQ(strict[0].weight, 3.0);

  const auto loose = ExactProjection(g, candidates, 1.0);
  EXPECT_EQ(loose.size(), 2u);
}

TEST(ExactProjectionAllPairsTest, MatchesCandidateEnumeration) {
  const BipartiteGraph g = MakeFixture();
  const auto all = ExactProjectionAllPairs(g, Layer::kLower, 1.0);
  // Pairs (0,1) weight 3 and (0,2) weight 1.
  ASSERT_EQ(all.size(), 2u);
  double total_weight = 0;
  for (const auto& e : all) total_weight += e.weight;
  EXPECT_DOUBLE_EQ(total_weight, 4.0);
}

TEST(ExactProjectionAllPairsTest, CompleteBipartiteProjectsToClique) {
  const BipartiteGraph g = CompleteBipartite(4, 3);
  const auto proj = ExactProjectionAllPairs(g, Layer::kUpper, 1.0);
  EXPECT_EQ(proj.size(), 6u);  // C(4,2)
  for (const auto& e : proj) EXPECT_DOUBLE_EQ(e.weight, 3.0);
}

TEST(ServiceProjectionTest, HighBudgetMatchesExactProjection) {
  const BipartiteGraph g = MakeFixture();
  const std::vector<QueryPair> candidates = {
      {Layer::kLower, 0, 1}, {Layer::kLower, 0, 2}, {Layer::kLower, 1, 2}};
  const auto exact = ExactProjection(g, candidates, 2.0);
  int perfect = 0;
  for (uint64_t t = 0; t < 50; ++t) {
    ServiceOptions options;
    options.algorithm = ServiceAlgorithm::kOneR;
    options.epsilon = 12.0;
    options.seed = t;
    QueryService service(g, options);
    const auto priv = ServiceProjection(service, candidates, 2.0);
    const ProjectionQuality q = CompareProjections(exact, priv);
    perfect += q.f1 == 1.0;
    // All three pairs run over three shared releases (vertices 0, 1, 2).
    EXPECT_EQ(service.store().stats().releases, 3u);
  }
  EXPECT_GT(perfect, 40);
}

TEST(ServiceProjectionTest, LowBudgetDegradesQuality) {
  Rng gen(2);
  const BipartiteGraph g = ErdosRenyiBipartite(40, 40, 400, gen);
  std::vector<QueryPair> candidates;
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId w = u + 1; w < 10; ++w) {
      candidates.push_back({Layer::kLower, u, w});
    }
  }
  // A half-integer threshold: at ε = 20 the OneR estimate of C2 = 3 can
  // land a hair below 3.0, which would drop exact ties at random.
  const auto exact = ExactProjection(g, candidates, 2.5);
  const auto mean_f1 = [&](double epsilon) {
    double f1 = 0;
    const int runs = 50;
    for (uint64_t t = 0; t < runs; ++t) {
      ServiceOptions options;
      options.algorithm = ServiceAlgorithm::kOneR;
      options.epsilon = epsilon;
      options.seed = t;
      QueryService service(g, options);
      f1 += CompareProjections(exact, ServiceProjection(service, candidates,
                                                        2.5))
                .f1;
    }
    return f1 / runs;
  };
  EXPECT_GT(mean_f1(20.0), mean_f1(0.05));
}

TEST(ServiceProjectionTest, RejectedPairsProduceNoEdge) {
  const BipartiteGraph g = MakeFixture();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 2.0;
  options.lifetime_budget = 0.5;  // below one release: everything rejects
  QueryService service(g, options);
  const auto edges = ServiceProjection(
      service, {{Layer::kLower, 0, 1}, {Layer::kLower, 0, 2}}, 0.0);
  EXPECT_TRUE(edges.empty());
  EXPECT_EQ(service.store().stats().releases, 0u);
}

TEST(CompareProjectionsTest, Metrics) {
  const std::vector<ProjectionEdge> exact = {{0, 1, 3.0}, {0, 2, 1.0}};
  const std::vector<ProjectionEdge> est = {{1, 0, 2.5}, {1, 2, 4.0}};
  // Endpoint order must not matter: {1,0} matches {0,1}.
  const ProjectionQuality q = CompareProjections(exact, est);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
}

TEST(CompareProjectionsTest, EmptyCases) {
  const ProjectionQuality both = CompareProjections({}, {});
  EXPECT_DOUBLE_EQ(both.precision, 1.0);
  EXPECT_DOUBLE_EQ(both.recall, 1.0);
  const ProjectionQuality spurious =
      CompareProjections({}, {{0, 1, 1.0}});
  EXPECT_DOUBLE_EQ(spurious.precision, 0.0);
  EXPECT_DOUBLE_EQ(spurious.recall, 1.0);
}

}  // namespace
}  // namespace cne
