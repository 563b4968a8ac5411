#include "apps/topk.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace cne {
namespace {

// Lower-layer source 0 with candidates 1..4 sharing 4, 3, 1, 0 upper
// neighbors respectively.
BipartiteGraph MakeRankedFixture() {
  GraphBuilder b(8, 5);
  for (VertexId v = 0; v < 6; ++v) b.AddEdge(v, 0);  // deg(source) = 6
  for (VertexId v = 0; v < 4; ++v) b.AddEdge(v, 1);  // C2 = 4
  for (VertexId v = 0; v < 3; ++v) b.AddEdge(v, 2);  // C2 = 3
  b.AddEdge(5, 3);                                   // C2 = 1
  b.AddEdge(7, 4);                                   // C2 = 0
  return b.Build();
}

TEST(ExactTopKTest, RanksByCommonNeighbors) {
  const BipartiteGraph g = MakeRankedFixture();
  const TopKResult r = ExactTopKCommonNeighbors(
      g, {Layer::kLower, 0}, {1, 2, 3, 4}, 2);
  ASSERT_EQ(r.ranked.size(), 2u);
  EXPECT_EQ(r.ranked[0].vertex, 1u);
  EXPECT_DOUBLE_EQ(r.ranked[0].score, 4.0);
  EXPECT_EQ(r.ranked[1].vertex, 2u);
}

TEST(ExactTopKTest, ExcludesSourceFromCandidates) {
  const BipartiteGraph g = MakeRankedFixture();
  const TopKResult r = ExactTopKCommonNeighbors(
      g, {Layer::kLower, 0}, {0, 1}, 5);
  ASSERT_EQ(r.ranked.size(), 1u);
  EXPECT_EQ(r.ranked[0].vertex, 1u);
}

TEST(ExactTopKTest, KLargerThanCandidates) {
  const BipartiteGraph g = MakeRankedFixture();
  const TopKResult r = ExactTopKCommonNeighbors(
      g, {Layer::kLower, 0}, {1, 2}, 10);
  EXPECT_EQ(r.ranked.size(), 2u);
}

TEST(ServiceTopKTest, HighBudgetRecoversExactRankingOverSharedViews) {
  const BipartiteGraph g = MakeRankedFixture();
  const TopKResult exact = ExactTopKCommonNeighbors(
      g, {Layer::kLower, 0}, {1, 2, 3, 4}, 2);
  int perfect = 0;
  for (uint64_t t = 0; t < 100; ++t) {
    ServiceOptions options;
    options.algorithm = ServiceAlgorithm::kOneR;
    options.epsilon = 8.0;  // one shared release, not ε / N per pair
    options.seed = t;
    QueryService service(g, options);
    const TopKResult priv = ServiceTopKCommonNeighbors(
        service, {Layer::kLower, 0}, {1, 2, 3, 4}, 2);
    EXPECT_EQ(priv.ranked.size(), 2u);
    perfect += TopKRecall(exact, priv) == 1.0;
  }
  EXPECT_GT(perfect, 90);
}

TEST(ServiceTopKTest, SkipsSourceAndReleasesEachVertexOnce) {
  const BipartiteGraph g = MakeRankedFixture();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 2.0;
  QueryService service(g, options);
  const TopKResult r = ServiceTopKCommonNeighbors(
      service, {Layer::kLower, 0}, {0, 1, 2, 3, 4}, 10);
  EXPECT_EQ(r.ranked.size(), 4u);  // the source itself is skipped
  // One release per distinct vertex: source + 4 candidates.
  EXPECT_EQ(service.store().stats().releases, 5u);
  EXPECT_DOUBLE_EQ(r.epsilon_per_candidate, 2.0);
  // A second top-k over the same candidates is pure post-processing.
  const TopKResult again = ServiceTopKCommonNeighbors(
      service, {Layer::kLower, 0}, {1, 2, 3, 4}, 10);
  EXPECT_EQ(service.store().stats().releases, 5u);
  ASSERT_EQ(again.ranked.size(), r.ranked.size());
  for (size_t i = 0; i < r.ranked.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.ranked[i].score, r.ranked[i].score);
  }
}

TEST(TopKRecallTest, Values) {
  TopKResult exact;
  exact.ranked = {{1, 4.0}, {2, 3.0}};
  TopKResult est;
  est.ranked = {{2, 9.0}, {7, 8.0}};
  EXPECT_DOUBLE_EQ(TopKRecall(exact, est), 0.5);
  est.ranked = {{1, 1.0}, {2, 1.0}};
  EXPECT_DOUBLE_EQ(TopKRecall(exact, est), 1.0);
  exact.ranked.clear();
  EXPECT_DOUBLE_EQ(TopKRecall(exact, est), 1.0);
}

TEST(ServiceTopKDeathTest, RejectsEmptyCandidates) {
  const BipartiteGraph g = MakeRankedFixture();
  EXPECT_DEATH(
      {
        QueryService service(g, ServiceOptions{});
        ServiceTopKCommonNeighbors(service, {Layer::kLower, 0}, {}, 2);
      },
      "candidates");
}

}  // namespace
}  // namespace cne
