// The planner's contract: grouping is deterministic and shaped by
// endpoint sharing, and the service reports it. That answers do not
// depend on the order is QueryServiceTest's thread-count identity check.

#include "service/workload_planner.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/query_service.h"
#include "util/rng.h"

namespace cne {
namespace {

BipartiteGraph TestGraph() { return PlantedCommonNeighbors(3, 5, 2, 40, 8); }

// Plans every query of `queries` (all admitted).
WorkloadPlan PlanAll(WorkloadPlanner& planner,
                     const std::vector<QueryPair>& queries) {
  std::vector<uint32_t> slots(queries.size());
  for (uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return planner.Plan(queries, slots);
}

WorkloadPlan PlanWorkload(const std::vector<QueryPair>& queries) {
  static const BipartiteGraph graph = TestGraph();
  WorkloadPlanner planner(graph);
  return PlanAll(planner, queries);
}

TEST(PlanWorkloadTest, OneVsManyCollapsesIntoASingleGroup) {
  std::vector<QueryPair> queries;
  for (VertexId w = 1; w <= 6; ++w) queries.push_back({Layer::kLower, 0, w});
  const WorkloadPlan plan = PlanWorkload(queries);
  ASSERT_EQ(plan.groups.size(), 1u);
  const QueryGroup& group = plan.groups.front();
  EXPECT_EQ(group.source, (LayeredVertex{Layer::kLower, 0}));
  EXPECT_EQ(group.Size(), 6u);
  EXPECT_DOUBLE_EQ(plan.AvgGroupSize(), 6.0);
  // Within a group, slots keep submission order.
  EXPECT_EQ(plan.order, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(PlanWorkloadTest, SharedEndpointWinsEitherRole) {
  // Vertex 0 appears three times, once as u and twice as w: all three
  // queries join its group, whichever role it plays.
  const std::vector<QueryPair> queries = {{Layer::kLower, 0, 1},
                                          {Layer::kLower, 2, 0},
                                          {Layer::kLower, 3, 0}};
  const WorkloadPlan plan = PlanWorkload(queries);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups.front().source, (LayeredVertex{Layer::kLower, 0}));
  EXPECT_EQ(plan.order, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(PlanWorkloadTest, LargestGroupComesFirstDeterministically) {
  const std::vector<QueryPair> queries = {
      {Layer::kLower, 7, 6},  // singleton group
      {Layer::kLower, 2, 1}, {Layer::kLower, 2, 3}, {Layer::kLower, 2, 4},
      {Layer::kLower, 5, 1},  // 1 appears twice, 5 once -> group of 1
  };
  const WorkloadPlan plan = PlanWorkload(queries);
  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.groups[0].source, (LayeredVertex{Layer::kLower, 2}));
  EXPECT_EQ(plan.groups[0].Size(), 3u);
  // Equal-size groups tie-break on source id: vertex 1 before vertex 7.
  EXPECT_EQ(plan.groups[1].source, (LayeredVertex{Layer::kLower, 1}));
  EXPECT_EQ(plan.groups[2].source, (LayeredVertex{Layer::kLower, 7}));
  // `order` lays the groups out back to back in that order.
  EXPECT_EQ(plan.order, (std::vector<uint32_t>{1, 2, 3, 4, 0}));
  for (size_t g = 1; g < plan.groups.size(); ++g) {
    EXPECT_EQ(plan.groups[g].begin, plan.groups[g - 1].end);
  }
  // Same input, same plan: no hashing, no dependence on earlier plans.
  const BipartiteGraph g = TestGraph();
  WorkloadPlanner planner(g);
  PlanAll(planner, {{Layer::kLower, 1, 2}, {Layer::kLower, 7, 2}});
  EXPECT_EQ(PlanAll(planner, queries).order, plan.order);
}

TEST(PlanWorkloadTest, SelfPairStaysWithU) {
  const WorkloadPlan plan = PlanWorkload({{Layer::kLower, 4, 4}});
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].source, (LayeredVertex{Layer::kLower, 4}));
  EXPECT_EQ(plan.order, (std::vector<uint32_t>{0}));
}

TEST(PlanWorkloadTest, PlansOnlyTheGivenSlots) {
  // Rejected queries are left out of the slot list: they neither form
  // groups nor count toward endpoint frequencies.
  const BipartiteGraph g = TestGraph();
  WorkloadPlanner planner(g);
  const std::vector<QueryPair> queries = {{Layer::kLower, 0, 1},
                                          {Layer::kLower, 2, 3},
                                          {Layer::kLower, 0, 3},
                                          {Layer::kLower, 4, 3}};
  const std::vector<uint32_t> admitted = {0, 3};
  const WorkloadPlan& plan = planner.Plan(queries, admitted);
  ASSERT_EQ(plan.groups.size(), 2u);
  EXPECT_EQ(plan.groups[0].source, (LayeredVertex{Layer::kLower, 0}));
  EXPECT_EQ(plan.groups[1].source, (LayeredVertex{Layer::kLower, 4}));
  EXPECT_EQ(plan.order, admitted);
}

TEST(PlanWorkloadTest, ScratchResetsBetweenSubmissions) {
  const BipartiteGraph g = TestGraph();
  WorkloadPlanner planner(g);
  const WorkloadPlan first =
      PlanAll(planner, {{Layer::kLower, 0, 1}, {Layer::kLower, 0, 2}});
  ASSERT_EQ(first.groups.size(), 1u);
  EXPECT_EQ(first.groups[0].source, (LayeredVertex{Layer::kLower, 0}));
  // The second submission must not inherit the first one's frequencies:
  // vertex 2 is the shared endpoint now, vertex 0 is absent.
  const WorkloadPlan second =
      PlanAll(planner, {{Layer::kLower, 1, 2}, {Layer::kLower, 3, 2}});
  ASSERT_EQ(second.groups.size(), 1u);
  EXPECT_EQ(second.groups[0].source, (LayeredVertex{Layer::kLower, 2}));
}

TEST(PlanWorkloadTest, EverySlotOfAGroupHasTheSourceAsAnEndpoint) {
  // The service's blocked execute pairs each slot's other endpoint with
  // its group's source view, so the source must be one endpoint of every
  // query in the group, on the group's layer. Random mixed-layer
  // submissions with self pairs and a gap in the admitted slots.
  const BipartiteGraph g = TestGraph();
  WorkloadPlanner planner(g);
  Rng rng(26);
  for (int round = 0; round < 20; ++round) {
    std::vector<QueryPair> queries;
    for (int i = 0; i < 200; ++i) {
      const Layer layer = rng.Bernoulli(0.5) ? Layer::kUpper : Layer::kLower;
      const uint64_t n = std::min<uint64_t>(g.NumVertices(layer), 6);
      const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      const VertexId w =
          i % 7 == 0 ? u : static_cast<VertexId>(rng.UniformInt(n));
      queries.push_back({layer, u, w});
    }
    std::vector<uint32_t> slots;
    for (uint32_t i = 0; i < queries.size(); ++i) {
      if (i % 5 != 3) slots.push_back(i);
    }
    const WorkloadPlan& plan = planner.Plan(queries, slots);
    std::vector<uint32_t> placed;
    for (const QueryGroup& group : plan.groups) {
      for (uint32_t k = group.begin; k < group.end; ++k) {
        const QueryPair& query = queries[plan.order[k]];
        EXPECT_EQ(query.layer, group.source.layer) << "slot " << plan.order[k];
        EXPECT_TRUE(query.u == group.source.id || query.w == group.source.id)
            << "slot " << plan.order[k] << " in the group of "
            << group.source.id;
        placed.push_back(plan.order[k]);
      }
    }
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(placed, slots);
  }
}

TEST(PlannedExecutionTest, PlannerAccountingIsReported) {
  const BipartiteGraph g = TestGraph();
  std::vector<QueryPair> queries;
  for (VertexId w = 1; w <= 6; ++w) queries.push_back({Layer::kLower, 0, w});
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 1.0;
  QueryService service(g, options);
  const ServiceReport report = service.Submit(queries);
  EXPECT_EQ(report.groups_formed, 1u);
  EXPECT_DOUBLE_EQ(report.avg_group_size, 6.0);
  EXPECT_GE(report.planner_seconds, 0.0);
  EXPECT_EQ(report.rejected, 0u);
}

}  // namespace
}  // namespace cne
