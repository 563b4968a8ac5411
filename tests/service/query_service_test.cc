#include "service/query_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "ldp/randomized_response.h"
#include "service/workload.h"
#include "util/cpu_features.h"
#include "util/statistics.h"

namespace cne {
namespace {

// Lower layer: query vertices 0 and 1 (C2 = 3) plus 8 isolated extras,
// so hot-set workloads have ids 0..9 to draw from.
BipartiteGraph TestGraph() { return PlantedCommonNeighbors(3, 5, 2, 40, 8); }

std::vector<QueryPair> TestWorkload(const BipartiteGraph& g, size_t count) {
  Rng rng(12345);
  return MakeHotSetWorkload(g, Layer::kLower, count, 8, rng);
}

// Hot-set reuse plus duplicates, both orientations, a self-pair and the
// other layer; under a lifetime budget of 6 the MultiR family also hits
// rejections mid-stream.
std::vector<QueryPair> AdversarialWorkload(const BipartiteGraph& g) {
  Rng rng(2024);
  std::vector<QueryPair> queries =
      MakeHotSetWorkload(g, Layer::kLower, 120, 6, rng);
  queries.push_back({Layer::kLower, 0, 1});
  queries.push_back({Layer::kLower, 0, 1});  // duplicate
  queries.push_back({Layer::kLower, 1, 0});  // reversed orientation
  queries.push_back({Layer::kLower, 3, 3});  // self-pair
  queries.push_back({Layer::kUpper, 0, 1});  // other layer
  return queries;
}

ServiceReport RunOnce(const BipartiteGraph& g, ServiceAlgorithm algorithm,
                      int threads, const std::vector<QueryPair>& workload,
                      double lifetime_budget = 0.0) {
  ServiceOptions options;
  options.algorithm = algorithm;
  options.epsilon = 2.0;
  options.lifetime_budget = lifetime_budget;
  options.num_threads = threads;
  options.seed = 99;
  QueryService service(g, options);
  return service.Submit(workload);
}

// --- The headline property: answers are byte-identical for any thread
// --- count, for every algorithm, including which queries get rejected.

TEST(QueryServiceTest, AnswersAreIdenticalAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  const struct {
    std::vector<QueryPair> workload;
    double lifetime_budget;
  } inputs[] = {{TestWorkload(g, 300), 0.0}, {AdversarialWorkload(g), 6.0}};
  for (const auto& [workload, lifetime_budget] : inputs) {
    for (ServiceAlgorithm algorithm :
         {ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR,
          ServiceAlgorithm::kMultiRSS, ServiceAlgorithm::kMultiRDS}) {
      const ServiceReport sequential =
          RunOnce(g, algorithm, 1, workload, lifetime_budget);
      if (lifetime_budget > 0.0 && algorithm != ServiceAlgorithm::kNaive &&
          algorithm != ServiceAlgorithm::kOneR) {
        EXPECT_GT(sequential.rejected, 0u) << ToString(algorithm);
      }
      for (int threads : {2, 8}) {
        const ServiceReport parallel =
            RunOnce(g, algorithm, threads, workload, lifetime_budget);
        ASSERT_EQ(parallel.answers.size(), sequential.answers.size());
        for (size_t i = 0; i < sequential.answers.size(); ++i) {
          EXPECT_EQ(parallel.answers[i].rejected,
                    sequential.answers[i].rejected)
              << ToString(algorithm) << " query " << i << " threads "
              << threads;
          // Bitwise equality, not approximate: the noise itself is shared.
          EXPECT_EQ(parallel.answers[i].estimate,
                    sequential.answers[i].estimate)
              << ToString(algorithm) << " query " << i << " threads "
              << threads;
        }
        EXPECT_EQ(parallel.store.releases, sequential.store.releases);
        EXPECT_EQ(parallel.rejected, sequential.rejected);
        EXPECT_EQ(parallel.groups_formed, sequential.groups_formed);
      }
    }
  }
}

TEST(QueryServiceTest, SubmitInTwoBatchesMatchesOneBatch) {
  // Splitting a workload across Submit calls must not change any answer:
  // admission order, store state, and noise substreams all continue.
  const BipartiteGraph g = TestGraph();
  const std::vector<QueryPair> workload = TestWorkload(g, 100);
  const ServiceReport whole =
      RunOnce(g, ServiceAlgorithm::kMultiRDS, 1, workload);

  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRDS;
  options.epsilon = 2.0;
  options.num_threads = 4;
  options.seed = 99;
  QueryService service(g, options);
  const std::vector<QueryPair> first(workload.begin(), workload.begin() + 37);
  const std::vector<QueryPair> second(workload.begin() + 37, workload.end());
  const ServiceReport a = service.Submit(first);
  const ServiceReport b = service.Submit(second);
  ASSERT_EQ(a.answers.size() + b.answers.size(), whole.answers.size());
  for (size_t i = 0; i < whole.answers.size(); ++i) {
    const ServiceAnswer& split =
        i < first.size() ? a.answers[i] : b.answers[i - first.size()];
    EXPECT_EQ(split.rejected, whole.answers[i].rejected) << "query " << i;
    EXPECT_EQ(split.estimate, whole.answers[i].estimate) << "query " << i;
  }
}

// --- Budget ledger properties.

TEST(QueryServiceTest, VertexIsNeverReleasedTwiceUnderOneBudget) {
  // Property test over many random workloads: however often a vertex is
  // queried, the store releases it exactly once and charges exactly ε.
  const BipartiteGraph g = TestGraph();
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(1000 + trial);
    const auto workload =
        MakeHotSetWorkload(g, Layer::kLower, 50, 5, rng);
    ServiceOptions options;
    options.algorithm = ServiceAlgorithm::kOneR;
    options.epsilon = 2.0;
    options.num_threads = 4;
    options.seed = trial;
    QueryService service(g, options);
    const ServiceReport report = service.Submit(workload);
    EXPECT_EQ(report.rejected, 0u);

    // Count distinct vertices in the workload.
    std::vector<bool> seen(g.NumLower(), false);
    uint64_t distinct = 0;
    for (const QueryPair& q : workload) {
      for (VertexId v : {q.u, q.w}) {
        if (!seen[v]) {
          seen[v] = true;
          ++distinct;
        }
      }
    }
    EXPECT_EQ(report.store.releases, distinct);
    EXPECT_EQ(report.budget_vertices_charged, distinct);
    for (const VertexBudget& vb : service.ledger().Snapshot()) {
      EXPECT_DOUBLE_EQ(vb.spent, 2.0);  // exactly one full-ε release
      EXPECT_NEAR(vb.remaining, 0.0, 1e-12);
    }
    // Re-submitting the same workload must release nothing new: every
    // lookup is a cache hit on the public views.
    const ServiceReport again = service.Submit(workload);
    EXPECT_EQ(again.store.releases, distinct);
    EXPECT_EQ(again.rejected, 0u);
  }
}

TEST(QueryServiceTest, OverBudgetQueriesAreRejectedDeterministically) {
  // MultiR-SS at ε = 2, split 1 + 1, lifetime budget 2: a vertex can
  // afford two Laplace sourcings if it is never RR-released, one if it
  // is, and an RR release is impossible once its budget is spent.
  const BipartiteGraph g = TestGraph();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRSS;
  options.epsilon = 2.0;
  options.num_threads = 2;
  options.seed = 5;
  QueryService service(g, options);
  const std::vector<QueryPair> workload = {
      {Layer::kLower, 0, 1},  // admit: RR(1)=1.0, Laplace(0)=1.0
      {Layer::kLower, 0, 2},  // admit: RR(2)=1.0, Laplace(0)=1.0 -> 0 spent
      {Layer::kLower, 0, 3},  // reject: vertex 0 has nothing left
      {Layer::kLower, 1, 0},  // reject: vertex 0 cannot afford its RR
      {Layer::kLower, 1, 2},  // admit: RR(2) cached, Laplace(1) -> 1 spent
      {Layer::kLower, 2, 1},  // admit: RR(1) cached, Laplace(2) -> 2 spent
      {Layer::kLower, 3, 4},  // admit: fresh pair
      {Layer::kLower, 1, 3},  // reject: vertex 1 has nothing left
  };
  const ServiceReport report = service.Submit(workload);
  const std::vector<bool> expected_rejected = {false, false, true, true,
                                               false, false, false, true};
  ASSERT_EQ(report.answers.size(), expected_rejected.size());
  for (size_t i = 0; i < expected_rejected.size(); ++i) {
    EXPECT_EQ(report.answers[i].rejected, expected_rejected[i])
        << "query " << i;
  }
  EXPECT_EQ(report.answered, 5u);
  EXPECT_EQ(report.rejected, 3u);
  // A rejected query charges nothing: vertex 3's budget reflects only its
  // admitted query (Laplace sourcing of q6... none; q6 charged RR of 4 and
  // Laplace of 3).
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 3}), 1.0);
}

TEST(QueryServiceTest, DuplicatePairsInOneSubmissionShareReleasesNotNoise) {
  const BipartiteGraph g = TestGraph();
  // OneR: a duplicated pair is pure post-processing on the same views —
  // identical answers, one release per distinct vertex, one charge each.
  const std::vector<QueryPair> workload = {{Layer::kLower, 0, 1},
                                           {Layer::kLower, 0, 1},
                                           {Layer::kLower, 0, 1}};
  const ServiceReport oner = RunOnce(g, ServiceAlgorithm::kOneR, 2, workload);
  EXPECT_EQ(oner.rejected, 0u);
  EXPECT_EQ(oner.store.releases, 2u);
  EXPECT_DOUBLE_EQ(oner.answers[0].estimate, oner.answers[1].estimate);
  EXPECT_DOUBLE_EQ(oner.answers[0].estimate, oner.answers[2].estimate);

  // MultiR-SS at ε = 2 (split 1 + 1): the duplicate costs u a fresh ε2
  // sourcing, so under the default lifetime budget of 2 the first two
  // instances fit (RR(1) = 1 once, Laplace(0) = 1 twice) and the third is
  // rejected — duplicates are real repeat queries, not free cache hits.
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRSS;
  options.epsilon = 2.0;
  options.seed = 99;
  QueryService service(g, options);
  const ServiceReport ss = service.Submit(workload);
  EXPECT_FALSE(ss.answers[0].rejected);
  EXPECT_FALSE(ss.answers[1].rejected);
  EXPECT_TRUE(ss.answers[2].rejected);
  // Fresh Laplace noise per admitted duplicate.
  EXPECT_NE(ss.answers[0].estimate, ss.answers[1].estimate);
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 0}), 2.0);
}

TEST(QueryServiceTest, SelfPairQueriesAreAnsweredOverOneView) {
  const BipartiteGraph g = TestGraph();
  const std::vector<QueryPair> workload = {{Layer::kLower, 2, 2}};

  // Naive: |view ∩ view| is exactly the view's noisy degree.
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kNaive;
  options.epsilon = 2.0;
  options.seed = 7;
  QueryService naive(g, options);
  const ServiceReport report = naive.Submit(workload);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.store.releases, 1u);  // one vertex, one release
  EXPECT_DOUBLE_EQ(
      report.answers[0].estimate,
      static_cast<double>(naive.store().View({Layer::kLower, 2}).Size()));
  EXPECT_DOUBLE_EQ(naive.ledger().Spent({Layer::kLower, 2}), 2.0);
}

TEST(QueryServiceTest, SelfPairMergesChargesInAdmission) {
  // MultiR-DS self-pair: u = w, so one vertex owes ε1 + 2·ε2 at once.
  // Under the default lifetime budget (= ε) that merged charge cannot
  // fit; with a 3ε/2 budget it fits exactly. The merge must be atomic:
  // the rejected self-pair charges nothing at all.
  const BipartiteGraph g = TestGraph();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRDS;
  options.epsilon = 2.0;  // ε1 = ε2 = 1, self-pair needs 3
  options.seed = 13;
  {
    QueryService service(g, options);
    const ServiceReport report = service.Submit({{Layer::kLower, 2, 2}});
    EXPECT_EQ(report.rejected, 1u);
    EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 2}), 0.0);
    EXPECT_EQ(report.store.releases, 0u);
  }
  options.lifetime_budget = 3.0;
  {
    QueryService service(g, options);
    const ServiceReport report = service.Submit({{Layer::kLower, 2, 2}});
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 2}), 3.0);
  }
}

TEST(QueryServiceTest, RejectedQueryIsAdmittedAfterLedgerTopUp) {
  // A rejected query is not lost forever: raising the lifetime budget
  // (the operator weakening the whole-lifetime guarantee) lets the same
  // query be resubmitted and admitted, with charges picking up where the
  // ledger left off.
  const BipartiteGraph g = TestGraph();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRSS;
  options.epsilon = 2.0;
  options.seed = 5;
  QueryService service(g, options);

  const ServiceReport first = service.Submit({{Layer::kLower, 0, 1},
                                              {Layer::kLower, 0, 2},
                                              {Layer::kLower, 0, 3}});
  ASSERT_TRUE(first.answers[2].rejected);  // vertex 0 exhausted at 2.0
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 0}), 2.0);

  service.RaiseLifetimeBudget(4.0);
  const ServiceReport second = service.Submit({{Layer::kLower, 0, 3}});
  EXPECT_FALSE(second.answers[0].rejected);
  EXPECT_EQ(second.rejected, 0u);
  // The resubmission charged RR(3) = 1 and Laplace(0) = 1 on top.
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 0}), 3.0);
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 3}), 1.0);
}

TEST(QueryServiceTest, RaisedLifetimeBudgetAdmitsMoreQueries) {
  const BipartiteGraph g = TestGraph();
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kMultiRSS;
  options.epsilon = 2.0;
  options.lifetime_budget = 8.0;
  options.seed = 5;
  QueryService service(g, options);
  std::vector<QueryPair> workload;
  for (VertexId w = 1; w <= 6; ++w) workload.push_back({Layer::kLower, 0, w});
  const ServiceReport report = service.Submit(workload);
  // Vertex 0 sources ε2 = 1 per query: 8.0 of lifetime budget fits all 6.
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_DOUBLE_EQ(service.ledger().Spent({Layer::kLower, 0}), 6.0);
}

// --- Naive/OneR answer from a blocked counts pass over each execute
// --- chunk; the per-pair PostProcess over the same store is the
// --- reference, bit for bit.

TEST(QueryServiceTest, BlockedViewPairAnswersEqualPerPairPostProcess) {
  // Views over 140,000 ids are 2,188 words: three count slices, the last
  // ragged.
  Rng graph_rng(26);
  const BipartiteGraph g = ErdosRenyiBipartite(200, 140'000, 60'000, graph_rng);
  constexpr Layer kLayer = Layer::kUpper;
  Rng rng(7);
  std::vector<std::vector<QueryPair>> submissions;
  // A hot set: many groups sharing a few dozen views, plus lower-layer
  // pairs (a 200-id domain) that share chunks with them.
  submissions.push_back(MakeHotSetWorkload(g, kLayer, 500, 32, rng));
  for (VertexId v = 0; v < 20; ++v) {
    submissions.back().push_back({Opposite(kLayer), v % 5, (v * 7) % 5});
  }
  // 1×N top-k: one group, self pair included.
  submissions.emplace_back();
  for (VertexId w = 0; w < 45; ++w) {
    submissions.back().push_back({kLayer, 40, w});
  }
  // All singletons (disjoint pairs, the hub_release shape).
  submissions.emplace_back();
  for (VertexId v = 100; v + 1 < 160; v += 2) {
    submissions.back().push_back({kLayer, v, v + 1});
  }

  for (ServiceAlgorithm algorithm :
       {ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR}) {
    const ProtocolPlan plan = MakeProtocolPlan(algorithm, 2.0, 0.5);
    const DebiasConstants debias =
        MakeDebiasConstantsForEpsilon(plan.epsilon1);
    for (SimdLevel level : AvailableSimdLevels()) {
      ForceSimdLevel(level);
      for (int threads : {1, 3}) {
        ServiceOptions options;
        options.algorithm = algorithm;
        options.epsilon = 2.0;
        options.num_threads = threads;
        options.seed = 5;
        QueryService service(g, options);
        for (size_t s = 0; s < submissions.size(); ++s) {
          const ServiceReport report = service.Submit(submissions[s]);
          ASSERT_EQ(report.rejected, 0u);
          for (size_t i = 0; i < report.answers.size(); ++i) {
            const QueryPair& q = report.answers[i].query;
            ReleasedInputs inputs;
            inputs.view_u = &service.store().View({q.layer, q.u});
            inputs.view_w = &service.store().View({q.layer, q.w});
            inputs.opposite_size = g.NumVertices(Opposite(q.layer));
            Rng unused(0);
            const double want = PostProcess(plan, debias, inputs, unused);
            EXPECT_EQ(std::bit_cast<uint64_t>(report.answers[i].estimate),
                      std::bit_cast<uint64_t>(want))
                << ToString(algorithm) << " " << SimdLevelName(level)
                << " threads " << threads << " submission " << s
                << " query " << i;
          }
        }
      }
    }
  }
  ForceSimdLevel(DetectedSimdLevel());
}

// --- Replay contract: every served view is the release that its vertex's
// --- substream regenerates, for fresh singleton releases and hot-set
// --- groups alike, at any thread count.

TEST(QueryServiceTest, ServedViewsEqualTheirReplayedRelease) {
  // Power-law upper layer over 20,000 lower ids: views of 313 words, the
  // last ragged.
  Rng graph_rng(27);
  const BipartiteGraph g =
      ChungLuPowerLaw(2'000, 20'000, 60'000, 2.1, graph_rng);
  constexpr Layer kLayer = Layer::kUpper;
  constexpr double kEpsilon = 1.0;
  std::vector<VertexId> by_degree(g.NumVertices(kLayer));
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::ranges::stable_sort(by_degree, [&](VertexId a, VertexId b) {
    return g.Degree(kLayer, a) > g.Degree(kLayer, b);
  });
  std::erase_if(by_degree,
                [&](VertexId v) { return g.Degree(kLayer, v) == 0; });
  ASSERT_GE(by_degree.size(), 96u);

  // The hub_release shape: each query pairs a distinct hub with a distinct
  // low-degree vertex, so every group is a singleton of fresh releases.
  std::vector<std::vector<QueryPair>> submissions(1);
  for (size_t i = 0; i < 48; ++i) {
    submissions[0].push_back(
        {kLayer, by_degree[i], by_degree[by_degree.size() - 1 - i]});
  }
  Rng workload_rng(28);
  submissions.push_back(MakeHotSetWorkload(g, kLayer, 400, 64, workload_rng));

  const double epsilon1 =
      MakeProtocolPlan(ServiceAlgorithm::kOneR, kEpsilon, 0.5).epsilon1;
  for (int threads : {1, 3}) {
    ServiceOptions options;
    options.algorithm = ServiceAlgorithm::kOneR;
    options.epsilon = kEpsilon;
    options.num_threads = threads;
    options.seed = 11;
    QueryService service(g, options);
    std::vector<LayeredVertex> released;
    std::unordered_set<uint64_t> seen;
    for (const std::vector<QueryPair>& submission : submissions) {
      const ServiceReport report = service.Submit(submission);
      ASSERT_EQ(report.rejected, 0u);
      for (const ServiceAnswer& answer : report.answers) {
        for (VertexId id : {answer.query.u, answer.query.w}) {
          const LayeredVertex v{answer.query.layer, id};
          if (seen.insert(PackLayeredVertex(v)).second) released.push_back(v);
        }
      }
    }
    EXPECT_EQ(service.store().stats().releases, released.size());

    const Rng base = Rng(options.seed).Fork(0);
    for (const LayeredVertex& v : released) {
      Rng rng = base.Fork(PackLayeredVertex(v));
      const NoisyNeighborSet replay =
          ApplyRandomizedResponse(g, v, epsilon1, rng);
      const NoisyNeighborSet& served = service.store().View(v);
      const std::string label = "threads " + std::to_string(threads) +
                                " vertex " + std::to_string(v.id);
      EXPECT_EQ(served.Size(), replay.Size()) << label;
      EXPECT_TRUE(std::ranges::equal(served.View().bitmap().Words(),
                                     replay.View().bitmap().Words()))
          << label;
    }
  }
}

// --- Estimate semantics over the shared store.

TEST(QueryServiceTest, IdenticalQueriesShareTheAnswerUnderPostProcessing) {
  const BipartiteGraph g = TestGraph();
  const std::vector<QueryPair> workload = {{Layer::kLower, 0, 1},
                                           {Layer::kLower, 0, 1}};
  const ServiceReport oner = RunOnce(g, ServiceAlgorithm::kOneR, 2, workload);
  // Pure post-processing: same views, same answer.
  EXPECT_DOUBLE_EQ(oner.answers[0].estimate, oner.answers[1].estimate);

  const ServiceReport ss =
      RunOnce(g, ServiceAlgorithm::kMultiRSS, 2, workload);
  // Each MultiR-SS query draws a fresh Laplace release from its own
  // substream: answers must differ even for identical queries.
  EXPECT_NE(ss.answers[0].estimate, ss.answers[1].estimate);
}

TEST(QueryServiceTest, OneRServiceIsUnbiased) {
  const BipartiteGraph g = PlantedCommonNeighbors(4, 3, 3, 40);
  const std::vector<QueryPair> workload = {{Layer::kLower, 0, 1}};
  RunningStats stats;
  for (uint64_t t = 0; t < 4000; ++t) {
    ServiceOptions options;
    options.epsilon = 1.5;
    options.seed = t;
    QueryService service(g, options);
    stats.Add(service.Submit(workload).answers[0].estimate);
  }
  EXPECT_NEAR(stats.Mean(), 4.0, 4.5 * stats.StdError());
}

TEST(QueryServiceTest, MultiRSSServiceIsUnbiased) {
  const BipartiteGraph g = PlantedCommonNeighbors(4, 3, 3, 40);
  const std::vector<QueryPair> workload = {{Layer::kLower, 0, 1}};
  RunningStats stats;
  for (uint64_t t = 0; t < 4000; ++t) {
    ServiceOptions options;
    options.algorithm = ServiceAlgorithm::kMultiRSS;
    options.epsilon = 2.0;
    options.seed = 70000 + t;
    QueryService service(g, options);
    stats.Add(service.Submit(workload).answers[0].estimate);
  }
  EXPECT_NEAR(stats.Mean(), 4.0, 4.5 * stats.StdError());
}

TEST(QueryServiceTest, MixedLayerSubmissionsShareOneStore) {
  const BipartiteGraph g = TestGraph();
  const std::vector<QueryPair> workload = {{Layer::kLower, 0, 1},
                                           {Layer::kUpper, 0, 1},
                                           {Layer::kLower, 0, 1}};
  const ServiceReport report =
      RunOnce(g, ServiceAlgorithm::kOneR, 2, workload);
  EXPECT_EQ(report.rejected, 0u);
  // Layers have separate budgets and separate views: 4 releases.
  EXPECT_EQ(report.store.releases, 4u);
  EXPECT_DOUBLE_EQ(report.answers[0].estimate, report.answers[2].estimate);
}

TEST(QueryServiceTest, AlgorithmNamesRoundTrip) {
  for (ServiceAlgorithm algorithm :
       {ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR,
        ServiceAlgorithm::kMultiRSS, ServiceAlgorithm::kMultiRDS}) {
    const auto parsed = ParseServiceAlgorithm(ToString(algorithm));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(ParseServiceAlgorithm("CentralDP").has_value());
}

TEST(QueryServiceDeathTest, OutOfRangeQueryDies) {
  const BipartiteGraph g = TestGraph();
  ServiceOptions options;
  QueryService service(g, options);
  EXPECT_DEATH(service.Submit({{Layer::kLower, 0, 10}}), "out of range");
}

}  // namespace
}  // namespace cne
