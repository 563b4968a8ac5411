// Private "people who bought what you bought": rank candidate users by
// their estimated common-neighbor count with a source user, answered by a
// OneR query service (every user releases one noisy item list, whatever
// the number of candidates), and report how much of the exact top-k
// survives and the ε the service charged each user.
//
//   ./private_topk [--users=500] [--items=2000] [--edges=15000] [--k=5]
//                  [--candidates=30] [--epsilon=4] [--seed=5]

#include <cstdio>
#include <vector>

#include "apps/topk.h"
#include "graph/generators.h"
#include "util/cli.h"

using namespace cne;

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  const VertexId users = static_cast<VertexId>(cl.GetInt("users", 500));
  const VertexId items = static_cast<VertexId>(cl.GetInt("items", 2000));
  const uint64_t edges = static_cast<uint64_t>(cl.GetInt("edges", 15000));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 5));
  const size_t num_candidates =
      static_cast<size_t>(cl.GetInt("candidates", 30));
  const double epsilon = cl.GetDouble("epsilon", 4.0);
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 5));
  Rng rng(seed);

  const BipartiteGraph graph =
      ChungLuPowerLaw(users, items, edges, 2.1, rng);
  std::printf("user-item graph: %s\n", graph.ToString().c_str());

  // Source: the highest-weight user (a heavy shopper) against a random
  // candidate set.
  const LayeredVertex source{Layer::kUpper, 0};
  std::vector<VertexId> candidates;
  for (uint64_t v : rng.SampleWithoutReplacement(users - 1, num_candidates)) {
    candidates.push_back(static_cast<VertexId>(v) + 1);  // skip the source
  }
  std::printf("source user %u (degree %u), %zu candidates, top-%zu, "
              "eps=%.1f per release\n\n",
              source.id, graph.Degree(source), candidates.size(), k, epsilon);

  const TopKResult exact =
      ExactTopKCommonNeighbors(graph, source, candidates, k);
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = epsilon;
  options.seed = seed;
  QueryService service(graph, options);
  const TopKResult priv =
      ServiceTopKCommonNeighbors(service, source, candidates, k);

  std::printf("%4s | %-18s | %-18s\n", "rank", "exact (user: C2)",
              "private (user: est)");
  for (size_t i = 0; i < k; ++i) {
    char exact_cell[32] = "-";
    char priv_cell[32] = "-";
    if (i < exact.ranked.size()) {
      std::snprintf(exact_cell, sizeof(exact_cell), "%u: %.0f",
                    exact.ranked[i].vertex, exact.ranked[i].score);
    }
    if (i < priv.ranked.size()) {
      std::snprintf(priv_cell, sizeof(priv_cell), "%u: %.1f",
                    priv.ranked[i].vertex, priv.ranked[i].score);
    }
    std::printf("%4zu | %-18s | %-18s\n", i + 1, exact_cell, priv_cell);
  }
  std::printf("\nrecall@%zu = %.2f\n", k, TopKRecall(exact, priv));
  const BudgetLedger& ledger = service.ledger();
  std::printf("eps charged: source %.2f, at most %.2f per user over %llu "
              "users\n",
              ledger.Spent(source),
              ledger.lifetime_budget() - ledger.MinRemaining(),
              static_cast<unsigned long long>(ledger.NumChargedVertices()));
  std::printf(
      "Each user releases once, so more candidates cost no extra budget.\n");
  return 0;
}
