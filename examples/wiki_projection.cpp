// User-page analysis from the paper's introduction: project a user-page
// bipartite graph onto the user layer (connect users co-editing enough
// pages) under edge LDP, answered by a OneR query service, and report
// projection quality, the ε the service charged each user, and the
// graph's butterfly statistics.
//
//   ./wiki_projection [--users=400 --pages=1500 --edits=12000]
//                     [--threshold=3] [--epsilon=8] [--seed=9]

#include <cstdio>
#include <vector>

#include "apps/butterfly.h"
#include "apps/projection.h"
#include "graph/generators.h"
#include "util/cli.h"

using namespace cne;

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  const VertexId users = static_cast<VertexId>(cl.GetInt("users", 400));
  const VertexId pages = static_cast<VertexId>(cl.GetInt("pages", 1500));
  const uint64_t edits = static_cast<uint64_t>(cl.GetInt("edits", 12000));
  const double threshold = cl.GetDouble("threshold", 3.0);
  const double epsilon = cl.GetDouble("epsilon", 8.0);
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 9));
  Rng rng(seed);

  const BipartiteGraph graph =
      ChungLuPowerLaw(users, pages, edits, 2.1, rng);
  std::printf("user-page graph: %s\n", graph.ToString().c_str());
  std::printf("butterflies = %llu, caterpillars = %llu, bipartite "
              "clustering = %.4f\n\n",
              static_cast<unsigned long long>(ExactButterflies(graph)),
              static_cast<unsigned long long>(ExactCaterpillars(graph)),
              BipartiteClusteringCoefficient(graph));

  // Candidate pairs: every pair of the most active users.
  std::vector<VertexId> active;
  for (VertexId u = 0; u < users && active.size() < 25; ++u) {
    if (graph.Degree(Layer::kUpper, u) >= 8) active.push_back(u);
  }
  std::vector<QueryPair> candidates;
  for (size_t i = 0; i < active.size(); ++i) {
    for (size_t j = i + 1; j < active.size(); ++j) {
      candidates.push_back({Layer::kUpper, active[i], active[j]});
    }
  }
  std::printf("projecting %zu active users (%zu candidate pairs), "
              "threshold C2 >= %.0f, eps=%.1f per release\n",
              active.size(), candidates.size(), threshold, epsilon);

  const auto exact = ExactProjection(graph, candidates, threshold);
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = epsilon;
  options.seed = seed;
  QueryService service(graph, options);
  const auto priv = ServiceProjection(service, candidates, threshold);
  const ProjectionQuality q = CompareProjections(exact, priv);

  std::printf("\nexact projection: %zu edges; private projection: %zu "
              "edges\n", exact.size(), priv.size());
  std::printf("precision=%.3f recall=%.3f f1=%.3f\n", q.precision, q.recall,
              q.f1);
  const BudgetLedger& ledger = service.ledger();
  std::printf("eps charged: at most %.2f per user over %llu users\n",
              ledger.lifetime_budget() - ledger.MinRemaining(),
              static_cast<unsigned long long>(ledger.NumChargedVertices()));
  std::printf(
      "\nThe projection is computed without any user revealing which pages\n"
      "they actually edited; thresholding the noisy counts is free\n"
      "post-processing.\n");
  return 0;
}
