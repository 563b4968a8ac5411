// Private top-k common-neighbor search: given a source vertex, rank a set
// of same-layer candidates by their estimated common-neighbor count with
// the source, answered by a QueryService (each vertex releases its noisy
// neighbor list once; the ranking is post-processing).

#ifndef CNE_APPS_TOPK_H_
#define CNE_APPS_TOPK_H_

#include <vector>

#include "service/query_service.h"

namespace cne {

/// One ranked candidate.
struct ScoredVertex {
  VertexId vertex = 0;
  double score = 0.0;  ///< estimated C2 with the source
};

/// Result of a top-k query.
struct TopKResult {
  std::vector<ScoredVertex> ranked;  ///< best k candidates, descending
  double epsilon_per_candidate = 0.0;
};

/// Service-backed top-k: submits the 1×N workload (source vs every
/// candidate) to `service` and ranks the answers. Each distinct vertex
/// releases randomized response at most once per service lifetime — the
/// source's view is shared by all N protocols, and the workload planner
/// collapses the submission into one source group probed in a single
/// batch pass. Candidates equal to the source are skipped; candidates
/// rejected by the budget ledger are excluded from the ranking.
/// `result.epsilon_per_candidate` reports the service's per-release ε
/// (the whole workload costs each vertex one release, not N).
TopKResult ServiceTopKCommonNeighbors(QueryService& service,
                                      LayeredVertex source,
                                      const std::vector<VertexId>& candidates,
                                      size_t k);

/// Exact (non-private) top-k, for precision/recall reporting in examples.
TopKResult ExactTopKCommonNeighbors(const BipartiteGraph& graph,
                                    LayeredVertex source,
                                    const std::vector<VertexId>& candidates,
                                    size_t k);

/// Fraction of the exact top-k recovered by the private top-k.
double TopKRecall(const TopKResult& exact, const TopKResult& estimated);

}  // namespace cne

#endif  // CNE_APPS_TOPK_H_
