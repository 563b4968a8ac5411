// Bipartite graph projection — another motivating task from the paper's
// introduction. The projection onto one layer connects two vertices when
// their common-neighbor count reaches a threshold; the private variant
// replaces the exact counts by LDP estimates answered by a QueryService,
// so each vertex's exposure is its one shared release however many
// candidate pairs it joins.

#ifndef CNE_APPS_PROJECTION_H_
#define CNE_APPS_PROJECTION_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "service/query_service.h"

namespace cne {

/// A weighted projection edge: same-layer endpoints and their (estimated
/// or exact) common-neighbor count.
struct ProjectionEdge {
  VertexId a = 0;
  VertexId b = 0;
  double weight = 0.0;

  friend bool operator==(const ProjectionEdge&,
                         const ProjectionEdge&) = default;
};

/// Exact projection of `layer` restricted to the given candidate pairs:
/// keeps pairs with C2 >= threshold, weighted by C2.
std::vector<ProjectionEdge> ExactProjection(
    const BipartiteGraph& graph, const std::vector<QueryPair>& candidates,
    double threshold);

/// Exact projection over all same-layer pairs that share at least one
/// neighbor (wedge enumeration; O(Σ deg²) over the opposite layer).
/// Suitable for small-to-medium graphs.
std::vector<ProjectionEdge> ExactProjectionAllPairs(
    const BipartiteGraph& graph, Layer layer, double threshold);

/// Service-backed private projection: answers every candidate pair through
/// `service` — one shared release per distinct vertex instead of one full
/// protocol per pair, with the workload planner grouping pairs around
/// their shared endpoints — and keeps pairs whose estimate clears the
/// threshold. Pairs rejected by the budget ledger produce no edge.
std::vector<ProjectionEdge> ServiceProjection(
    QueryService& service, const std::vector<QueryPair>& candidates,
    double threshold);

/// Precision/recall of an estimated projection against the exact one
/// (edges matched on endpoints, weights ignored).
struct ProjectionQuality {
  double precision = 1.0;
  double recall = 1.0;
  double f1 = 1.0;
};

ProjectionQuality CompareProjections(
    const std::vector<ProjectionEdge>& exact,
    const std::vector<ProjectionEdge>& estimated);

}  // namespace cne

#endif  // CNE_APPS_PROJECTION_H_
