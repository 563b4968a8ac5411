// Shared-endpoint execution order for service submissions.
//
// The paper's applications — private similarity search, top-k, graph
// projection — are one-vs-many workloads: one source vertex queried
// against hundreds of candidates. The planner orders a submission's
// admitted queries so that every query sharing an endpoint runs back to
// back: each query joins the group of its busier endpoint, so the
// group's source is one endpoint of every query in it, and the service
// answers the groups one after another (one worker per range of groups).
// The source's view then stays in cache across its whole group instead
// of being re-fetched for every query that touches it. For view × view
// pairs (Naive/OneR) a group also shares the source's slice loads: the
// service's blocked counts pass (BitmapAndCounts) loads each word slice
// of the source once and ANDs it against four of the group's partners.
//
// The planner only orders. Answers cannot depend on the order:
// intersection counts are exact integers and each query's Laplace noise
// comes from its own admission-assigned substream.

#ifndef CNE_SERVICE_WORKLOAD_PLANNER_H_
#define CNE_SERVICE_WORKLOAD_PLANNER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/estimator.h"

namespace cne {

/// Admitted queries sharing one endpoint: the half-open range
/// [begin, end) of WorkloadPlan::order.
struct QueryGroup {
  LayeredVertex source{Layer::kLower, 0};
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t Size() const { return end - begin; }
};

/// A planned submission: groups ordered largest first — the shared rows
/// that pay for cache reuse run while the pool is fullest, singletons
/// last — and `order`, the submission slots laid out group by group in
/// that order (within a group, submission order). Consecutive groups
/// therefore cover one contiguous range of `order`.
struct WorkloadPlan {
  std::vector<QueryGroup> groups;
  std::vector<uint32_t> order;

  double AvgGroupSize() const {
    return groups.empty() ? 0.0
                          : static_cast<double>(order.size()) /
                                static_cast<double>(groups.size());
  }
};

/// Builds workload plans: each query joins the group of whichever of its
/// endpoints occurs more often in the submission (ties and self-pairs go
/// to u). Deterministic — a plan depends only on the query list, never on
/// hashing or thread count.
///
/// The planner keeps dense per-layer scratch (an epoch-stamped frequency
/// and group slot per vertex, sized to the graph once), so planning costs
/// a few linear passes and no hashing — cheap enough to run on every
/// submission of a long-lived service.
class WorkloadPlanner {
 public:
  explicit WorkloadPlanner(const BipartiteGraph& graph);

  /// Plans the queries at `slots` of `queries` (the admitted ones; the
  /// plan's `order` holds these slot values). The returned reference stays
  /// valid until the next Plan call — the plan's buffers are reused across
  /// submissions.
  const WorkloadPlan& Plan(std::span<const QueryPair> queries,
                           std::span<const uint32_t> slots);

 private:
  struct LayerScratch {
    std::vector<uint32_t> frequency;    ///< endpoint occurrences
    std::vector<uint32_t> group;        ///< group index of a source vertex
    std::vector<uint64_t> freq_stamp;   ///< epoch when `frequency` is valid
    std::vector<uint64_t> group_stamp;  ///< epoch when `group` is valid
  };

  LayerScratch& Scratch(Layer layer) {
    return scratch_[static_cast<size_t>(layer)];
  }

  /// The group source of `query`: its busier endpoint, u on ties.
  VertexId Source(const QueryPair& query);

  LayerScratch scratch_[2];  ///< indexed by Layer
  WorkloadPlan plan_;
  uint64_t epoch_ = 0;
};

}  // namespace cne

#endif  // CNE_SERVICE_WORKLOAD_PLANNER_H_
