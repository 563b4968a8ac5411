#include "service/workload_planner.h"

#include <algorithm>

namespace cne {

WorkloadPlanner::WorkloadPlanner(const BipartiteGraph& graph) {
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    LayerScratch& scratch = Scratch(layer);
    const size_t n = graph.NumVertices(layer);
    scratch.frequency.resize(n);
    scratch.group.resize(n);
    scratch.freq_stamp.resize(n, 0);
    scratch.group_stamp.resize(n, 0);
  }
}

VertexId WorkloadPlanner::Source(const QueryPair& query) {
  const LayerScratch& scratch = Scratch(query.layer);
  return scratch.frequency[query.u] >= scratch.frequency[query.w] ? query.u
                                                                  : query.w;
}

const WorkloadPlan& WorkloadPlanner::Plan(std::span<const QueryPair> queries,
                                          std::span<const uint32_t> slots) {
  plan_.groups.clear();
  plan_.order.resize(slots.size());
  if (slots.empty()) return plan_;
  ++epoch_;

  // Pass 1 — endpoint frequencies over the submission: the busier
  // endpoint of each pair becomes its group source, so a 1×N top-k
  // workload collapses into a single group around the shared source. The
  // epoch stamp makes stale scratch from earlier submissions read as zero
  // without clearing.
  const auto bump = [&](Layer layer, VertexId v) {
    LayerScratch& scratch = Scratch(layer);
    if (scratch.freq_stamp[v] != epoch_) {
      scratch.freq_stamp[v] = epoch_;
      scratch.frequency[v] = 0;
    }
    ++scratch.frequency[v];
  };
  for (const uint32_t slot : slots) {
    const QueryPair& query = queries[slot];
    bump(query.layer, query.u);
    if (query.u != query.w) bump(query.layer, query.w);
  }

  // Pass 2 — count group sizes in first-touch order (no hashing, no
  // thread interleaving).
  for (const uint32_t slot : slots) {
    const QueryPair& query = queries[slot];
    const VertexId source = Source(query);
    LayerScratch& scratch = Scratch(query.layer);
    if (scratch.group_stamp[source] != epoch_) {
      scratch.group_stamp[source] = epoch_;
      scratch.group[source] = static_cast<uint32_t>(plan_.groups.size());
      plan_.groups.push_back({{query.layer, source}, 0, 0});
    }
    ++plan_.groups[scratch.group[source]].end;  // size until the prefix pass
  }

  // Largest groups first; source id breaks ties for a deterministic plan.
  std::sort(plan_.groups.begin(), plan_.groups.end(),
            [](const QueryGroup& a, const QueryGroup& b) {
              if (a.Size() != b.Size()) return a.Size() > b.Size();
              return PackLayeredVertex(a.source) <
                     PackLayeredVertex(b.source);
            });

  // Prefix pass — carve `order` into group ranges in execution order and
  // re-point each source at its sorted group; `end` then serves as the
  // group's placement cursor until pass 3 fills it back up.
  uint32_t offset = 0;
  for (size_t g = 0; g < plan_.groups.size(); ++g) {
    QueryGroup& group = plan_.groups[g];
    Scratch(group.source.layer).group[group.source.id] =
        static_cast<uint32_t>(g);
    group.begin = offset;
    offset += group.end;
    group.end = group.begin;
  }

  // Pass 3 — place the slots; within a group, submission order.
  for (const uint32_t slot : slots) {
    const QueryPair& query = queries[slot];
    QueryGroup& group =
        plan_.groups[Scratch(query.layer).group[Source(query)]];
    plan_.order[group.end++] = slot;
  }
  return plan_;
}

}  // namespace cne
