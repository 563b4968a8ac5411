#include "apps/projection.h"

#include <unordered_map>
#include <unordered_set>

#include "graph/set_ops.h"

namespace cne {

std::vector<ProjectionEdge> ExactProjection(
    const BipartiteGraph& graph, const std::vector<QueryPair>& candidates,
    double threshold) {
  std::vector<ProjectionEdge> edges;
  // Candidate lists are typically grouped by their first endpoint: once a
  // pair *repeats* the previous pair's u, pack that row into a bitmap (if
  // long enough to amortize the packing) and probe the rest of the run
  // against it. The first pair of a run — and therefore every pair of an
  // ungrouped list — takes the adaptive sorted kernels, so alternating
  // endpoints never re-pack per pair.
  DenseBitset u_bits;
  bool have_bits = false;
  bool have_prev = false;
  LayeredVertex prev{Layer::kUpper, 0};
  for (const QueryPair& pair : candidates) {
    const LayeredVertex u{pair.layer, pair.u};
    const auto nb_u = graph.Neighbors(u);
    if (!(have_prev && prev == u)) {
      have_bits = false;
    } else if (!have_bits) {
      const VertexId domain = graph.NumVertices(Opposite(pair.layer));
      if (nb_u.size() >= static_cast<size_t>(domain) / 64) {
        u_bits = DenseBitset(domain);
        for (VertexId v : nb_u) u_bits.Set(v);
        have_bits = true;
      }
    }
    have_prev = true;
    prev = u;
    const SetView u_view = have_bits ? SetView::Bitmap(u_bits, nb_u.size())
                                     : SetView::Sorted(nb_u);
    const double c2 = static_cast<double>(IntersectionSize(
        SetView::Sorted(graph.Neighbors(pair.layer, pair.w)), u_view));
    if (c2 >= threshold) {
      edges.push_back({pair.u, pair.w, c2});
    }
  }
  return edges;
}

std::vector<ProjectionEdge> ExactProjectionAllPairs(
    const BipartiteGraph& graph, Layer layer, double threshold) {
  // Wedge enumeration from the opposite layer: every center vertex
  // contributes one co-occurrence per pair of its neighbors.
  const Layer center = Opposite(layer);
  const VertexId n = graph.NumVertices(center);
  std::unordered_map<uint64_t, uint64_t> counts;
  for (VertexId c = 0; c < n; ++c) {
    const auto nb = graph.Neighbors(center, c);
    for (size_t i = 0; i < nb.size(); ++i) {
      for (size_t j = i + 1; j < nb.size(); ++j) {
        const uint64_t key = (static_cast<uint64_t>(nb[i]) << 32) | nb[j];
        ++counts[key];
      }
    }
  }
  std::vector<ProjectionEdge> edges;
  for (const auto& [key, count] : counts) {
    if (static_cast<double>(count) >= threshold) {
      edges.push_back({static_cast<VertexId>(key >> 32),
                       static_cast<VertexId>(key & 0xffffffffu),
                       static_cast<double>(count)});
    }
  }
  return edges;
}

std::vector<ProjectionEdge> ServiceProjection(
    QueryService& service, const std::vector<QueryPair>& candidates,
    double threshold) {
  std::vector<ProjectionEdge> edges;
  if (candidates.empty()) return edges;
  const ServiceReport report = service.Submit(candidates);
  for (const ServiceAnswer& answer : report.answers) {
    if (answer.rejected) continue;
    if (answer.estimate >= threshold) {
      edges.push_back({answer.query.u, answer.query.w, answer.estimate});
    }
  }
  return edges;
}

ProjectionQuality CompareProjections(
    const std::vector<ProjectionEdge>& exact,
    const std::vector<ProjectionEdge>& estimated) {
  auto key = [](const ProjectionEdge& e) {
    const VertexId lo = e.a < e.b ? e.a : e.b;
    const VertexId hi = e.a < e.b ? e.b : e.a;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  };
  std::unordered_set<uint64_t> truth;
  for (const ProjectionEdge& e : exact) truth.insert(key(e));
  size_t hits = 0;
  for (const ProjectionEdge& e : estimated) hits += truth.count(key(e));

  ProjectionQuality q;
  q.precision = estimated.empty()
                    ? 1.0
                    : static_cast<double>(hits) / estimated.size();
  q.recall = truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
  q.f1 = (q.precision + q.recall) > 0
             ? 2 * q.precision * q.recall / (q.precision + q.recall)
             : 0.0;
  return q;
}

}  // namespace cne
