#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cassert>

#include "graph/set_ops.h"
#include "util/logging.h"

namespace cne {

const char* LayerName(Layer layer) {
  return layer == Layer::kUpper ? "upper" : "lower";
}

BipartiteGraph::BipartiteGraph() = default;

void CountsToOffsets(std::span<uint64_t> counts) {
  uint64_t running = 0;
  for (uint64_t& slot : counts) {
    running += slot;
    slot = running;
  }
}

BipartiteGraph::BipartiteGraph(VertexId num_upper, VertexId num_lower,
                               const std::vector<Edge>& sorted_edges)
    : num_upper_(num_upper), num_lower_(num_lower) {
  upper_offsets_.assign(static_cast<size_t>(num_upper) + 1, 0);
  lower_offsets_.assign(static_cast<size_t>(num_lower) + 1, 0);
  upper_adj_.resize(sorted_edges.size());
  lower_adj_.resize(sorted_edges.size());

  for (const Edge& e : sorted_edges) {
    CNE_CHECK(e.upper < num_upper && e.lower < num_lower)
        << "edge (" << e.upper << ", " << e.lower << ") out of range";
    ++upper_offsets_[e.upper + 1];
    ++lower_offsets_[e.lower + 1];
  }
  CountsToOffsets(upper_offsets_);
  CountsToOffsets(lower_offsets_);

  // Edges are sorted by (upper, lower), so filling upper_adj_ in order keeps
  // each upper adjacency list sorted. Lower lists are filled with a cursor
  // and are also sorted because within a lower vertex the upper ids arrive
  // in increasing order.
  std::vector<uint64_t> lower_cursor(lower_offsets_.begin(),
                                     lower_offsets_.end() - 1);
  uint64_t pos = 0;
  for (const Edge& e : sorted_edges) {
    upper_adj_[pos++] = e.lower;
    lower_adj_[lower_cursor[e.lower]++] = e.upper;
  }
#ifndef NDEBUG
  for (VertexId u = 0; u < num_upper_; ++u) {
    auto nb = Neighbors(Layer::kUpper, u);
    assert(std::is_sorted(nb.begin(), nb.end()));
    assert(std::adjacent_find(nb.begin(), nb.end()) == nb.end());
  }
#endif
}

BipartiteGraph BipartiteGraph::FromEdgeStream(VertexId num_upper,
                                              VertexId num_lower,
                                              const EdgeScan& scan) {
  BipartiteGraph graph;
  graph.num_upper_ = num_upper;
  graph.num_lower_ = num_lower;

  // Pass 1: per-upper-vertex emission counts (duplicates included).
  graph.upper_offsets_.assign(static_cast<size_t>(num_upper) + 1, 0);
  uint64_t emitted = 0;
  scan([&](VertexId u, VertexId l) {
    CNE_CHECK(u < num_upper && l < num_lower)
        << "streamed edge (" << u << ", " << l << ") out of range";
    ++graph.upper_offsets_[u + 1];
    ++emitted;
  });
  CountsToOffsets(graph.upper_offsets_);

  // Pass 2: fill the upper adjacency in emission order. The scan must
  // replay the same sequence; the cursor check below catches producers
  // that do not.
  graph.upper_adj_.resize(emitted);
  std::vector<uint64_t> cursor(graph.upper_offsets_.begin(),
                               graph.upper_offsets_.end() - 1);
  uint64_t refilled = 0;
  scan([&](VertexId u, VertexId l) {
    CNE_CHECK(u < num_upper && cursor[u] < graph.upper_offsets_[u + 1])
        << "edge stream did not replay identically (vertex " << u << ")";
    graph.upper_adj_[cursor[u]++] = l;
    ++refilled;
  });
  CNE_CHECK(refilled == emitted)
      << "edge stream emitted " << refilled << " edges on the fill pass, "
      << emitted << " on the count pass";

  // Sort + dedup each upper list, compacting in place. The write cursor
  // never passes the read position (dedup only shrinks runs), so no
  // second adjacency buffer is needed. Old offsets are consumed from
  // `read_begin`/`upper_offsets_[u + 1]` one step ahead of the rewrite.
  uint64_t write = 0;
  uint64_t read_begin = 0;
  for (VertexId u = 0; u < num_upper; ++u) {
    const uint64_t read_end = graph.upper_offsets_[u + 1];
    const auto first =
        graph.upper_adj_.begin() + static_cast<ptrdiff_t>(read_begin);
    const auto last =
        graph.upper_adj_.begin() + static_cast<ptrdiff_t>(read_end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    const uint64_t kept = static_cast<uint64_t>(unique_end - first);
    std::move(first, unique_end,
              graph.upper_adj_.begin() + static_cast<ptrdiff_t>(write));
    graph.upper_offsets_[u] = write;
    write += kept;
    read_begin = read_end;
  }
  graph.upper_offsets_[num_upper] = write;
  graph.upper_adj_.resize(write);
  graph.upper_adj_.shrink_to_fit();

  // Transpose into the lower direction. Upper ids arrive in increasing
  // order per lower vertex, so the lower lists come out sorted-unique.
  graph.lower_offsets_.assign(static_cast<size_t>(num_lower) + 1, 0);
  for (VertexId l : graph.upper_adj_) ++graph.lower_offsets_[l + 1];
  CountsToOffsets(graph.lower_offsets_);
  graph.lower_adj_.resize(write);
  std::vector<uint64_t> lower_cursor(graph.lower_offsets_.begin(),
                                     graph.lower_offsets_.end() - 1);
  for (VertexId u = 0; u < num_upper; ++u) {
    for (uint64_t i = graph.upper_offsets_[u]; i < graph.upper_offsets_[u + 1];
         ++i) {
      graph.lower_adj_[lower_cursor[graph.upper_adj_[i]]++] = u;
    }
  }
  return graph;
}

std::span<const VertexId> BipartiteGraph::Neighbors(Layer layer,
                                                    VertexId v) const {
  if (layer == Layer::kUpper) {
    CNE_CHECK(v < num_upper_) << "upper vertex " << v << " out of range";
    return {upper_adj_.data() + upper_offsets_[v],
            upper_adj_.data() + upper_offsets_[v + 1]};
  }
  CNE_CHECK(v < num_lower_) << "lower vertex " << v << " out of range";
  return {lower_adj_.data() + lower_offsets_[v],
          lower_adj_.data() + lower_offsets_[v + 1]};
}

VertexId BipartiteGraph::Degree(Layer layer, VertexId v) const {
  return static_cast<VertexId>(Neighbors(layer, v).size());
}

bool BipartiteGraph::HasEdge(VertexId upper, VertexId lower) const {
  auto nb = Neighbors(Layer::kUpper, upper);
  return std::binary_search(nb.begin(), nb.end(), lower);
}

uint64_t SortedIntersectionSize(std::span<const VertexId> a,
                                std::span<const VertexId> b) {
  // The adaptive sorted × sorted path: scalar merge for comparable sizes,
  // galloping search past kGallopRatio (set_ops.h).
  return IntersectionSize(SetView::Sorted(a), SetView::Sorted(b));
}

uint64_t SortedUnionSize(std::span<const VertexId> a,
                         std::span<const VertexId> b) {
  // Inclusion–exclusion, exact on unique sets.
  return a.size() + b.size() - SortedIntersectionSize(a, b);
}

uint64_t BipartiteGraph::CountCommonNeighbors(Layer layer, VertexId a,
                                              VertexId b) const {
  return SortedIntersectionSize(Neighbors(layer, a), Neighbors(layer, b));
}

uint64_t BipartiteGraph::CountUnionNeighbors(Layer layer, VertexId a,
                                             VertexId b) const {
  return SortedUnionSize(Neighbors(layer, a), Neighbors(layer, b));
}

VertexId BipartiteGraph::MaxDegree(Layer layer) const {
  VertexId best = 0;
  const VertexId n = NumVertices(layer);
  for (VertexId v = 0; v < n; ++v) best = std::max(best, Degree(layer, v));
  return best;
}

double BipartiteGraph::AverageDegree(Layer layer) const {
  const VertexId n = NumVertices(layer);
  if (n == 0) return 0.0;
  return static_cast<double>(NumEdges()) / static_cast<double>(n);
}

std::vector<Edge> BipartiteGraph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (VertexId u = 0; u < num_upper_; ++u) {
    for (VertexId l : Neighbors(Layer::kUpper, u)) {
      edges.push_back({u, l});
    }
  }
  return edges;
}

uint64_t BipartiteGraph::MemoryBytes() const {
  return upper_offsets_.size() * sizeof(uint64_t) +
         lower_offsets_.size() * sizeof(uint64_t) +
         upper_adj_.size() * sizeof(VertexId) +
         lower_adj_.size() * sizeof(VertexId);
}

std::string BipartiteGraph::ToString() const {
  return "BipartiteGraph(|U|=" + std::to_string(num_upper_) +
         ", |L|=" + std::to_string(num_lower_) +
         ", m=" + std::to_string(NumEdges()) + ")";
}

}  // namespace cne
