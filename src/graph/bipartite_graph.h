// Immutable CSR bipartite graph. This is the substrate every estimator in
// the paper runs on: vertices live in two layers (upper U and lower L),
// edges connect layers, and adjacency lists are sorted so membership tests
// and common-neighbor counting are logarithmic / linear-merge.

#ifndef CNE_GRAPH_BIPARTITE_GRAPH_H_
#define CNE_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace cne {

/// Vertex identifier, local to its layer: upper vertices are
/// [0, NumUpper()) and lower vertices are [0, NumLower()).
///
/// 32 bits covers every layer of the paper's Table 2 (the largest is
/// Delicious-ui's 33.8M-vertex lower layer); *edge* quantities — CSR
/// offsets, adjacency positions, edge counts, uploaded-edge accounting —
/// must be 64-bit, because Table 2 reaches 3.3×10⁸ edges and the scale
/// harness targets 10⁸. tests/store/wide_index_test.cc pins the index
/// arithmetic past the 2³² boundary.
using VertexId = uint32_t;

/// Largest usable vertex id. The all-ones value is reserved so that
/// `id + 1` (layer-size discovery, offset slots) can never wrap.
inline constexpr VertexId kMaxVertexId = 0xfffffffeU;

/// The two vertex layers of a bipartite graph.
enum class Layer : uint8_t { kUpper = 0, kLower = 1 };

/// The layer opposite to `layer`.
constexpr Layer Opposite(Layer layer) {
  return layer == Layer::kUpper ? Layer::kLower : Layer::kUpper;
}

/// Human-readable layer name ("upper"/"lower").
const char* LayerName(Layer layer);

/// A vertex qualified by its layer, e.g. a query vertex.
struct LayeredVertex {
  Layer layer;
  VertexId id;

  friend bool operator==(const LayeredVertex&, const LayeredVertex&) = default;
};

/// Packs a layered vertex into one 64-bit hash-map key: layer in the
/// high half, id in the low half. The single definition of this layout —
/// anything keying per-vertex state (budget ledgers, view stores) must
/// use it so the maps agree if VertexId ever widens.
constexpr uint64_t PackLayeredVertex(LayeredVertex v) {
  return (static_cast<uint64_t>(v.layer) << 32) | v.id;
}

/// Inverse of PackLayeredVertex.
constexpr LayeredVertex UnpackLayeredVertex(uint64_t key) {
  return {static_cast<Layer>(key >> 32),
          static_cast<VertexId>(key & 0xffffffffULL)};
}

/// An undirected bipartite edge (upper endpoint, lower endpoint).
struct Edge {
  VertexId upper;
  VertexId lower;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge& a, const Edge& b) {
    if (auto c = a.upper <=> b.upper; c != 0) return c;
    return a.lower <=> b.lower;
  }
};

/// Immutable bipartite graph in compressed sparse row form, stored in both
/// directions (upper->lower and lower->upper) with sorted adjacency.
///
/// Construction goes through `GraphBuilder` (graph_builder.h) or the
/// generators (generators.h); this class only exposes queries.
class BipartiteGraph {
 public:
  /// Builds from per-layer counts and a *sorted, deduplicated* edge list.
  /// Most callers should use GraphBuilder instead, which sorts and dedups.
  BipartiteGraph(VertexId num_upper, VertexId num_lower,
                 const std::vector<Edge>& sorted_edges);

  /// A replayable edge producer: invoked with an emit callback and
  /// expected to call emit(upper, lower) once per edge. FromEdgeStream
  /// invokes the scan twice (count pass, fill pass); both invocations
  /// must emit the identical sequence — e.g. re-reading a file or
  /// re-running a seeded generator.
  using EdgeEmit = std::function<void(VertexId, VertexId)>;
  using EdgeScan = std::function<void(const EdgeEmit&)>;

  /// Streamed two-pass CSR build for graphs whose edge list must never be
  /// held twice in memory: pass 1 counts per-vertex degrees, pass 2 fills
  /// the upper adjacency in place, which is then sorted, deduplicated and
  /// compacted per vertex, and finally transposed into the lower
  /// direction. Duplicate and unsorted emissions are fine (deduplication
  /// matches GraphBuilder exactly, so the result is byte-identical to the
  /// in-memory build of the same edge multiset). Peak memory is the
  /// emitted-edge adjacency plus both offset arrays — strictly under
  /// twice the final two-direction CSR for any duplicate rate below 2×.
  static BipartiteGraph FromEdgeStream(VertexId num_upper, VertexId num_lower,
                                       const EdgeScan& scan);

  /// An empty graph with no vertices and no edges.
  BipartiteGraph();

  /// Number of vertices in the upper layer (n1 when queries are lower).
  VertexId NumUpper() const { return num_upper_; }

  /// Number of vertices in the lower layer.
  VertexId NumLower() const { return num_lower_; }

  /// Number of vertices in `layer`.
  VertexId NumVertices(Layer layer) const {
    return layer == Layer::kUpper ? num_upper_ : num_lower_;
  }

  /// Total number of vertices |U| + |L|.
  uint64_t TotalVertices() const {
    return static_cast<uint64_t>(num_upper_) + num_lower_;
  }

  /// Number of edges m.
  uint64_t NumEdges() const { return upper_adj_.size(); }

  /// Sorted neighbors (opposite-layer ids) of vertex `v` in `layer`.
  std::span<const VertexId> Neighbors(Layer layer, VertexId v) const;

  /// Convenience overload for a layered vertex.
  std::span<const VertexId> Neighbors(LayeredVertex v) const {
    return Neighbors(v.layer, v.id);
  }

  /// Degree of vertex `v` in `layer`.
  VertexId Degree(Layer layer, VertexId v) const;

  VertexId Degree(LayeredVertex v) const { return Degree(v.layer, v.id); }

  /// True if the edge (upper, lower) exists. O(log deg).
  bool HasEdge(VertexId upper, VertexId lower) const;

  /// Exact number of common neighbors C2(a, b) for two vertices on the
  /// same layer. Linear merge over the two sorted adjacency lists.
  uint64_t CountCommonNeighbors(Layer layer, VertexId a, VertexId b) const;

  /// Exact size of N(a) ∪ N(b) for two same-layer vertices.
  uint64_t CountUnionNeighbors(Layer layer, VertexId a, VertexId b) const;

  /// Maximum degree within `layer`.
  VertexId MaxDegree(Layer layer) const;

  /// Average degree within `layer` (0 for an empty layer).
  double AverageDegree(Layer layer) const;

  /// Materializes the (sorted) edge list.
  std::vector<Edge> EdgeList() const;

  /// Approximate resident memory in bytes (CSR arrays only).
  uint64_t MemoryBytes() const;

  /// One-line description, e.g. "BipartiteGraph(|U|=3, |L|=4, m=6)".
  std::string ToString() const;

 private:
  VertexId num_upper_ = 0;
  VertexId num_lower_ = 0;
  // CSR from the upper layer: neighbors of upper vertex u are
  // upper_adj_[upper_offsets_[u] .. upper_offsets_[u+1]).
  std::vector<uint64_t> upper_offsets_;
  std::vector<VertexId> upper_adj_;
  // CSR from the lower layer.
  std::vector<uint64_t> lower_offsets_;
  std::vector<VertexId> lower_adj_;
};

/// In-place conversion of per-vertex counts into CSR offsets: on entry
/// `counts[v + 1]` holds the degree of vertex v and `counts[0]` is 0; on
/// exit `counts[v]` is the CSR offset of vertex v's adjacency. The one
/// definition of the prefix-sum every CSR build uses — 64-bit throughout,
/// so degree sums past 2³² (10⁸-edge graphs) cannot truncate
/// (tests/store/wide_index_test.cc exercises the boundary).
void CountsToOffsets(std::span<uint64_t> counts);

/// Counts the size of the intersection of two sorted id ranges.
uint64_t SortedIntersectionSize(std::span<const VertexId> a,
                                std::span<const VertexId> b);

/// Counts the size of the union of two sorted unique id ranges:
/// |a| + |b| − SortedIntersectionSize(a, b).
uint64_t SortedUnionSize(std::span<const VertexId> a,
                         std::span<const VertexId> b);

}  // namespace cne

#endif  // CNE_GRAPH_BIPARTITE_GRAPH_H_
