// Equivalence tests for BipartiteGraph::FromEdgeStream, the two-pass
// streamed CSR builder: it must produce byte-identical CSR arrays to the
// in-memory GraphBuilder/edge-list path on the bundled sample dataset and
// on generated graphs, including under duplicate and unsorted emissions.

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/synthetic.h"

namespace cne {
namespace {

std::string SampleDataPath() {
  const char* root = std::getenv("CNE_SOURCE_DIR");
  return std::string(root ? root : ".") + "/data/sample_userpage.txt";
}

BipartiteGraph StreamEdges(VertexId num_upper, VertexId num_lower,
                           const std::vector<Edge>& edges) {
  return BipartiteGraph::FromEdgeStream(
      num_upper, num_lower, [&](const BipartiteGraph::EdgeEmit& emit) {
        for (const Edge& e : edges) emit(e.upper, e.lower);
      });
}

// Both CSR directions must match list for list — equal neighbor lists
// at every vertex mean equal offsets and adjacency arrays, the strongest
// equivalence the class exposes (EdgeList equality follows).
void ExpectSameCsr(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.NumUpper(), b.NumUpper());
  ASSERT_EQ(a.NumLower(), b.NumLower());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    for (VertexId v = 0; v < a.NumVertices(layer); ++v) {
      const auto na = a.Neighbors(layer, v);
      const auto nb = b.Neighbors(layer, v);
      ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
          << LayerName(layer) << " vertex " << v;
    }
  }
}

TEST(FromEdgeStreamTest, MatchesFileIngestOnSampleDataset) {
  const BipartiteGraph reference = ReadEdgeListFile(SampleDataPath());
  ASSERT_GT(reference.NumEdges(), 0u);

  const BipartiteGraph streamed = BipartiteGraph::FromEdgeStream(
      reference.NumUpper(), reference.NumLower(),
      [&](const BipartiteGraph::EdgeEmit& emit) {
        for (const Edge& e : reference.EdgeList()) emit(e.upper, e.lower);
      });
  ExpectSameCsr(streamed, reference);
}

TEST(FromEdgeStreamTest, MatchesGraphBuilderOnGeneratedDraws) {
  // 1e5 Chung–Lu draws with duplicates: the streamed build must dedup to
  // exactly what GraphBuilder's sort+unique produces.
  SyntheticSpec spec;
  spec.num_upper = 2000;
  spec.num_lower = 5000;
  spec.num_edges = 100000;
  spec.seed = 11;
  const SyntheticSampler sampler(spec);

  GraphBuilder builder(spec.num_upper, spec.num_lower);
  sampler.EmitAll([&](VertexId u, VertexId l) { builder.AddEdge(u, l); });
  const BipartiteGraph reference = builder.Build();

  const BipartiteGraph streamed = BipartiteGraph::FromEdgeStream(
      spec.num_upper, spec.num_lower,
      [&](const BipartiteGraph::EdgeEmit& emit) { sampler.EmitAll(emit); });
  EXPECT_LT(streamed.NumEdges(), spec.num_edges);  // dedup happened
  ExpectSameCsr(streamed, reference);
}

TEST(FromEdgeStreamTest, UnsortedAndDuplicatedEmissions) {
  const std::vector<Edge> canonical = {
      {0, 1}, {0, 3}, {1, 0}, {2, 1}, {2, 2}, {3, 3}};
  std::vector<Edge> noisy = canonical;
  noisy.insert(noisy.end(), canonical.begin(), canonical.end());  // dup all
  noisy.push_back({2, 1});                                        // triple
  std::shuffle(noisy.begin(), noisy.end(), std::mt19937(5));

  const BipartiteGraph expected(4, 4, canonical);
  ExpectSameCsr(StreamEdges(4, 4, noisy), expected);
}

TEST(FromEdgeStreamTest, EmptyStream) {
  const BipartiteGraph g = StreamEdges(3, 4, {});
  EXPECT_EQ(g.NumUpper(), 3u);
  EXPECT_EQ(g.NumLower(), 4u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(Layer::kUpper, 2), 0u);
  EXPECT_EQ(g.Degree(Layer::kLower, 3), 0u);
}

TEST(FromEdgeStreamTest, NoVertices) {
  const BipartiteGraph g = StreamEdges(0, 0, {});
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(FromEdgeStreamTest, SingleEdge) {
  const BipartiteGraph g = StreamEdges(2, 2, {{1, 0}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(FromEdgeStreamTest, AllEmissionsDuplicateOneEdge) {
  const BipartiteGraph g =
      StreamEdges(2, 2, std::vector<Edge>(100, Edge{0, 1}));
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.Degree(Layer::kLower, 1), 1u);
}

TEST(FromEdgeStreamTest, AdjacencyIsSortedBothDirections) {
  const std::vector<Edge> edges = {{0, 3}, {0, 1}, {0, 2}, {1, 3},
                                   {1, 0}, {2, 3}, {2, 0}};
  const BipartiteGraph g = StreamEdges(3, 4, edges);
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    for (VertexId v = 0; v < g.NumVertices(layer); ++v) {
      const auto n = g.Neighbors(layer, v);
      EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
      EXPECT_TRUE(std::adjacent_find(n.begin(), n.end()) == n.end());
    }
  }
}

TEST(FromEdgeStreamTest, OutOfRangeEmissionDies) {
  EXPECT_DEATH(StreamEdges(2, 2, {{2, 0}}), "");
  EXPECT_DEATH(StreamEdges(2, 2, {{0, 2}}), "");
}

TEST(FromEdgeStreamTest, NonReplayableScanDies) {
  // A scan that emits different sequences on the two passes must be
  // caught, not silently mis-built.
  int pass = 0;
  EXPECT_DEATH(BipartiteGraph::FromEdgeStream(
                   2, 2,
                   [&](const BipartiteGraph::EdgeEmit& emit) {
                     if (pass++ == 0) {
                       emit(0, 0);
                       emit(1, 1);
                     } else {
                       emit(0, 0);
                     }
                   }),
               "");
}

TEST(FromEdgeStreamTest, RoundTripsThroughEdgeList) {
  SyntheticSpec spec;
  spec.num_upper = 300;
  spec.num_lower = 400;
  spec.num_edges = 5000;
  spec.seed = 3;
  const SyntheticSampler sampler(spec);
  const BipartiteGraph g = BipartiteGraph::FromEdgeStream(
      spec.num_upper, spec.num_lower,
      [&](const BipartiteGraph::EdgeEmit& emit) { sampler.EmitAll(emit); });

  const std::vector<Edge> edges = g.EdgeList();
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  const BipartiteGraph rebuilt(g.NumUpper(), g.NumLower(), edges);
  ExpectSameCsr(rebuilt, g);
}

}  // namespace
}  // namespace cne
