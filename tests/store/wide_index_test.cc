// Overflow-regression tests for the 64-bit index arithmetic the scale
// harness depends on: CSR offsets, persisted view counters, and
// uploaded-edge accounting must all stay exact past the 2³² boundary.
// Everything here tests the arithmetic directly on synthetic values — no
// multi-GiB allocations.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph.h"
#include "service/noisy_view_store.h"
#include "store/snapshot_format.h"

namespace cne {
namespace {

constexpr uint64_t kTwo32 = uint64_t{1} << 32;

TEST(WideIndexTest, CountsToOffsetsSumsPastTwo32) {
  // Five degree buckets of 1.5e9 each: the running sum crosses 2³² after
  // the third and must keep exact 64-bit values.
  const uint64_t degree = 1'500'000'000;
  std::vector<uint64_t> counts = {0, degree, degree, degree, degree, degree};
  CountsToOffsets(counts);
  for (size_t v = 0; v < counts.size(); ++v) {
    EXPECT_EQ(counts[v], degree * v);
  }
  EXPECT_GT(counts.back(), kTwo32);
}

TEST(WideIndexTest, CountsToOffsetsNearUint64Limit) {
  const uint64_t half = std::numeric_limits<uint64_t>::max() / 2;
  std::vector<uint64_t> counts = {0, half, half};
  CountsToOffsets(counts);
  EXPECT_EQ(counts[1], half);
  EXPECT_EQ(counts[2], 2 * half);
}

TEST(WideIndexTest, UploadedEdgeAccountingPastTwo32) {
  // 10⁸-edge graphs at ε=1 upload ~n bits per release; cumulative edge
  // uploads cross 2³² quickly. Stats must accumulate and convert without
  // truncation.
  NoisyViewStore::Stats stats;
  stats.lookups = kTwo32 + 10;
  stats.cache_hits = kTwo32 + 9;
  stats.uploaded_edges = kTwo32 + 1000;

  EXPECT_GT(stats.uploaded_edges, kTwo32);
  const CommModel model{};
  const double bytes = stats.UploadedBytes(model);
  EXPECT_NEAR(bytes,
              model.bytes_per_edge * static_cast<double>(kTwo32 + 1000),
              1.0);
  EXPECT_NEAR(stats.CacheHitRate(), 1.0, 1e-6);
}

TEST(WideIndexTest, PackLayeredVertexAtTheIdCeiling) {
  // kMaxVertexId must survive the pack/unpack round trip in both layers,
  // and the reserved all-ones id must stay distinct from it.
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    const LayeredVertex v{layer, kMaxVertexId};
    EXPECT_EQ(UnpackLayeredVertex(PackLayeredVertex(v)), v);
  }
  const uint64_t max_key =
      PackLayeredVertex({Layer::kLower, kMaxVertexId});
  const uint64_t reserved_key =
      PackLayeredVertex({Layer::kLower, kMaxVertexId + 1});
  EXPECT_NE(max_key, reserved_key);
}

TEST(WideIndexTest, ViewsSectionCountersAreSixtyFourBit) {
  // The persisted counters mirror NoisyViewStore::Stats and must be wide
  // enough for the same 10⁸-edge regime, on disk as well as in memory —
  // and so must a record's released size (a 10⁸-id domain at ε = 1 flips
  // ~2.7e7 bits per view; counts add up past 2³² across views).
  ViewsSection views;
  views.uploaded_edges = 3 * kTwo32;
  views.lookups = kTwo32 + 7;
  ViewRecord record;
  record.packed_vertex = PackLayeredVertex({Layer::kLower, kMaxVertexId});
  record.state = ViewRecord::kStateMaterialized;
  record.size = kTwo32 + 3;
  views.entries.push_back(record);
  ByteWriter out;
  WriteViewsSection(views, out);
  ByteReader in(out.data());
  const ViewsSection back = ReadViewsSection(in);
  EXPECT_EQ(back.uploaded_edges, 3 * kTwo32);
  EXPECT_EQ(back.lookups, kTwo32 + 7);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].packed_vertex, record.packed_vertex);
  EXPECT_EQ(back.entries[0].size, kTwo32 + 3);
}

}  // namespace
}  // namespace cne
