#include "store/snapshot_format.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/binary_io.h"

namespace cne {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

BipartiteGraph MakeTestGraph(VertexId num_upper, VertexId num_lower,
                             uint64_t num_edges, uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyiBipartite(num_upper, num_lower, num_edges, rng);
}

TEST(SnapshotFormatTest, WriterReaderRoundTripsSectionsAndEpoch) {
  const std::string path = TempPath("snapshot_roundtrip.cne");
  SnapshotWriter writer(/*epoch=*/42);
  {
    ByteWriter& out = writer.BeginSection(SectionId::kConfig);
    out.U64(1234);
    writer.EndSection();
  }
  {
    ByteWriter& out = writer.BeginSection(SectionId::kLedger);
    out.F64(2.5);
    out.U64(0);
    writer.EndSection();
  }
  writer.Commit(path);
  EXPECT_FALSE(FileExists(path + ".tmp"));

  SnapshotReader reader(path);
  EXPECT_EQ(reader.version(), kSnapshotVersion);
  EXPECT_EQ(reader.epoch(), 42u);
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_TRUE(reader.Has(SectionId::kConfig));
  EXPECT_TRUE(reader.Has(SectionId::kLedger));
  EXPECT_FALSE(reader.Has(SectionId::kGraph));
  ByteReader config = reader.Section(SectionId::kConfig);
  EXPECT_EQ(config.U64(), 1234u);
  EXPECT_THROW(reader.Section(SectionId::kViews), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFormatTest, CommitReplacesThePreviousSnapshotAtomically) {
  const std::string path = TempPath("snapshot_replace.cne");
  for (uint64_t epoch : {1u, 2u}) {
    SnapshotWriter writer(epoch);
    ByteWriter& out = writer.BeginSection(SectionId::kConfig);
    out.U64(epoch * 100);
    writer.EndSection();
    writer.Commit(path);
  }
  SnapshotReader reader(path);
  EXPECT_EQ(reader.epoch(), 2u);
  ByteReader config = reader.Section(SectionId::kConfig);
  EXPECT_EQ(config.U64(), 200u);
  std::filesystem::remove(path);
}

TEST(SnapshotFormatTest, CorruptPayloadByteFailsTheSectionCrc) {
  const std::string path = TempPath("snapshot_corrupt.cne");
  SnapshotWriter writer(7);
  ByteWriter& out = writer.BeginSection(SectionId::kViews);
  for (int i = 0; i < 64; ++i) out.U64(static_cast<uint64_t>(i));
  writer.EndSection();
  writer.Commit(path);

  auto bytes = ReadFileBytes(path);
  bytes[bytes.size() - 9] ^= 0x10;  // flip one payload bit
  WriteFileAtomic(path, bytes);
  EXPECT_THROW(SnapshotReader{path}, std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFormatTest, TruncatedAndForeignFilesAreRejected) {
  const std::string path = TempPath("snapshot_bad.cne");
  SnapshotWriter writer(7);
  ByteWriter& out = writer.BeginSection(SectionId::kConfig);
  out.U64(1);
  writer.EndSection();
  writer.Commit(path);

  auto bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 4);  // cut into the payload
  WriteFileAtomic(path, bytes);
  EXPECT_THROW(SnapshotReader{path}, std::runtime_error);

  ByteWriter garbage;
  garbage.U64(0x1122334455667788ull);
  garbage.U64(0);
  garbage.U64(0);
  WriteFileAtomic(path, garbage.data());
  EXPECT_THROW(SnapshotReader{path}, std::runtime_error);

  EXPECT_THROW(SnapshotReader{TempPath("no_such_snapshot.cne")},
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFormatTest, ConfigSectionRoundTrips) {
  SnapshotConfig config;
  config.protocol_kind = 3;
  config.epsilon = 2.0;
  config.epsilon1_fraction = 0.5;
  config.alpha = 0.25;
  config.seed = 99;
  config.initial_lifetime_budget = 2.0;
  config.current_lifetime_budget = 4.0;
  config.next_noise_stream = 12345;
  config.num_upper = 10;
  config.num_lower = 20;
  config.num_edges = 77;
  config.rr_sampler_version = 7;

  ByteWriter out;
  WriteConfigSection(config, out);
  ByteReader in(out.data());
  const SnapshotConfig back = ReadConfigSection(in);
  EXPECT_EQ(back.rr_sampler_version, 7u);
  EXPECT_EQ(back.protocol_kind, config.protocol_kind);
  EXPECT_EQ(back.epsilon, config.epsilon);
  EXPECT_EQ(back.epsilon1_fraction, config.epsilon1_fraction);
  EXPECT_EQ(back.alpha, config.alpha);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.initial_lifetime_budget, config.initial_lifetime_budget);
  EXPECT_EQ(back.current_lifetime_budget, config.current_lifetime_budget);
  EXPECT_EQ(back.next_noise_stream, config.next_noise_stream);
  EXPECT_EQ(back.num_upper, config.num_upper);
  EXPECT_EQ(back.num_lower, config.num_lower);
  EXPECT_EQ(back.num_edges, config.num_edges);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(SnapshotConfig{}.rr_sampler_version, kRrSamplerVersion);
}

void ExpectGraphsEqual(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.NumUpper(), b.NumUpper());
  ASSERT_EQ(a.NumLower(), b.NumLower());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
  // The lower direction is restored, not recomputed: spot-check it.
  for (VertexId v = 0; v < a.NumLower(); ++v) {
    const auto na = a.Neighbors(Layer::kLower, v);
    const auto nb = b.Neighbors(Layer::kLower, v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "lower vertex " << v;
  }
}

TEST(SnapshotFormatTest, GraphSectionRoundTripsInBlocks) {
  const BipartiteGraph graph = MakeTestGraph(60, 150, 700, 3);
  // A block size far below the edge count forces many blocks; 1 is the
  // degenerate one-id-per-block extreme.
  for (uint32_t block_edges : {1u, 7u, 64u, kDefaultCsrBlockEdges}) {
    ByteWriter out;
    WriteGraphSection(graph, out, block_edges);
    ByteReader in(out.data());
    const BipartiteGraph restored = ReadGraphSection(in);
    ExpectGraphsEqual(graph, restored);
    EXPECT_EQ(in.remaining(), 0u) << "block size " << block_edges;

    ByteReader summarize(out.data());
    const GraphSectionSummary summary = SummarizeGraphSection(summarize);
    EXPECT_EQ(summary.num_edges, graph.NumEdges());
    EXPECT_EQ(summary.block_edges, block_edges);
    const uint64_t expected_blocks =
        (graph.NumEdges() + block_edges - 1) / block_edges;
    EXPECT_EQ(summary.num_blocks, 2 * expected_blocks);
  }
}

TEST(SnapshotFormatTest, EmptyGraphRoundTrips) {
  const BipartiteGraph empty(3, 4, {});
  ByteWriter out;
  WriteGraphSection(empty, out);
  ByteReader in(out.data());
  const BipartiteGraph restored = ReadGraphSection(in);
  EXPECT_EQ(restored.NumUpper(), 3u);
  EXPECT_EQ(restored.NumLower(), 4u);
  EXPECT_EQ(restored.NumEdges(), 0u);
}

TEST(SnapshotFormatTest, CorruptCsrBlockIsDetected) {
  const BipartiteGraph graph = MakeTestGraph(30, 60, 300, 5);
  ByteWriter out;
  WriteGraphSection(graph, out, 16);
  std::vector<uint8_t> bytes(out.data().begin(), out.data().end());
  bytes[bytes.size() - 2] ^= 0x01;  // inside the last block's ids
  ByteReader in(bytes);
  EXPECT_THROW(ReadGraphSection(in), std::runtime_error);
}

TEST(SnapshotFormatTest, LoadGraphFromSnapshotFile) {
  const std::string path = TempPath("snapshot_graph.cne");
  const BipartiteGraph graph = MakeTestGraph(25, 50, 200, 9);
  SnapshotWriter writer(1);
  WriteGraphSection(graph, writer.BeginSection(SectionId::kGraph));
  writer.EndSection();
  writer.Commit(path);
  const BipartiteGraph restored = LoadGraphFromSnapshot(path);
  ExpectGraphsEqual(graph, restored);
  std::filesystem::remove(path);
}

TEST(SnapshotFormatTest, ViewsSectionRoundTripsBothRepresentations) {
  ViewsSection views;
  views.epsilon = 1.0;
  views.lookups = 10;
  views.releases = 3;
  views.cache_hits = 6;
  views.rejections = 1;
  views.uploaded_edges = 123;

  ViewRecord sorted;
  sorted.packed_vertex = PackLayeredVertex({Layer::kUpper, 4});
  sorted.state = ViewRecord::kStateMaterialized;
  sorted.rng_stream = sorted.packed_vertex;
  sorted.epsilon = 1.0;
  sorted.flip_probability = 0.25;
  sorted.domain = 100;
  sorted.bitmap = false;
  sorted.size = 3;
  sorted.members = {5, 17, 80};
  views.entries.push_back(sorted);

  ViewRecord bitmap;
  bitmap.packed_vertex = PackLayeredVertex({Layer::kLower, 9});
  bitmap.state = ViewRecord::kStateMaterialized;
  bitmap.rng_stream = bitmap.packed_vertex;
  bitmap.epsilon = 1.0;
  bitmap.flip_probability = 0.25;
  bitmap.domain = 130;
  bitmap.bitmap = true;
  bitmap.size = 2;
  bitmap.words = {uint64_t{1} << 5, 0, uint64_t{1} << 1};
  views.entries.push_back(bitmap);

  ViewRecord pending;
  pending.packed_vertex = PackLayeredVertex({Layer::kLower, 11});
  pending.state = ViewRecord::kStateAuthorizedPending;
  views.entries.push_back(pending);

  ByteWriter out;
  WriteViewsSection(views, out);
  ByteReader in(out.data());
  const ViewsSection back = ReadViewsSection(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(back.epsilon, views.epsilon);
  EXPECT_EQ(back.lookups, views.lookups);
  EXPECT_EQ(back.uploaded_edges, views.uploaded_edges);
  ASSERT_EQ(back.entries.size(), 3u);
  EXPECT_EQ(back.entries[0].members, sorted.members);
  EXPECT_FALSE(back.entries[0].bitmap);
  EXPECT_EQ(back.entries[1].words, bitmap.words);
  EXPECT_TRUE(back.entries[1].bitmap);
  EXPECT_EQ(back.entries[1].domain, 130u);
  EXPECT_EQ(back.entries[2].state, ViewRecord::kStateAuthorizedPending);
}

TEST(SnapshotFormatDeathTest, DuplicateSectionIsFatal) {
  SnapshotWriter writer(1);
  writer.BeginSection(SectionId::kConfig);
  writer.EndSection();
  EXPECT_DEATH(writer.BeginSection(SectionId::kConfig), "duplicate");
}

}  // namespace
}  // namespace cne
