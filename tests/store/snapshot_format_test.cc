#include "store/snapshot_format.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_io.h"

namespace cne {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
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

TEST(SnapshotFormatTest, OtherFormatVersionsAreRefusedNamingBoth) {
  const std::string path = TempPath("snapshot_version.cne");
  SnapshotWriter writer(7);
  writer.BeginSection(SectionId::kConfig);
  writer.EndSection();
  writer.Commit(path);
  auto bytes = ReadFileBytes(path);
  // Format 3 still carried a representation byte per view record.
  for (const uint8_t version : {2, 3}) {
    bytes[8] = version;  // the version follows the 8-byte magic
    WriteFileAtomic(path, bytes);
    try {
      SnapshotReader reader(path);
      FAIL() << "opened a format " << int{version} << " snapshot";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "version " + std::to_string(version) +
                    "; this binary reads version 4"),
                std::string::npos)
          << e.what();
    }
  }
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
  config.rr_threshold = 0x0010000000000001ULL;

  ByteWriter out;
  WriteConfigSection(config, out);
  ByteReader in(out.data());
  const SnapshotConfig back = ReadConfigSection(in);
  EXPECT_EQ(back.rr_sampler_version, 7u);
  EXPECT_EQ(back.rr_threshold, config.rr_threshold);
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

ViewsSection SampleViews() {
  ViewsSection views;
  views.epsilon = 1.0;
  views.lookups = 10;
  views.releases = 3;
  views.cache_hits = 6;
  views.rejections = 1;
  views.uploaded_edges = 123;

  ViewRecord upper;
  upper.packed_vertex = PackLayeredVertex({Layer::kUpper, 4});
  upper.state = ViewRecord::kStateMaterialized;
  upper.size = 3;
  upper.digest = 0x0123456789abcdefULL;
  views.entries.push_back(upper);

  ViewRecord lower;
  lower.packed_vertex = PackLayeredVertex({Layer::kLower, 9});
  lower.state = ViewRecord::kStateMaterialized;
  lower.size = 2;
  lower.digest = 0xfedcba9876543210ULL;
  views.entries.push_back(lower);

  ViewRecord pending;
  pending.packed_vertex = PackLayeredVertex({Layer::kLower, 11});
  pending.state = ViewRecord::kStateAuthorizedPending;
  views.entries.push_back(pending);
  return views;
}

TEST(SnapshotFormatTest, ViewsSectionRoundTripsRecords) {
  const ViewsSection views = SampleViews();
  ByteWriter out;
  WriteViewsSection(views, out);
  // Counters, then per record: vertex + state, and for a materialized
  // view its size and digest — never the view's bytes.
  EXPECT_EQ(out.size(), 8u * 7 + 2 * (8 + 1 + 8 + 8) + (8 + 1));
  ByteReader in(out.data());
  const ViewsSection back = ReadViewsSection(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(back.epsilon, views.epsilon);
  EXPECT_EQ(back.lookups, views.lookups);
  EXPECT_EQ(back.uploaded_edges, views.uploaded_edges);
  ASSERT_EQ(back.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.entries[i].packed_vertex, views.entries[i].packed_vertex);
    EXPECT_EQ(back.entries[i].state, views.entries[i].state);
    EXPECT_EQ(back.entries[i].size, views.entries[i].size);
    EXPECT_EQ(back.entries[i].digest, views.entries[i].digest);
  }
}

TEST(SnapshotFormatTest, MalformedViewsSectionsThrow) {
  ByteWriter out;
  WriteViewsSection(SampleViews(), out);
  const std::vector<uint8_t> good(out.data().begin(), out.data().end());
  // Byte offsets into the encoding of SampleViews().
  constexpr size_t kCountAt = 8 * 6;
  constexpr size_t kFirstStateAt = kCountAt + 8 + 8;
  const struct {
    const char* name;
    size_t at;
    uint8_t value;
  } pokes[] = {
      {"unknown state byte", kFirstStateAt, 7},
      {"record count beyond the section", kCountAt + 7, 0x10},
      {"one more record than written", kCountAt, 4},
  };
  for (const auto& poke : pokes) {
    std::vector<uint8_t> bytes = good;
    bytes[poke.at] = poke.value;
    ByteReader in(bytes);
    EXPECT_THROW(ReadViewsSection(in), std::runtime_error) << poke.name;
  }
  for (size_t cut : {good.size() - 1, kCountAt}) {
    ByteReader in(std::span<const uint8_t>(good.data(), cut));
    EXPECT_THROW(ReadViewsSection(in), std::runtime_error) << "cut " << cut;
  }
}

TEST(SnapshotFormatTest, ViewDigestTracksEveryReleasedBit) {
  DenseBitset bits(130);
  bits.Set(5);
  bits.Set(129);
  const NoisyNeighborSet bitmap(bits, 0.25);
  const uint64_t digest = ViewDigest(bitmap);
  // Part of the format: snapshots store it, so it must not drift.
  EXPECT_EQ(digest, 0xae7912d3e5a0cfa0ULL);
  for (VertexId flip : {0u, 5u, 63u, 64u, 127u, 128u, 129u}) {
    DenseBitset other = bits;
    other.MutableWords()[flip >> 6] ^= uint64_t{1} << (flip & 63);
    EXPECT_NE(ViewDigest(NoisyNeighborSet(other, 0.25)), digest)
        << "bit " << flip;
  }
  // The member-list constructor packs the same bitmap.
  EXPECT_EQ(ViewDigest(NoisyNeighborSet({129, 5}, 130, 0.25)), digest);
  EXPECT_NE(ViewDigest(NoisyNeighborSet({5}, 130, 0.25)), digest);
}

TEST(SnapshotFormatDeathTest, DuplicateSectionIsFatal) {
  SnapshotWriter writer(1);
  writer.BeginSection(SectionId::kConfig);
  writer.EndSection();
  EXPECT_DEATH(writer.BeginSection(SectionId::kConfig), "duplicate");
}

}  // namespace
}  // namespace cne
