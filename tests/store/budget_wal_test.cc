#include "store/budget_wal.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph.h"
#include "ldp/randomized_response.h"
#include "util/binary_io.h"

namespace cne {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

WalRecord Charge(Layer layer, VertexId id, double epsilon) {
  WalRecord record;
  record.type = WalRecordType::kCharge;
  record.vertex = PackLayeredVertex({layer, id});
  record.value = epsilon;
  return record;
}

WalRecord Authorized(Layer layer, VertexId id) {
  WalRecord record;
  record.type = WalRecordType::kViewAuthorized;
  record.vertex = PackLayeredVertex({layer, id});
  return record;
}

WalRecord Sealed(uint64_t counter) {
  WalRecord record;
  record.type = WalRecordType::kSubmitSealed;
  record.counter = counter;
  return record;
}

WalRecord Raise(double budget) {
  WalRecord record;
  record.type = WalRecordType::kRaiseBudget;
  record.value = budget;
  return record;
}

TEST(BudgetWalTest, AppendSyncReadRoundTrips) {
  const std::string path = TempPath("wal_roundtrip.wal");
  BudgetWal::Reset(path, /*epoch=*/3);
  {
    BudgetWal wal(path);
    wal.Append(Authorized(Layer::kLower, 7));
    wal.Append(Charge(Layer::kLower, 7, 1.0));
    wal.Append(Charge(Layer::kUpper, 2, 0.5));
    wal.Append(Sealed(12));
    wal.Sync();
    // A second batch over the same handle appends, not overwrites.
    wal.Append(Charge(Layer::kLower, 9, 0.25));
    wal.Append(Sealed(20));
    wal.Sync();
    EXPECT_EQ(wal.appended_records(), 6u);
  }
  const WalReplay replay = BudgetWal::Read(path);
  EXPECT_EQ(replay.epoch, 3u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.records.size(), 6u);
  EXPECT_EQ(replay.committed, 6u);
  EXPECT_EQ(replay.records[0], Authorized(Layer::kLower, 7));
  EXPECT_EQ(replay.records[1], Charge(Layer::kLower, 7, 1.0));
  EXPECT_EQ(replay.records[3], Sealed(12));
  EXPECT_EQ(replay.records[5], Sealed(20));
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, EmptyWalReadsCleanly) {
  const std::string path = TempPath("wal_empty.wal");
  BudgetWal::Reset(path, 9);
  const WalReplay replay = BudgetWal::Read(path);
  EXPECT_EQ(replay.epoch, 9u);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.committed, 0u);
  EXPECT_FALSE(replay.torn_tail);
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, UnsealedTailIsParsedButNotCommitted) {
  const std::string path = TempPath("wal_unsealed.wal");
  BudgetWal::Reset(path, 0);
  {
    BudgetWal wal(path);
    wal.Append(Charge(Layer::kLower, 1, 1.0));
    wal.Append(Sealed(1));
    // A crash after this sync but before the next seal: the admission
    // batch below reached disk but was never acted on.
    wal.Append(Authorized(Layer::kLower, 2));
    wal.Append(Charge(Layer::kLower, 2, 1.0));
    wal.Sync();
  }
  const WalReplay replay = BudgetWal::Read(path);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.committed, 2u);  // up to and including the seal
  EXPECT_FALSE(replay.torn_tail);
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, RaiseBudgetIsACommitBarrier) {
  const std::string path = TempPath("wal_raise.wal");
  BudgetWal::Reset(path, 0);
  {
    BudgetWal wal(path);
    wal.Append(Sealed(4));
    wal.Append(Raise(8.0));
    wal.Append(Charge(Layer::kLower, 3, 1.0));  // unsealed
    wal.Sync();
  }
  const WalReplay replay = BudgetWal::Read(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.committed, 2u);
  EXPECT_EQ(replay.records[1], Raise(8.0));
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, TornFinalRecordIsDetectedAndDropped) {
  const std::string path = TempPath("wal_torn.wal");
  BudgetWal::Reset(path, 5);
  {
    BudgetWal wal(path);
    wal.Append(Charge(Layer::kLower, 1, 1.0));
    wal.Append(Sealed(1));
    wal.Append(Charge(Layer::kLower, 2, 1.0));
    wal.Append(Sealed(2));
    wal.Sync();
  }
  const uint64_t full_size = std::filesystem::file_size(path);
  // Tear the final record mid-way: a crash during the last fsync.
  std::filesystem::resize_file(path, full_size - 5);
  const WalReplay torn = BudgetWal::Read(path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.dropped_bytes, 21u - 5u);
  ASSERT_EQ(torn.records.size(), 3u);
  EXPECT_EQ(torn.committed, 2u);  // the torn seal never committed

  // Corrupt (rather than shorten) the final record's CRC: same outcome.
  {
    BudgetWal::Rewrite(path, 5, torn.records);
    auto bytes = ReadFileBytes(path);
    bytes.back() ^= 0xFF;
    WriteFileAtomic(path, bytes);
  }
  const WalReplay corrupt = BudgetWal::Read(path);
  EXPECT_TRUE(corrupt.torn_tail);
  ASSERT_EQ(corrupt.records.size(), 2u);
  EXPECT_EQ(corrupt.committed, 2u);
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, RewriteCompactsToExactlyTheGivenRecords) {
  const std::string path = TempPath("wal_rewrite.wal");
  const std::vector<WalRecord> records = {Charge(Layer::kUpper, 1, 0.5),
                                          Sealed(3)};
  BudgetWal::Rewrite(path, 11, records);
  const WalReplay replay = BudgetWal::Read(path);
  EXPECT_EQ(replay.epoch, 11u);
  EXPECT_EQ(replay.records, records);
  EXPECT_EQ(replay.committed, 2u);
  EXPECT_FALSE(replay.torn_tail);

  // Appending after a rewrite continues the same stream.
  {
    BudgetWal wal(path);
    wal.Append(Sealed(4));
    wal.Sync();
  }
  EXPECT_EQ(BudgetWal::Read(path).records.size(), 3u);
  std::filesystem::remove(path);
}

// --- Exhaustive torn-tail coverage: a crash can cut or rot the file at
// --- ANY byte, so every offset is tested, not a sampled handful.

// magic u64 + version u32 + epoch u64 + sampler version u32 +
// RR threshold u64
constexpr size_t kHeaderBytes = 32;
constexpr size_t kRecordBytes = 21;  // type u8 + u64 + u64 + crc u32

// Five records, two seals: [Charge, Sealed, Charge, Authorized, Sealed].
// Committed prefix by parsed-record count n: n>=5 -> 5, n in [2,4] -> 2
// (the first seal), n<2 -> 0.
std::vector<uint8_t> FiveRecordWal(const std::string& path) {
  BudgetWal::Reset(path, /*epoch=*/4);
  {
    BudgetWal wal(path);
    wal.Append(Charge(Layer::kLower, 1, 1.0));
    wal.Append(Sealed(1));
    wal.Append(Charge(Layer::kLower, 2, 1.0));
    wal.Append(Authorized(Layer::kLower, 3));
    wal.Append(Sealed(2));
    wal.Sync();
  }
  return ReadFileBytes(path);
}

size_t ExpectedCommitted(size_t parsed_records) {
  if (parsed_records >= 5) return 5;
  if (parsed_records >= 2) return 2;
  return 0;
}

TEST(BudgetWalTornTest, TruncationAtEveryByteDropsExactlyTheUncommitted) {
  const std::string path = TempPath("wal_exhaustive_trunc.wal");
  const std::vector<uint8_t> full = FiveRecordWal(path);
  ASSERT_EQ(full.size(), kHeaderBytes + 5 * kRecordBytes);

  // Cutting into the header is not a torn tail — it is not a WAL at all.
  for (size_t t = 0; t < kHeaderBytes; ++t) {
    WriteFileAtomic(path, std::span<const uint8_t>(full.data(), t));
    EXPECT_THROW(BudgetWal::Read(path), std::runtime_error) << "cut at " << t;
  }

  for (size_t t = kHeaderBytes; t <= full.size(); ++t) {
    WriteFileAtomic(path, std::span<const uint8_t>(full.data(), t));
    const WalReplay replay = BudgetWal::Read(path);
    const size_t parsed = (t - kHeaderBytes) / kRecordBytes;
    const size_t remainder = (t - kHeaderBytes) % kRecordBytes;
    ASSERT_EQ(replay.records.size(), parsed) << "cut at " << t;
    EXPECT_EQ(replay.committed, ExpectedCommitted(parsed)) << "cut at " << t;
    // A cut exactly on a record boundary is indistinguishable from a
    // clean shutdown mid-batch: complete records, no torn tail.
    EXPECT_EQ(replay.torn_tail, remainder != 0) << "cut at " << t;
    EXPECT_EQ(replay.dropped_bytes, remainder) << "cut at " << t;

    // Recovery compacts to the committed prefix; the compacted log reads
    // back clean with nothing further to drop.
    BudgetWal::Rewrite(path, replay.epoch,
                       std::span<const WalRecord>(replay.records.data(),
                                                  replay.committed));
    const WalReplay compacted = BudgetWal::Read(path);
    EXPECT_FALSE(compacted.torn_tail) << "cut at " << t;
    EXPECT_EQ(compacted.records.size(), replay.committed) << "cut at " << t;
    EXPECT_EQ(compacted.committed, replay.committed) << "cut at " << t;
  }
  std::filesystem::remove(path);
}

TEST(BudgetWalTornTest, FlippingEveryByteOfTheFinalRecordDropsIt) {
  const std::string path = TempPath("wal_exhaustive_flip.wal");
  const std::vector<uint8_t> full = FiveRecordWal(path);
  const size_t final_record = kHeaderBytes + 4 * kRecordBytes;
  for (size_t offset = final_record; offset < full.size(); ++offset) {
    std::vector<uint8_t> bytes = full;
    bytes[offset] ^= 0xFF;
    WriteFileAtomic(path, bytes);
    const WalReplay replay = BudgetWal::Read(path);
    // The record CRC covers every body byte, and a flipped CRC no longer
    // matches the intact body: either way the record must not parse.
    EXPECT_TRUE(replay.torn_tail) << "flip at " << offset;
    ASSERT_EQ(replay.records.size(), 4u) << "flip at " << offset;
    EXPECT_EQ(replay.committed, 2u) << "flip at " << offset;
    EXPECT_EQ(replay.dropped_bytes, kRecordBytes) << "flip at " << offset;
  }
  std::filesystem::remove(path);
}

// The message BudgetWal::Read throws on `path` ("" when it reads fine).
std::string ReadError(const std::string& path) {
  try {
    BudgetWal::Read(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BudgetWalTest, HeaderCarriesTheSamplerVersionAndThreshold) {
  const std::string path = TempPath("wal_sampler.wal");
  const uint64_t threshold = BernoulliThreshold(FlipProbability(1.0));
  BudgetWal::Reset(path, 6, threshold);
  EXPECT_EQ(BudgetWal::Read(path).rr_sampler_version, kRrSamplerVersion);
  EXPECT_EQ(BudgetWal::Read(path).rr_threshold, threshold);

  // The stamps are read back as written, whatever their value: refusing
  // a foreign sampler is recovery's decision, not the reader's.
  BudgetWal::Rewrite(path, 6, std::vector<WalRecord>{Sealed(2)}, threshold);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes + kRecordBytes);
  bytes[20] = 9;  // rr_sampler_version follows magic, version and epoch
  bytes[24] ^= 1;  // the threshold follows the sampler version
  WriteFileAtomic(path, bytes);
  const WalReplay replay = BudgetWal::Read(path);
  EXPECT_EQ(replay.rr_sampler_version, 9u);
  EXPECT_EQ(replay.rr_threshold, threshold ^ 1);
  EXPECT_EQ(replay.epoch, 6u);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0], Sealed(2));
  EXPECT_FALSE(replay.torn_tail);

  // Any other format version is refused, naming both versions: format 2
  // (no threshold) as well as versions this binary does not know.
  for (uint8_t version : {2, 4}) {
    bytes[8] = version;
    WriteFileAtomic(path, bytes);
    const std::string what = ReadError(path);
    EXPECT_NE(what.find("WAL version " + std::to_string(version) + ";"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("reads version 3"), std::string::npos) << what;
  }
  // An empty format-2 log is shorter than a format-3 header; it still
  // gets the version diagnosis.
  bytes.resize(24);
  bytes[8] = 2;
  WriteFileAtomic(path, bytes);
  EXPECT_NE(ReadError(path).find("WAL version 2;"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(BudgetWalTest, ForeignAndMissingFilesThrow) {
  const std::string path = TempPath("wal_foreign.wal");
  ByteWriter garbage;
  garbage.U64(0xABCDEF);
  garbage.U32(1);
  garbage.U64(0);
  WriteFileAtomic(path, garbage.data());
  EXPECT_THROW(BudgetWal::Read(path), std::runtime_error);
  EXPECT_THROW(BudgetWal::Read(TempPath("wal_missing.wal")),
               std::runtime_error);
  EXPECT_THROW(BudgetWal{TempPath("wal_missing.wal")}, std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cne
