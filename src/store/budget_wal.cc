#include "store/budget_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "ldp/randomized_response.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace cne {

namespace {

// The file literally starts with the ASCII bytes "CNEWAL01".
constexpr uint64_t kWalMagic = 0x31304C4157454E43ULL;
// Version 2 appended the RR sampler version to the header, version 3 the
// RR threshold.
constexpr uint32_t kWalVersion = 3;
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4 + 8;
constexpr size_t kRecordBytes = 1 + 8 + 8 + 4;

bool IsBarrier(WalRecordType type) {
  return type == WalRecordType::kRaiseBudget ||
         type == WalRecordType::kSubmitSealed;
}

// The record's second payload word: value for charge/raise, counter for
// submit seals (exactly one of the two is meaningful per type).
uint64_t PayloadWord(const WalRecord& record) {
  return record.type == WalRecordType::kSubmitSealed
             ? record.counter
             : std::bit_cast<uint64_t>(record.value);
}

void EncodeRecord(const WalRecord& record, ByteWriter& out) {
  ByteWriter body;
  body.U8(static_cast<uint8_t>(record.type));
  body.U64(record.vertex);
  body.U64(PayloadWord(record));
  const uint32_t crc = Crc32(body.data().data(), body.size());
  out.Bytes(body.data().data(), body.size());
  out.U32(crc);
}

void EncodeHeader(uint64_t epoch, uint64_t rr_threshold, ByteWriter& out) {
  out.U64(kWalMagic);
  out.U32(kWalVersion);
  out.U64(epoch);
  out.U32(kRrSamplerVersion);
  out.U64(rr_threshold);
}

void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

void BudgetWal::Reset(const std::string& path, uint64_t epoch,
                      uint64_t rr_threshold) {
  Rewrite(path, epoch, {}, rr_threshold);
}

void BudgetWal::Rewrite(const std::string& path, uint64_t epoch,
                        std::span<const WalRecord> records,
                        uint64_t rr_threshold) {
  ByteWriter out;
  EncodeHeader(epoch, rr_threshold, out);
  for (const WalRecord& record : records) EncodeRecord(record, out);
  const std::span<const uint8_t> parts[] = {out.data()};
  // "walreset", not "wal": the append path's wal.append/wal.fsync sites
  // target the per-submit seal, and arming those must not also fail the
  // atomic rewrite that recovery and checkpoints use.
  WriteFileAtomic(path, parts, {.site = "walreset"});
}

WalReplay BudgetWal::Read(const std::string& path) {
  // Sites wal.open / wal.read (err, short, corrupt — see failpoint.h).
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "wal");
  // Magic and version first: an older format has a shorter header, and
  // deserves the version diagnosis rather than a length one.
  constexpr size_t kVersionedBytes = 8 + 4;
  if (bytes.size() < kVersionedBytes) {
    throw std::runtime_error(path + ": WAL shorter than its header");
  }
  ByteReader in(bytes);
  if (in.U64() != kWalMagic) {
    throw std::runtime_error(path + ": bad WAL magic");
  }
  const uint32_t version = in.U32();
  if (version != kWalVersion) {
    throw std::runtime_error(path + ": unsupported WAL version " +
                             std::to_string(version) +
                             "; this binary reads version " +
                             std::to_string(kWalVersion));
  }
  if (bytes.size() < kHeaderBytes) {
    throw std::runtime_error(path + ": WAL shorter than its header");
  }
  WalReplay replay;
  replay.epoch = in.U64();
  replay.rr_sampler_version = in.U32();
  replay.rr_threshold = in.U64();
  while (in.remaining() >= kRecordBytes) {
    const auto body = in.Borrow(kRecordBytes - 4);
    const uint32_t crc = in.U32();
    if (Crc32(body.data(), body.size()) != crc) {
      // A torn fsync: this record and anything after it never committed.
      replay.torn_tail = true;
      replay.dropped_bytes = bytes.size() - (in.consumed() - kRecordBytes);
      break;
    }
    ByteReader fields(body);
    WalRecord record;
    record.type = static_cast<WalRecordType>(fields.U8());
    record.vertex = fields.U64();
    const uint64_t payload = fields.U64();
    if (record.type == WalRecordType::kSubmitSealed) {
      record.counter = payload;
    } else {
      record.value = std::bit_cast<double>(payload);
    }
    if (record.type != WalRecordType::kCharge &&
        record.type != WalRecordType::kViewAuthorized &&
        !IsBarrier(record.type)) {
      // An unknown type with a valid CRC means a newer writer; refuse to
      // guess at semantics that guard privacy budget.
      throw std::runtime_error(path + ": unknown WAL record type " +
                               std::to_string(static_cast<int>(record.type)));
    }
    replay.records.push_back(record);
    if (IsBarrier(record.type)) replay.committed = replay.records.size();
  }
  if (in.remaining() > 0 && !replay.torn_tail) {
    replay.torn_tail = true;
    replay.dropped_bytes = in.remaining();
  }
  return replay;
}

BudgetWal::BudgetWal(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) ThrowErrno("cannot open WAL", path);
}

BudgetWal::~BudgetWal() {
  if (fd_ >= 0) ::close(fd_);
}

void BudgetWal::Append(const WalRecord& record) {
  if (fd_ < 0) {
    throw std::runtime_error(path_ +
                             ": WAL handle was poisoned by an earlier "
                             "write failure; reopen to recover");
  }
  ByteWriter out;
  EncodeRecord(record, out);
  buffer_.insert(buffer_.end(), out.data().begin(), out.data().end());
  ++appended_;
}

void BudgetWal::Sync() {
  if (fd_ < 0) {
    throw std::runtime_error(path_ +
                             ": WAL handle was poisoned by an earlier "
                             "write failure; reopen to recover");
  }
  size_t written = 0;
  while (written < buffer_.size()) {
    size_t chunk = buffer_.size() - written;
    // wal.append faults: err poisons mid-write (the on-disk tail is then
    // torn, exactly like a real partial append); short writes part of the
    // chunk and continues, exercising the resume path.
    const fail::Injected fp = fail::Hit("wal", ".append");
    if (fp.action == fail::Action::kError) {
      errno = fp.error;
      Poison();
      ThrowErrno("cannot append to WAL", path_);
    }
    if (fp.action == fail::Action::kShort) chunk = fp.ShortenedLen(chunk);
    const ssize_t n = ::write(fd_, buffer_.data() + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The file may now hold a partial record and a retry would desync
      // the framing; poison the handle so recovery (which drops the torn
      // tail) is the only way forward.
      Poison();
      ThrowErrno("cannot append to WAL", path_);
    }
    written += static_cast<size_t>(n);
  }
  buffer_.clear();
  int fsync_rc = ::fsync(fd_);
  int fsync_errno = errno;
  if (const fail::Injected fp = fail::Hit("wal", ".fsync");
      fp.action == fail::Action::kError) {
    fsync_rc = -1;
    fsync_errno = fp.error;
  }
  if (fsync_rc != 0) {
    // A second fsync after a failed one can report success without
    // durability (the kernel clears the error); never retry over it.
    Poison();
    errno = fsync_errno;
    ThrowErrno("cannot fsync WAL", path_);
  }
}

void BudgetWal::Poison() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace cne
