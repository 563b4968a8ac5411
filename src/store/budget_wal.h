// Write-ahead budget journal.
//
// Snapshots are periodic; the WAL makes everything *between* checkpoints
// durable. The query service appends a record for every ledger charge and
// every first-authorization of a noisy view during its (sequential)
// admission pass, then appends a submit-seal record and fsyncs ONCE —
// before any noise is sampled or any answer computed. That ordering is
// the whole safety argument:
//
//   * crash after the fsync: every admitted decision is on disk; replay
//     reproduces the exact ledger, the exact authorized-view set, and the
//     exact Laplace substream counter, so the restarted service behaves
//     byte-identically to one that never crashed.
//   * crash before the fsync: the tail of the log is an unsealed (or
//     torn) batch the service never acted on — no noise drawn, no answer
//     returned. Recovery drops everything after the last seal, which is
//     exactly the state the outside world observed.
//
// Record framing: fixed 21 bytes — type u8 | a u64 | b u64 | crc32 u32
// (crc over type+a+b). A torn final record fails its length or CRC check
// and is discarded along with everything after it; records are replayed
// only up to the last *commit barrier* (a seal or a budget raise, the two
// record kinds that are individually fsynced).
//
// The file starts with magic "CNEWAL01" | version u32 | epoch u64 |
// rr_sampler_version u32 (format 2) | rr_threshold u64 (format 3). The
// sampler version and the threshold t = BernoulliThreshold(
// FlipProbability(ε1)) name the sampler, and the integer its bitmap path
// compares against, that recovery must regenerate the log's authorized
// views with — views that have no snapshot digest yet. The
// epoch ties the log to the snapshot it extends (snapshot_format.h): a
// checkpoint renames the new snapshot into place and then resets the WAL
// to the new epoch; a crash between the two steps leaves a stale-epoch
// WAL that recovery recognizes and discards instead of double-applying.

#ifndef CNE_STORE_BUDGET_WAL_H_
#define CNE_STORE_BUDGET_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cne {

/// WAL record kinds. Values are part of the on-disk format.
enum class WalRecordType : uint8_t {
  /// A ledger charge: `vertex` spent `value` ε. Appended for every
  /// randomized-response authorization and every Laplace sourcing.
  kCharge = 1,
  /// First authorization of `vertex`'s noisy view (the view itself is
  /// deterministic from the service seed, so the fact of authorization is
  /// all that must be durable).
  kViewAuthorized = 2,
  /// The lifetime budget was raised to `value`. A commit barrier.
  kRaiseBudget = 3,
  /// A submission's admission pass was sealed; `counter` is the Laplace
  /// substream counter after it. A commit barrier: records after the last
  /// barrier were never acted on and are dropped by recovery.
  kSubmitSealed = 4,
};

/// One journal record. Field use by type: kCharge (vertex, value),
/// kViewAuthorized (vertex), kRaiseBudget (value), kSubmitSealed
/// (counter).
struct WalRecord {
  WalRecordType type = WalRecordType::kCharge;
  uint64_t vertex = 0;  ///< PackLayeredVertex key
  double value = 0.0;
  uint64_t counter = 0;

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Everything recovery learns from reading a WAL file.
struct WalReplay {
  uint64_t epoch = 0;
  /// kRrSamplerVersion of the binary that wrote the header.
  uint32_t rr_sampler_version = 0;
  /// The RR threshold the header was stamped with.
  uint64_t rr_threshold = 0;
  /// All complete, CRC-valid records, in append order.
  std::vector<WalRecord> records;
  /// Records up to and including the last commit barrier — the prefix
  /// recovery applies. Trailing records beyond it belong to an admission
  /// batch whose fsync never completed.
  size_t committed = 0;
  /// True when the file ended in a torn (short or CRC-failing) record.
  bool torn_tail = false;
  /// Bytes discarded after the last valid record.
  uint64_t dropped_bytes = 0;
};

/// Append-side handle on a budget journal. Appends buffer in memory;
/// Sync() writes the buffer and fsyncs — the service calls it exactly
/// once per submission, before acting on any admitted query.
class BudgetWal {
 public:
  /// Atomically creates (or replaces) the WAL at `path` holding only a
  /// fresh header with `epoch` and `rr_threshold`, the RR threshold of
  /// the views the log will authorize (0 for a log that authorizes none).
  /// Every header written is also stamped with this binary's
  /// kRrSamplerVersion.
  static void Reset(const std::string& path, uint64_t epoch,
                    uint64_t rr_threshold = 0);

  /// Atomically rewrites the WAL to hold exactly `records` — recovery
  /// compaction: drops a torn tail and uncommitted records for good.
  static void Rewrite(const std::string& path, uint64_t epoch,
                      std::span<const WalRecord> records,
                      uint64_t rr_threshold = 0);

  /// Parses the WAL at `path`. Throws std::runtime_error only on an
  /// unreadable file, bad magic, or unsupported version; a torn tail is a
  /// normal crash artifact and is reported in the result, not thrown.
  static WalReplay Read(const std::string& path);

  /// Opens an existing WAL (created by Reset/Rewrite) for appending.
  explicit BudgetWal(const std::string& path);
  ~BudgetWal();

  BudgetWal(const BudgetWal&) = delete;
  BudgetWal& operator=(const BudgetWal&) = delete;

  /// Buffers one record.
  void Append(const WalRecord& record);

  /// Writes all buffered records and fsyncs. Throws std::runtime_error on
  /// IO failure — budget durability is not best-effort — and *poisons*
  /// the handle: after a failed write the file may end in a partial
  /// record (a retry would desync the framing) and after a failed fsync
  /// a retry can succeed without durability, so every later Append/Sync
  /// throws until a fresh handle re-runs recovery.
  void Sync();

  /// Records appended over this handle's lifetime (buffered + synced).
  uint64_t appended_records() const { return appended_; }

 private:
  void Poison();

  std::string path_;
  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  uint64_t appended_ = 0;
};

}  // namespace cne

#endif  // CNE_STORE_BUDGET_WAL_H_
