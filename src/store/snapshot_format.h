// The versioned, checksummed binary snapshot format of the persistence
// subsystem.
//
// The query service's privacy state — which vertices released their
// ε-RR views, and how much lifetime budget each vertex spent — lives in
// process memory; a restart without persistence either refuses all
// traffic or re-randomizes views and double-spends lifetime edge-LDP
// budget. A snapshot is one self-describing file holding exactly the
// part of that state that changes and cannot be recomputed, so a killed
// server restarts byte-identical: same answers, same residual budgets,
// zero re-released views.
//
// File layout (all integers little-endian, util/binary_io.h):
//
//   header   magic "CNESNP01" (u64) | version u32 | epoch u64 |
//            section_count u32
//   TOC      per section: id u32 | offset u64 | size u64 | crc32 u32
//   payloads section bytes back to back, in TOC order
//
// Sections (ids in SectionId):
//   kConfig  the service configuration the state was produced under —
//            protocol kind, ε split, seed, lifetime budget (initial and
//            current), the Laplace substream counter, graph shape, the RR
//            sampler version and (from format version 3) the RR
//            threshold t = BernoulliThreshold(FlipProbability(ε1))
//   kViews   the view store's cumulative counters and one ViewRecord per
//            touched vertex: authorized-pending, or materialized with its
//            released size and ViewDigest
//   kLedger  the full budget-ledger table (BudgetLedger::Serialize)
//
// Neither the graph nor any view byte is stored. The graph is the
// caller's input and never changes; a view is a pure function of (seed,
// vertex, ε1, sampler), so recovery regenerates it from the vertex's own
// RNG substream. Regenerating from the same substream is a replay of the
// release the world already saw, not a second release — and the stored
// size and digest prove it: recovery refuses to serve a regenerated view
// that differs from its record (a swapped graph, libm drift in the
// sampler, an unversioned sampler change).
//
// Commit is atomic: SnapshotWriter serializes to `<path>.tmp`, fsyncs,
// and renames over the target, so a crash mid-checkpoint leaves the
// previous snapshot intact. SnapshotReader validates the magic, version,
// TOC bounds, and every section CRC up front; corruption surfaces as
// std::runtime_error before any state is restored.
//
// The `epoch` links a snapshot to its write-ahead log (budget_wal.h):
// recovery replays only a WAL whose epoch matches the snapshot it was
// opened against, which is what makes checkpoint + WAL-reset safe against
// a crash between the two steps.

#ifndef CNE_STORE_SNAPSHOT_FORMAT_H_
#define CNE_STORE_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ldp/randomized_response.h"
#include "util/binary_io.h"

namespace cne {

/// Snapshot file name inside a service's snapshot directory.
inline constexpr const char* kSnapshotFileName = "snapshot.cne";

/// Write-ahead-log file name inside a service's snapshot directory.
inline constexpr const char* kWalFileName = "budget.wal";

/// Snapshot format version; SnapshotReader accepts no other. Version 2
/// added the RR sampler version to the config section; version 3 added
/// the RR threshold and replaced the graph section and the view bytes
/// with per-view size and digest records; version 4 dropped the view
/// records' representation byte (every view is a bitmap).
inline constexpr uint32_t kSnapshotVersion = 4;

/// Section identifiers. Values are part of the on-disk format.
enum class SectionId : uint32_t {
  kConfig = 1,
  kGraph = 2,  ///< up to format 2 only; never written since
  kViews = 3,
  kLedger = 4,
};

/// Display name of a section ("config", "graph", ...).
const char* SectionName(SectionId id);

/// One table-of-contents row of a snapshot file.
struct SectionInfo {
  SectionId id;
  uint64_t offset = 0;  ///< payload start, from the file start
  uint64_t size = 0;    ///< payload bytes
  uint32_t crc = 0;     ///< CRC-32 of the payload
};

/// Builds a snapshot in memory section by section and commits it to disk
/// atomically. Usage: BeginSection / fill the returned writer /
/// EndSection, repeated per section, then Commit.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint64_t epoch) : epoch_(epoch) {}

  /// Starts a section; returns the writer its payload is encoded into.
  /// Sections must not nest and each id may appear once.
  ByteWriter& BeginSection(SectionId id);

  /// Seals the open section.
  void EndSection();

  /// Serializes header + TOC + payloads and writes the file atomically
  /// (tmp + fsync + rename). Throws std::runtime_error on IO failure.
  void Commit(const std::string& path);

 private:
  struct Section {
    SectionId id;
    std::vector<uint8_t> payload;
  };

  uint64_t epoch_;
  std::vector<Section> sections_;
  ByteWriter current_;
  bool open_ = false;
};

/// Reads and validates a snapshot file: magic, version, TOC bounds, and
/// every section CRC. All validation failures throw std::runtime_error.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& path);

  uint32_t version() const { return version_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t file_bytes() const { return bytes_.size(); }
  const std::vector<SectionInfo>& sections() const { return sections_; }

  bool Has(SectionId id) const;

  /// A reader over the payload of section `id`; throws if absent.
  ByteReader Section(SectionId id) const;

 private:
  std::string path_;
  std::vector<uint8_t> bytes_;
  uint32_t version_ = 0;
  uint64_t epoch_ = 0;
  std::vector<SectionInfo> sections_;
};

/// The service configuration a snapshot was produced under. Recovery
/// refuses to restore state into a service whose options differ — a
/// different seed or ε would silently re-randomize every "restored" view.
struct SnapshotConfig {
  uint32_t protocol_kind = 0;        ///< ProtocolKind as u32
  double epsilon = 0.0;              ///< total per-query budget
  double epsilon1_fraction = 0.0;    ///< RR share (MultiR family)
  double alpha = 0.5;                ///< double-source combination weight
  uint64_t seed = 0;                 ///< master seed (view determinism)
  double initial_lifetime_budget = 0.0;  ///< budget at service start
  double current_lifetime_budget = 0.0;  ///< after RaiseLifetimeBudget
  uint64_t next_noise_stream = 0;    ///< per-query Laplace substream counter
  VertexId num_upper = 0;            ///< graph shape (checked at open)
  VertexId num_lower = 0;
  uint64_t num_edges = 0;
  /// kRrSamplerVersion of the binary that released the views: the
  /// sampler recovery would regenerate authorized views with.
  uint32_t rr_sampler_version = kRrSamplerVersion;
  /// BernoulliThreshold(FlipProbability(ε1)) as the releasing binary
  /// computed it: the integer every bitmap release compares against.
  uint64_t rr_threshold = 0;
};

void WriteConfigSection(const SnapshotConfig& config, ByteWriter& out);

SnapshotConfig ReadConfigSection(ByteReader& in);

/// One vertex's entry in the views section. `state` distinguishes a view
/// that was authorized (ε charged) but not yet materialized from a
/// materialized one; only the latter carries a release summary.
struct ViewRecord {
  /// On-disk lifecycle states. Part of the format — the single source of
  /// truth every writer, reader, and inspector must use (NoisyViewStore's
  /// in-memory lifecycle translates to/from these, never raw-copies).
  static constexpr uint8_t kStateAuthorizedPending = 1;
  static constexpr uint8_t kStateMaterialized = 2;

  uint64_t packed_vertex = 0;
  uint8_t state = 0;  ///< kStateAuthorizedPending or kStateMaterialized

  // Materialized only: what the release looked like, so a regenerated
  // view can be checked against it.
  uint64_t size = 0;    ///< noisy degree (popcount of the bitmap)
  uint64_t digest = 0;  ///< ViewDigest of the released view
};

/// The views section: the store's release budget, its cumulative stats
/// counters, and every touched vertex's record in (layer, id) order.
struct ViewsSection {
  double epsilon = 0.0;
  uint64_t lookups = 0;
  uint64_t releases = 0;
  uint64_t cache_hits = 0;
  uint64_t rejections = 0;
  uint64_t uploaded_edges = 0;
  std::vector<ViewRecord> entries;
};

/// Writes a views section.
void WriteViewsSection(const ViewsSection& views, ByteWriter& out);

/// Parses a views section. Throws std::runtime_error on a truncated
/// section, a record count the bytes cannot hold, or an unknown state
/// byte; range and duplicate checks against a graph are
/// NoisyViewStore::Restore's.
ViewsSection ReadViewsSection(ByteReader& in);

/// 64-bit digest of a view's released bytes, its bitmap words. Portable
/// (integer arithmetic only), so a digest written on one host verifies on
/// another.
uint64_t ViewDigest(const NoisyNeighborSet& view);

}  // namespace cne

#endif  // CNE_STORE_SNAPSHOT_FORMAT_H_
