// The versioned, checksummed binary snapshot format of the persistence
// subsystem.
//
// Everything the query service holds — the bipartite graph, every
// materialized ε-RR noisy view, the per-vertex budget ledger — lives in
// process memory; a restart without persistence either refuses all
// traffic or re-randomizes views and double-spends lifetime edge-LDP
// budget. A snapshot is one self-describing file capturing that state so
// a killed server restarts byte-identical: same answers, same residual
// budgets, zero re-released views.
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
//            current), the Laplace substream counter, graph shape, and
//            (from format version 2) the RR sampler version
//   kGraph   the bipartite graph in block-CSR: both CSR directions,
//            offsets followed by adjacency ids chunked into fixed-size
//            blocks, each block carrying its own CRC32 (MiniGraph-style
//            out-of-core blocks; the granularity at which corruption is
//            localized and a future partial loader can stream)
//   kViews   every noisy view in its native sorted-or-bitmap
//            representation with its ε and RNG stream id (the store's
//            Fork key) — written/consumed by NoisyViewStore::Save/Restore
//   kLedger  the full budget-ledger table (BudgetLedger::Serialize)
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

#include "graph/bipartite_graph.h"
#include "ldp/randomized_response.h"
#include "util/binary_io.h"

namespace cne {

/// Snapshot file name inside a service's snapshot directory.
inline constexpr const char* kSnapshotFileName = "snapshot.cne";

/// Write-ahead-log file name inside a service's snapshot directory.
inline constexpr const char* kWalFileName = "budget.wal";

/// Snapshot format version; SnapshotReader accepts no other. Version 2
/// added the RR sampler version to the config section.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Section identifiers. Values are part of the on-disk format.
enum class SectionId : uint32_t {
  kConfig = 1,
  kGraph = 2,
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
  VertexId num_upper = 0;            ///< graph shape, for the inspector
  VertexId num_lower = 0;
  uint64_t num_edges = 0;
  /// kRrSamplerVersion of the binary that released the views: the
  /// sampler recovery would regenerate authorized views with.
  uint32_t rr_sampler_version = kRrSamplerVersion;
};

void WriteConfigSection(const SnapshotConfig& config, ByteWriter& out);

SnapshotConfig ReadConfigSection(ByteReader& in);

/// Adjacency ids per CSR block of the graph section. Small enough that a
/// corrupt block localizes to ~256 KiB, large enough that per-block
/// headers are noise.
inline constexpr uint32_t kDefaultCsrBlockEdges = 65536;

/// One block's slice of a CSR adjacency array: ids [first, first + count).
struct CsrBlockSpan {
  uint64_t first = 0;
  uint32_t count = 0;

  friend bool operator==(const CsrBlockSpan&, const CsrBlockSpan&) = default;
};

/// Number of blocks a CSR direction of `num_ids` adjacency ids occupies.
/// 64-bit arithmetic end to end: a 10⁸-edge direction is ~1.5k blocks,
/// and block indexing must stay exact far past the 2³² id boundary
/// (tests/store/wide_index_test.cc). The single definition the writer,
/// reader, and inspector all use.
constexpr uint64_t CsrBlockCount(uint64_t num_ids, uint32_t block_edges) {
  return block_edges == 0 ? 0 : (num_ids + block_edges - 1) / block_edges;
}

/// The id span of block `block` within a direction of `num_ids` ids.
constexpr CsrBlockSpan CsrBlockAt(uint64_t block, uint64_t num_ids,
                                  uint32_t block_edges) {
  const uint64_t first = block * block_edges;
  const uint64_t count =
      first < num_ids ? (num_ids - first < block_edges ? num_ids - first
                                                       : block_edges)
                      : 0;
  return {first, static_cast<uint32_t>(count)};
}

/// Writes `graph` as block-CSR: both directions, offsets then adjacency
/// in blocks of `block_edges` ids, each block with its own CRC32.
void WriteGraphSection(const BipartiteGraph& graph, ByteWriter& out,
                       uint32_t block_edges = kDefaultCsrBlockEdges);

/// Reconstructs a graph from a block-CSR section. Validates every block
/// CRC (std::runtime_error on mismatch); structural validation happens in
/// BipartiteGraph::FromCsr.
BipartiteGraph ReadGraphSection(ByteReader& in);

/// Per-block accounting of a graph section, for the inspector.
struct GraphSectionSummary {
  VertexId num_upper = 0;
  VertexId num_lower = 0;
  uint64_t num_edges = 0;
  uint32_t block_edges = 0;
  uint64_t num_blocks = 0;
};

/// Parses a graph section's shape and block layout without materializing
/// the graph (validates block CRCs along the way) — the inspector's view.
GraphSectionSummary SummarizeGraphSection(ByteReader& in);

/// Loads just the graph from a snapshot file — the warm-start path for
/// tools that would otherwise re-parse a text edge list.
BipartiteGraph LoadGraphFromSnapshot(const std::string& path);

/// One vertex's entry in the views section. `state` distinguishes a view
/// that was authorized (ε charged) but not yet materialized from a fully
/// materialized one; only the latter carries payload.
struct ViewRecord {
  /// On-disk lifecycle states. Part of the format — the single source of
  /// truth every writer, reader, and inspector must use (NoisyViewStore's
  /// in-memory lifecycle translates to/from these, never raw-copies).
  static constexpr uint8_t kStateAuthorizedPending = 1;
  static constexpr uint8_t kStateMaterialized = 2;

  uint64_t packed_vertex = 0;
  uint8_t state = 0;  ///< kStateAuthorizedPending or kStateMaterialized

  // Materialized payload. `rng_stream` is the Rng::Fork stream the view
  // was (and on regeneration would be) drawn from; `epsilon` its release
  // budget. Exactly one of `members` (sorted mode) / `words` (bitmap
  // mode) is populated.
  uint64_t rng_stream = 0;
  double epsilon = 0.0;
  double flip_probability = 0.0;
  VertexId domain = 0;
  bool bitmap = false;
  uint64_t size = 0;  ///< noisy degree (popcount in bitmap mode)
  std::vector<VertexId> members;
  std::vector<uint64_t> words;
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

void WriteViewsSection(const ViewsSection& views, ByteWriter& out);
ViewsSection ReadViewsSection(ByteReader& in);

}  // namespace cne

#endif  // CNE_STORE_SNAPSHOT_FORMAT_H_
