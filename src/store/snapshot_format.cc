#include "store/snapshot_format.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/crc32.h"
#include "util/logging.h"

namespace cne {

namespace {

// The file literally starts with the ASCII bytes "CNESNP01".
constexpr uint64_t kSnapshotMagic = 0x3130504E53454E43ULL;

void Fail(const std::string& path, const std::string& why) {
  throw std::runtime_error(path + ": " + why);
}

}  // namespace

const char* SectionName(SectionId id) {
  switch (id) {
    case SectionId::kConfig:
      return "config";
    case SectionId::kGraph:
      return "graph";
    case SectionId::kViews:
      return "views";
    case SectionId::kLedger:
      return "ledger";
  }
  return "unknown";
}

ByteWriter& SnapshotWriter::BeginSection(SectionId id) {
  CNE_CHECK(!open_) << "sections must not nest";
  for (const Section& section : sections_) {
    CNE_CHECK(section.id != id)
        << "duplicate section " << SectionName(id);
  }
  sections_.push_back({id, {}});
  current_ = ByteWriter();
  open_ = true;
  return current_;
}

void SnapshotWriter::EndSection() {
  CNE_CHECK(open_) << "EndSection without BeginSection";
  sections_.back().payload = current_.Take();
  open_ = false;
}

void SnapshotWriter::Commit(const std::string& path) {
  CNE_CHECK(!open_) << "Commit with an open section";
  ByteWriter header;
  header.U64(kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U64(epoch_);
  header.U32(static_cast<uint32_t>(sections_.size()));
  // TOC rows are fixed-width, so payload offsets are known up front.
  constexpr size_t kTocRowBytes = 4 + 8 + 8 + 4;
  uint64_t offset = header.size() + kTocRowBytes * sections_.size();
  for (const Section& section : sections_) {
    header.U32(static_cast<uint32_t>(section.id));
    header.U64(offset);
    header.U64(section.payload.size());
    header.U32(Crc32(section.payload.data(), section.payload.size()));
    offset += section.payload.size();
  }
  // Header + payloads go to disk as parts: the payloads are never copied
  // into a second snapshot-sized buffer.
  std::vector<std::span<const uint8_t>> parts;
  parts.reserve(sections_.size() + 1);
  parts.push_back(header.data());
  for (const Section& section : sections_) {
    parts.push_back(section.payload);
  }
  // Sites snapshot.open/.write/.fsync/.rename/.dirfsync; each section is
  // one write call, so snapshot.write=err@N fails the Nth part. A failed
  // commit quarantines the temp file instead of unlinking it — the
  // checkpoint retry loop writes a fresh one, and the operator keeps the
  // evidence.
  AtomicWriteOptions options;
  options.site = "snapshot";
  options.quarantine_tmp = true;
  WriteFileAtomic(path, parts, options);
}

SnapshotReader::SnapshotReader(const std::string& path)
    // Sites snapshot.open / snapshot.read; a corrupt injection flips a
    // byte before the TOC CRC validation below, exercising the
    // corruption-detection path end to end.
    : path_(path), bytes_(ReadFileBytes(path, "snapshot")) {
  constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;
  if (bytes_.size() < kHeaderBytes) {
    Fail(path_, "truncated snapshot header");
  }
  ByteReader in(bytes_);
  // Validate magic and version before trusting any other field, with
  // their own diagnoses: a foreign file and a future format version are
  // different operator problems than a torn write.
  if (in.U64() != kSnapshotMagic) Fail(path_, "bad snapshot magic");
  version_ = in.U32();
  if (version_ != kSnapshotVersion) {
    Fail(path_,
         "unsupported snapshot version " + std::to_string(version_));
  }
  epoch_ = in.U64();
  const uint32_t count = in.U32();
  try {
    for (uint32_t i = 0; i < count; ++i) {
      SectionInfo info;
      info.id = static_cast<SectionId>(in.U32());
      info.offset = in.U64();
      info.size = in.U64();
      info.crc = in.U32();
      sections_.push_back(info);
    }
  } catch (const std::runtime_error&) {
    Fail(path_, "truncated snapshot TOC");
  }
  for (const SectionInfo& info : sections_) {
    if (info.offset > bytes_.size() ||
        info.size > bytes_.size() - info.offset) {
      Fail(path_, std::string("section ") + SectionName(info.id) +
                      " extends past the end of the file");
    }
    const uint32_t crc = Crc32(bytes_.data() + info.offset, info.size);
    if (crc != info.crc) {
      Fail(path_, std::string("section ") + SectionName(info.id) +
                      " CRC mismatch: file corrupt");
    }
  }
}

bool SnapshotReader::Has(SectionId id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) return true;
  }
  return false;
}

ByteReader SnapshotReader::Section(SectionId id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) {
      return ByteReader(
          std::span<const uint8_t>(bytes_.data() + info.offset, info.size));
    }
  }
  Fail(path_, std::string("missing section ") + SectionName(id));
  __builtin_unreachable();
}

void WriteConfigSection(const SnapshotConfig& config, ByteWriter& out) {
  out.U32(config.protocol_kind);
  out.F64(config.epsilon);
  out.F64(config.epsilon1_fraction);
  out.F64(config.alpha);
  out.U64(config.seed);
  out.F64(config.initial_lifetime_budget);
  out.F64(config.current_lifetime_budget);
  out.U64(config.next_noise_stream);
  out.U32(config.num_upper);
  out.U32(config.num_lower);
  out.U64(config.num_edges);
  out.U32(config.rr_sampler_version);
}

SnapshotConfig ReadConfigSection(ByteReader& in) {
  SnapshotConfig config;
  config.protocol_kind = in.U32();
  config.epsilon = in.F64();
  config.epsilon1_fraction = in.F64();
  config.alpha = in.F64();
  config.seed = in.U64();
  config.initial_lifetime_budget = in.F64();
  config.current_lifetime_budget = in.F64();
  config.next_noise_stream = in.U64();
  config.num_upper = in.U32();
  config.num_lower = in.U32();
  config.num_edges = in.U64();
  config.rr_sampler_version = in.U32();
  return config;
}

namespace {

void WriteCsrDirection(BipartiteGraph::CsrParts csr, uint32_t block_edges,
                       ByteWriter& out) {
  for (uint64_t offset : csr.offsets) out.U64(offset);
  const uint64_t num_blocks = CsrBlockCount(csr.adj.size(), block_edges);
  CNE_CHECK(num_blocks <= std::numeric_limits<uint32_t>::max())
      << "CSR direction needs " << num_blocks
      << " blocks, beyond the format's u32 block count";
  out.U32(static_cast<uint32_t>(num_blocks));
  ByteWriter block;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const CsrBlockSpan span = CsrBlockAt(b, csr.adj.size(), block_edges);
    block = ByteWriter();
    for (uint32_t i = 0; i < span.count; ++i) block.U32(csr.adj[span.first + i]);
    out.U64(span.first);
    out.U32(span.count);
    out.U32(Crc32(block.data().data(), block.size()));
    out.Bytes(block.data().data(), block.size());
  }
}

struct CsrArrays {
  std::vector<uint64_t> offsets;
  std::vector<VertexId> adj;
};

CsrArrays ReadCsrDirection(ByteReader& in, VertexId num_vertices,
                           uint64_t num_edges) {
  CsrArrays csr;
  // 64-bit loop index: `v <= num_vertices` on VertexId would wrap forever
  // at num_vertices == UINT32_MAX.
  csr.offsets.reserve(static_cast<size_t>(num_vertices) + 1);
  for (uint64_t v = 0; v <= num_vertices; ++v) csr.offsets.push_back(in.U64());
  csr.adj.reserve(num_edges);
  const uint32_t num_blocks = in.U32();
  for (uint32_t b = 0; b < num_blocks; ++b) {
    const uint64_t first = in.U64();
    const uint32_t count = in.U32();
    const uint32_t crc = in.U32();
    const auto raw = in.Borrow(static_cast<size_t>(count) * 4);
    if (Crc32(raw.data(), raw.size()) != crc) {
      throw std::runtime_error("CSR block " + std::to_string(b) +
                               " CRC mismatch");
    }
    if (first != csr.adj.size()) {
      throw std::runtime_error("CSR block " + std::to_string(b) +
                               " out of order");
    }
    ByteReader ids(raw);
    for (uint32_t i = 0; i < count; ++i) csr.adj.push_back(ids.U32());
  }
  if (csr.adj.size() != num_edges) {
    throw std::runtime_error("CSR direction holds " +
                             std::to_string(csr.adj.size()) + " edges, " +
                             std::to_string(num_edges) + " expected");
  }
  return csr;
}

}  // namespace

void WriteGraphSection(const BipartiteGraph& graph, ByteWriter& out,
                       uint32_t block_edges) {
  CNE_CHECK(block_edges > 0) << "block size must be positive";
  out.U32(graph.NumUpper());
  out.U32(graph.NumLower());
  out.U64(graph.NumEdges());
  out.U32(block_edges);
  WriteCsrDirection(graph.Csr(Layer::kUpper), block_edges, out);
  WriteCsrDirection(graph.Csr(Layer::kLower), block_edges, out);
}

BipartiteGraph ReadGraphSection(ByteReader& in) {
  const VertexId num_upper = in.U32();
  const VertexId num_lower = in.U32();
  const uint64_t num_edges = in.U64();
  in.U32();  // block_edges: a write-side tuning knob, not needed to read
  CsrArrays upper = ReadCsrDirection(in, num_upper, num_edges);
  CsrArrays lower = ReadCsrDirection(in, num_lower, num_edges);
  return BipartiteGraph::FromCsr(
      num_upper, num_lower, std::move(upper.offsets), std::move(upper.adj),
      std::move(lower.offsets), std::move(lower.adj));
}

GraphSectionSummary SummarizeGraphSection(ByteReader& in) {
  GraphSectionSummary summary;
  summary.num_upper = in.U32();
  summary.num_lower = in.U32();
  summary.num_edges = in.U64();
  summary.block_edges = in.U32();
  for (const VertexId n : {summary.num_upper, summary.num_lower}) {
    for (uint64_t v = 0; v <= n; ++v) in.U64();  // offsets (64-bit index)
    const uint32_t num_blocks = in.U32();
    for (uint32_t b = 0; b < num_blocks; ++b) {
      in.U64();  // first
      const uint32_t count = in.U32();
      const uint32_t crc = in.U32();
      const auto raw = in.Borrow(static_cast<size_t>(count) * 4);
      if (Crc32(raw.data(), raw.size()) != crc) {
        throw std::runtime_error("CSR block " + std::to_string(b) +
                                 " CRC mismatch");
      }
      ++summary.num_blocks;
    }
  }
  return summary;
}

BipartiteGraph LoadGraphFromSnapshot(const std::string& path) {
  const SnapshotReader reader(path);
  ByteReader section = reader.Section(SectionId::kGraph);
  return ReadGraphSection(section);
}

void WriteViewsSection(const ViewsSection& views, ByteWriter& out) {
  out.F64(views.epsilon);
  out.U64(views.lookups);
  out.U64(views.releases);
  out.U64(views.cache_hits);
  out.U64(views.rejections);
  out.U64(views.uploaded_edges);
  out.U64(views.entries.size());
  for (const ViewRecord& entry : views.entries) {
    out.U64(entry.packed_vertex);
    out.U8(entry.state);
    if (entry.state != ViewRecord::kStateMaterialized) continue;
    out.U64(entry.rng_stream);
    out.F64(entry.epsilon);
    out.F64(entry.flip_probability);
    out.U32(entry.domain);
    out.U8(entry.bitmap ? 1 : 0);
    out.U64(entry.size);
    if (entry.bitmap) {
      out.U64(entry.words.size());
      for (uint64_t word : entry.words) out.U64(word);
    } else {
      out.U64(entry.members.size());
      for (VertexId member : entry.members) out.U32(member);
    }
  }
}

ViewsSection ReadViewsSection(ByteReader& in) {
  ViewsSection views;
  views.epsilon = in.F64();
  views.lookups = in.U64();
  views.releases = in.U64();
  views.cache_hits = in.U64();
  views.rejections = in.U64();
  views.uploaded_edges = in.U64();
  const uint64_t count = in.U64();
  views.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ViewRecord entry;
    entry.packed_vertex = in.U64();
    entry.state = in.U8();
    if (entry.state != ViewRecord::kStateAuthorizedPending &&
        entry.state != ViewRecord::kStateMaterialized) {
      throw std::runtime_error("views section: bad vertex state " +
                               std::to_string(entry.state));
    }
    if (entry.state == ViewRecord::kStateMaterialized) {
      entry.rng_stream = in.U64();
      entry.epsilon = in.F64();
      entry.flip_probability = in.F64();
      entry.domain = in.U32();
      entry.bitmap = in.U8() != 0;
      entry.size = in.U64();
      const uint64_t payload = in.U64();
      if (entry.bitmap) {
        entry.words.reserve(payload);
        for (uint64_t w = 0; w < payload; ++w) entry.words.push_back(in.U64());
      } else {
        entry.members.reserve(payload);
        for (uint64_t m = 0; m < payload; ++m)
          entry.members.push_back(in.U32());
      }
    }
    views.entries.push_back(std::move(entry));
  }
  return views;
}

}  // namespace cne
