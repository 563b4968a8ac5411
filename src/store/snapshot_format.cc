#include "store/snapshot_format.h"

#include <span>
#include <stdexcept>

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
    Fail(path_, "unsupported snapshot version " + std::to_string(version_) +
                    "; this binary reads version " +
                    std::to_string(kSnapshotVersion));
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
  out.U64(config.rr_threshold);
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
  config.rr_threshold = in.U64();
  return config;
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
    out.U64(entry.size);
    out.U64(entry.digest);
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
  // Every record takes at least its vertex and state bytes: a count the
  // section cannot hold is corrupt, and must not size an allocation.
  constexpr uint64_t kMinRecordBytes = 8 + 1;
  if (count > in.remaining() / kMinRecordBytes) {
    throw std::runtime_error("views section: " + std::to_string(count) +
                             " records cannot fit in " +
                             std::to_string(in.remaining()) + " bytes");
  }
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
      entry.size = in.U64();
      entry.digest = in.U64();
    }
    views.entries.push_back(entry);
  }
  return views;
}

namespace {

// SplitMix64's finalizer: a bijective mix in which every input bit
// reaches every output bit.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Four independent mix chains over interleaved words (so a view of 16k
// words digests at memory speed rather than at one chain's latency),
// folded together with the value count.
uint64_t DigestWords(std::span<const uint64_t> values) {
  uint64_t lanes[4] = {1, 2, 3, 4};
  size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    for (size_t k = 0; k < 4; ++k) lanes[k] = Mix64(lanes[k] ^ values[i + k]);
  }
  for (size_t k = 0; i < values.size(); ++i, ++k) {
    lanes[k] = Mix64(lanes[k] ^ values[i]);
  }
  uint64_t digest = Mix64(values.size());
  for (uint64_t lane : lanes) digest = Mix64(digest ^ lane);
  return digest;
}

}  // namespace

uint64_t ViewDigest(const NoisyNeighborSet& view) {
  return DigestWords(view.View().bitmap().Words());
}

}  // namespace cne
