#include "service/noisy_view_store.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/cpu_features.h"
#include "util/logging.h"

namespace cne {

NoisyViewStore::NoisyViewStore(const BipartiteGraph& graph, double epsilon,
                               const Rng& base_rng, BudgetLedger& ledger)
    : graph_(graph), epsilon_(epsilon), base_rng_(base_rng), ledger_(ledger) {
  CNE_CHECK(epsilon > 0.0) << "release budget must be positive";
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    LayerTable& table = Table(layer);
    const size_t n = graph.NumVertices(layer);
    table.state = std::vector<std::atomic<uint8_t>>(n);
    table.view = std::vector<std::atomic<NoisyNeighborSet*>>(n);
  }
}

NoisyViewStore::~NoisyViewStore() {
  for (LayerTable& table : tables_) {
    for (std::atomic<NoisyNeighborSet*>& slot : table.view) {
      delete slot.load(std::memory_order_relaxed);
    }
  }
}

NoisyViewStore::Admission NoisyViewStore::Authorize(LayeredVertex vertex) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  LayerTable& table = Table(vertex.layer);
  CNE_CHECK(vertex.id < table.state.size()) << "vertex out of range";
  // Fast path: an authorized or materialized vertex never charges again —
  // one atomic load, no lock.
  if (table.state[vertex.id].load(std::memory_order_acquire) != kUntouched) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kCacheHit;
  }
  std::lock_guard<std::mutex> lock(slow_mutex_);
  if (table.state[vertex.id].load(std::memory_order_acquire) != kUntouched) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kCacheHit;
  }
  if (!ledger_.TryCharge(vertex, epsilon_)) {
    rejections_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kRejected;
  }
  releases_.fetch_add(1, std::memory_order_relaxed);
  pending_.push_back(vertex);
  table.state[vertex.id].store(kAuthorizedPending, std::memory_order_release);
  return Admission::kAuthorized;
}

bool NoisyViewStore::Contains(LayeredVertex vertex) const {
  return Table(vertex.layer).state[vertex.id].load(
             std::memory_order_acquire) != kUntouched;
}

void NoisyViewStore::MaterializeAuthorized(ThreadPool& pool) {
  std::vector<LayeredVertex> batch;
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    batch.swap(pending_);
  }
  if (batch.empty()) return;
  // Allocate every release here and let the pool only write it: views
  // allocated on pool threads pin those threads' malloc arenas long after
  // the store that owned them is gone.
  std::vector<DenseBitset> storage(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    storage[i] = DenseBitset::Uninitialized(
        graph_.NumVertices(Opposite(batch[i].layer)));
  }
  pool.ParallelFor(batch.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const LayeredVertex vertex = batch[i];
      LayerTable& table = Table(vertex.layer);
      // A lazy Get may have built this view already; both paths draw from
      // the vertex's own substream, so whichever wins stores the same
      // bytes — skip to avoid double-counting the upload.
      if (table.state[vertex.id].load(std::memory_order_acquire) ==
          kMaterialized) {
        continue;
      }
      const uint64_t t0 = build_histogram_ != nullptr ? obs::NowNanos() : 0;
      std::unique_ptr<NoisyNeighborSet> view =
          Generate(vertex, std::move(storage[i]));
      if (build_histogram_ != nullptr) {
        const uint64_t dt = obs::NowNanos() - t0;
        build_histogram_->Record(dt);
        OfferBuildExemplar(vertex, *view, dt);
      }
      const uint64_t digest = digests_ != nullptr ? ViewDigest(*view) : 0;
      std::lock_guard<std::mutex> lock(slow_mutex_);
      if (table.state[vertex.id].load(std::memory_order_acquire) !=
          kMaterialized) {
        Publish(vertex, std::move(view), digest);
      }
    }
  });
}

void NoisyViewStore::OfferBuildExemplar(LayeredVertex vertex,
                                        const NoisyNeighborSet& view,
                                        uint64_t nanos) const {
  if (build_exemplars_ == nullptr || !build_exemplars_->WouldAccept(nanos)) {
    return;
  }
  obs::Exemplar e;
  e.seconds = static_cast<double>(nanos) * 1e-9;
  e.submit = build_submit_;
  e.has_query = true;  // u == w: the released vertex, not a pair
  e.layer = static_cast<uint8_t>(vertex.layer);
  e.u = vertex.id;
  e.w = vertex.id;
  e.repr_u = "bitmap";
  e.size_u = view.Size();
  e.simd = SimdLevelName(ActiveSimdLevel());
  build_exemplars_->Offer(nanos, e);
}

const NoisyNeighborSet* NoisyViewStore::Get(LayeredVertex vertex) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  LayerTable& table = Table(vertex.layer);
  CNE_CHECK(vertex.id < table.state.size()) << "vertex out of range";
  // Fast path: the view exists — one atomic load.
  if (const NoisyNeighborSet* view =
          table.view[vertex.id].load(std::memory_order_acquire)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return view;
  }
  std::unique_lock<std::mutex> lock(slow_mutex_);
  const uint8_t state =
      table.state[vertex.id].load(std::memory_order_acquire);
  if (state == kMaterialized) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return table.view[vertex.id].load(std::memory_order_acquire);
  }
  if (state == kUntouched) {
    if (!ledger_.TryCharge(vertex, epsilon_)) {
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    releases_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Authorized earlier but never prefetched; build it now. Noise comes
    // from the vertex's own substream, so the view is identical to what
    // MaterializeAuthorized would have produced.
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  // Building under the lock is acceptable: lazy builds are the cold path
  // (the service prefetches via MaterializeAuthorized).
  const uint64_t t0 = build_histogram_ != nullptr ? obs::NowNanos() : 0;
  std::unique_ptr<NoisyNeighborSet> built = Generate(vertex);
  if (build_histogram_ != nullptr) {
    const uint64_t dt = obs::NowNanos() - t0;
    build_histogram_->Record(dt);
    OfferBuildExemplar(vertex, *built, dt);
  }
  const uint64_t digest = digests_ != nullptr ? ViewDigest(*built) : 0;
  Publish(vertex, std::move(built), digest);
  return table.view[vertex.id].load(std::memory_order_acquire);
}

const NoisyNeighborSet& NoisyViewStore::View(LayeredVertex vertex) const {
  const NoisyNeighborSet* view =
      Table(vertex.layer).view[vertex.id].load(std::memory_order_acquire);
  CNE_CHECK(view != nullptr)
      << "view of " << LayerName(vertex.layer) << " vertex " << vertex.id
      << " was never materialized";
  return *view;
}

NoisyViewStore::Stats NoisyViewStore::stats() const {
  Stats stats;
  stats.lookups = lookups_.load(std::memory_order_relaxed);
  stats.releases = releases_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.rejections = rejections_.load(std::memory_order_relaxed);
  stats.uploaded_edges = uploaded_edges_.load(std::memory_order_relaxed);
  return stats;
}

void NoisyViewStore::set_digests(Digests* digests) {
  CNE_CHECK(releases_.load(std::memory_order_relaxed) == 0)
      << "digests must be kept from the first release on";
  digests_ = digests;
}

void NoisyViewStore::Save(ByteWriter& out) const {
  CNE_CHECK(digests_ != nullptr) << "Save needs the store's view digests";
  ViewsSection views;
  views.epsilon = epsilon_;
  views.lookups = lookups_.load(std::memory_order_relaxed);
  views.releases = releases_.load(std::memory_order_relaxed);
  views.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  views.rejections = rejections_.load(std::memory_order_relaxed);
  views.uploaded_edges = uploaded_edges_.load(std::memory_order_relaxed);
  // The digest map holds exactly the materialized views, so a checkpoint
  // costs O(views) rather than a scan of every vertex of the graph.
  views.entries.reserve(digests_->size() + pending_.size());
  for (const auto& [packed, digest] : *digests_) {
    const NoisyNeighborSet& view = View(UnpackLayeredVertex(packed));
    ViewRecord record;
    record.packed_vertex = packed;
    record.state = ViewRecord::kStateMaterialized;
    record.size = view.Size();
    record.digest = digest;
    views.entries.push_back(record);
  }
  for (const LayeredVertex vertex : pending_) {
    // A lazy Get may have built a vertex that is still listed here.
    if (Table(vertex.layer).state[vertex.id].load(
            std::memory_order_acquire) != kAuthorizedPending) {
      continue;
    }
    ViewRecord record;
    record.packed_vertex = PackLayeredVertex(vertex);
    record.state = ViewRecord::kStateAuthorizedPending;
    views.entries.push_back(record);
  }
  std::sort(views.entries.begin(), views.entries.end(),
            [](const ViewRecord& a, const ViewRecord& b) {
              return a.packed_vertex < b.packed_vertex;
            });
  WriteViewsSection(views, out);
}

void NoisyViewStore::QueueRestored(uint64_t packed_vertex,
                                   const char* source) {
  if (packed_vertex >> 32 > static_cast<uint64_t>(Layer::kLower) ||
      (packed_vertex & 0xffffffffULL) >=
          Table(static_cast<Layer>(packed_vertex >> 32)).state.size()) {
    throw std::runtime_error(std::string(source) + ": vertex key " +
                             std::to_string(packed_vertex) +
                             " is outside this graph");
  }
  const LayeredVertex vertex = UnpackLayeredVertex(packed_vertex);
  if (Contains(vertex)) {
    throw std::runtime_error(std::string(source) + ": " +
                             LayerName(vertex.layer) + " vertex " +
                             std::to_string(vertex.id) +
                             " is authorized twice");
  }
  pending_.push_back(vertex);
  Table(vertex.layer).state[vertex.id].store(kAuthorizedPending,
                                             std::memory_order_release);
}

std::vector<ViewRecord> NoisyViewStore::Restore(ByteReader& in) {
  CNE_CHECK(lookups_.load(std::memory_order_relaxed) == 0 &&
            releases_.load(std::memory_order_relaxed) == 0)
      << "view restore requires a fresh store";
  ViewsSection views = ReadViewsSection(in);
  if (views.epsilon != epsilon_) {
    throw std::runtime_error(
        "snapshot views were released at epsilon " +
        std::to_string(views.epsilon) + ", this store releases at " +
        std::to_string(epsilon_));
  }
  for (const ViewRecord& record : views.entries) {
    QueueRestored(record.packed_vertex, "snapshot views section");
  }
  // Counters come from the snapshot: restoring is not a release, so
  // nothing may be re-counted.
  lookups_.store(views.lookups, std::memory_order_relaxed);
  releases_.store(views.releases, std::memory_order_relaxed);
  cache_hits_.store(views.cache_hits, std::memory_order_relaxed);
  rejections_.store(views.rejections, std::memory_order_relaxed);
  uploaded_edges_.store(views.uploaded_edges, std::memory_order_relaxed);
  return std::move(views.entries);
}

void NoisyViewStore::VerifyRestored(std::span<const ViewRecord> records) {
  CNE_CHECK(digests_ != nullptr) << "verification needs the view digests";
  for (const ViewRecord& record : records) {
    if (record.state != ViewRecord::kStateMaterialized) continue;
    const LayeredVertex vertex = UnpackLayeredVertex(record.packed_vertex);
    const NoisyNeighborSet& view = View(vertex);
    if (view.Size() != record.size ||
        digests_->at(record.packed_vertex) != record.digest) {
      throw std::runtime_error(
          std::string("regenerated view of ") + LayerName(vertex.layer) +
          " vertex " + std::to_string(vertex.id) +
          " differs from the one released before the restart (size " +
          std::to_string(view.Size()) + " vs " +
          std::to_string(record.size) +
          "): a different graph, or a sampler that drew other bytes; "
          "serving it would release the vertex a second time");
    }
    uploaded_edges_.fetch_sub(record.size, std::memory_order_relaxed);
  }
}

void NoisyViewStore::RestoreAuthorized(uint64_t packed_vertex) {
  QueueRestored(packed_vertex, "WAL view authorization");
  // Mirror what the original Authorize counted, so cumulative stats keep
  // their meaning across restarts.
  lookups_.fetch_add(1, std::memory_order_relaxed);
  releases_.fetch_add(1, std::memory_order_relaxed);
}

void NoisyViewStore::RevokeAuthorized(LayeredVertex vertex) {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  LayerTable& table = Table(vertex.layer);
  CNE_CHECK(vertex.id < table.state.size()) << "vertex out of range";
  CNE_CHECK(table.state[vertex.id].load(std::memory_order_acquire) ==
            kAuthorizedPending)
      << "revocation of " << LayerName(vertex.layer) << " vertex "
      << vertex.id << " which is not authorized-pending — the release may "
      << "already be public and cannot be taken back";
  // The batch being rolled back authorized last, so its entries sit at
  // the tail of pending_; reverse-order revocation pops from the back.
  bool found = false;
  for (size_t i = pending_.size(); i-- > 0;) {
    if (pending_[i] == vertex) {
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
      found = true;
      break;
    }
  }
  CNE_CHECK(found) << "authorized-pending vertex missing from the pending "
                   << "list — store state is inconsistent";
  table.state[vertex.id].store(kUntouched, std::memory_order_release);
  lookups_.fetch_sub(1, std::memory_order_relaxed);
  releases_.fetch_sub(1, std::memory_order_relaxed);
}

std::unique_ptr<NoisyNeighborSet> NoisyViewStore::Generate(
    LayeredVertex vertex, DenseBitset storage) const {
  Rng rng = base_rng_.Fork(PackLayeredVertex(vertex));
  return std::make_unique<NoisyNeighborSet>(ApplyRandomizedResponse(
      graph_, vertex, epsilon_, rng, std::move(storage)));
}

void NoisyViewStore::Publish(LayeredVertex vertex,
                             std::unique_ptr<NoisyNeighborSet> view,
                             uint64_t digest) {
  uploaded_edges_.fetch_add(view->Size(), std::memory_order_relaxed);
  if (digests_ != nullptr) digests_->emplace(PackLayeredVertex(vertex), digest);
  LayerTable& table = Table(vertex.layer);
  table.view[vertex.id].store(view.release(), std::memory_order_release);
  table.state[vertex.id].store(kMaterialized, std::memory_order_release);
}

}  // namespace cne
