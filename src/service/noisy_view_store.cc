#include "service/noisy_view_store.h"

#include <utility>

#include "obs/trace.h"
#include "store/snapshot_format.h"
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
    storage[i] = AllocateRrStorage(graph_, batch[i], epsilon_);
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
      std::lock_guard<std::mutex> lock(slow_mutex_);
      if (table.state[vertex.id].load(std::memory_order_acquire) !=
          kMaterialized) {
        Publish(vertex, std::move(view));
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
  e.repr_u = view.IsBitmap() ? "bitmap" : "sorted";
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
  Publish(vertex, std::move(built));
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

void NoisyViewStore::Save(ByteWriter& out) const {
  ViewsSection views;
  views.epsilon = epsilon_;
  views.lookups = lookups_.load(std::memory_order_relaxed);
  views.releases = releases_.load(std::memory_order_relaxed);
  views.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  views.rejections = rejections_.load(std::memory_order_relaxed);
  views.uploaded_edges = uploaded_edges_.load(std::memory_order_relaxed);
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    const LayerTable& table = Table(layer);
    for (VertexId id = 0; id < table.state.size(); ++id) {
      const uint8_t state =
          table.state[id].load(std::memory_order_acquire);
      if (state == kUntouched) continue;
      ViewRecord record;
      record.packed_vertex = PackLayeredVertex({layer, id});
      record.state = state == kMaterialized
                         ? ViewRecord::kStateMaterialized
                         : ViewRecord::kStateAuthorizedPending;
      if (state == kMaterialized) {
        const NoisyNeighborSet* view =
            table.view[id].load(std::memory_order_acquire);
        CNE_CHECK(view != nullptr) << "materialized state without a view";
        record.rng_stream = record.packed_vertex;
        record.epsilon = epsilon_;
        record.flip_probability = view->flip_probability();
        record.domain = view->DomainSize();
        record.bitmap = view->IsBitmap();
        record.size = view->Size();
        if (view->IsBitmap()) {
          const auto words = view->View().bitmap().Words();
          record.words.assign(words.begin(), words.end());
        } else {
          record.members = view->SortedMembers();
        }
      }
      views.entries.push_back(std::move(record));
    }
  }
  WriteViewsSection(views, out);
}

void NoisyViewStore::Restore(ByteReader& in) {
  CNE_CHECK(lookups_.load(std::memory_order_relaxed) == 0 &&
            releases_.load(std::memory_order_relaxed) == 0)
      << "view restore requires a fresh store";
  ViewsSection views = ReadViewsSection(in);
  CNE_CHECK(views.epsilon == epsilon_)
      << "snapshot views were released at epsilon " << views.epsilon
      << ", store expects " << epsilon_;
  for (ViewRecord& record : views.entries) {
    const LayeredVertex vertex = UnpackLayeredVertex(record.packed_vertex);
    LayerTable& table = Table(vertex.layer);
    CNE_CHECK(vertex.id < table.state.size())
        << "snapshot vertex out of range for this graph";
    CNE_CHECK(table.state[vertex.id].load(std::memory_order_relaxed) ==
              kUntouched)
        << "duplicate snapshot entry for " << LayerName(vertex.layer)
        << " vertex " << vertex.id;
    if (record.state == ViewRecord::kStateAuthorizedPending) {
      pending_.push_back(vertex);
      table.state[vertex.id].store(kAuthorizedPending,
                                   std::memory_order_release);
      continue;
    }
    CNE_CHECK(record.rng_stream == record.packed_vertex)
        << "view stream id does not match its vertex";
    CNE_CHECK(record.domain ==
              graph_.NumVertices(Opposite(vertex.layer)))
        << "view domain does not match this graph";
    auto view = std::make_unique<NoisyNeighborSet>(
        record.bitmap
            ? NoisyNeighborSet(
                  DenseBitset::FromWords(std::move(record.words),
                                         record.domain),
                  record.flip_probability)
            : NoisyNeighborSet::FromSortedUnique(std::move(record.members),
                                                 record.domain,
                                                 record.flip_probability));
    CNE_CHECK(view->Size() == record.size)
        << "restored view size disagrees with its record";
    table.view[vertex.id].store(view.release(), std::memory_order_release);
    table.state[vertex.id].store(kMaterialized, std::memory_order_release);
  }
  // Counters come from the snapshot, not from the installs above: restore
  // is not a release, so nothing may be re-counted as uploaded.
  lookups_.store(views.lookups, std::memory_order_relaxed);
  releases_.store(views.releases, std::memory_order_relaxed);
  cache_hits_.store(views.cache_hits, std::memory_order_relaxed);
  rejections_.store(views.rejections, std::memory_order_relaxed);
  uploaded_edges_.store(views.uploaded_edges, std::memory_order_relaxed);
}

void NoisyViewStore::RestoreAuthorized(LayeredVertex vertex) {
  LayerTable& table = Table(vertex.layer);
  CNE_CHECK(vertex.id < table.state.size())
      << "WAL vertex out of range for this graph";
  CNE_CHECK(table.state[vertex.id].load(std::memory_order_relaxed) ==
            kUntouched)
      << "WAL re-authorizes " << LayerName(vertex.layer) << " vertex "
      << vertex.id << " — corrupt recovery input";
  // Mirror what the original Authorize counted, so cumulative stats keep
  // their meaning across restarts.
  lookups_.fetch_add(1, std::memory_order_relaxed);
  releases_.fetch_add(1, std::memory_order_relaxed);
  pending_.push_back(vertex);
  table.state[vertex.id].store(kAuthorizedPending,
                               std::memory_order_release);
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
      graph_, vertex, epsilon_, rng, RrStorage::kAuto, std::move(storage)));
}

void NoisyViewStore::Publish(LayeredVertex vertex,
                             std::unique_ptr<NoisyNeighborSet> view) {
  uploaded_edges_.fetch_add(view->Size(), std::memory_order_relaxed);
  LayerTable& table = Table(vertex.layer);
  table.view[vertex.id].store(view.release(), std::memory_order_release);
  table.state[vertex.id].store(kMaterialized, std::memory_order_release);
}

}  // namespace cne
