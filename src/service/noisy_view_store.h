// Shared store of noisy neighbor-list views.
//
// The privacy insight behind the whole service layer: once a vertex's
// ε-randomized-response release exists, it is *public*, and every
// estimate computed from it is privacy-free post-processing. The store
// therefore materializes each vertex's noisy view at most once per
// service lifetime and hands out const references — a second query
// touching the same vertex costs zero privacy and zero vertex-side work.
//
// Budget: every materialization charges the store's release budget ε to
// the vertex on the shared `BudgetLedger`; when the ledger refuses (the
// vertex has already spent its lifetime budget on earlier releases), the
// store rejects the release *before* any noise is drawn.
//
// Determinism: vertex v's view is generated from `base_rng.Fork(key(v))`,
// a pure function of the store seed and the vertex identity. Views are
// therefore byte-identical no matter which thread materializes them, in
// what order, or whether they were built lazily (`Get`) or in a parallel
// prefetch (`MaterializeAuthorized`).
//
// Storage: the vertex universe is fixed by the graph at construction, so
// per-vertex state lives in dense per-layer arrays — an atomic lifecycle
// byte and an atomic view pointer per vertex — instead of a sharded hash
// map. The hot paths (Contains, View, a cache-hit Authorize, Get of a
// built view) are single atomic loads with no locking or hashing; one
// mutex serializes only the rare transitions (first authorization, lazy
// builds, the pending list).

#ifndef CNE_SERVICE_NOISY_VIEW_STORE_H_
#define CNE_SERVICE_NOISY_VIEW_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "ldp/budget_ledger.h"
#include "ldp/comm_model.h"
#include "ldp/randomized_response.h"
#include "obs/metrics.h"
#include "store/snapshot_format.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cne {

/// Lazily materialized, budget-guarded cache of per-vertex noisy views.
/// All methods are thread-safe.
class NoisyViewStore {
 public:
  /// Outcome of an admission check for one vertex.
  enum class Admission {
    kCacheHit,    ///< view already authorized or materialized; no charge
    kAuthorized,  ///< ε charged; view will materialize on first use
    kRejected,    ///< ledger refused the charge; no release will happen
  };

  /// Cumulative counters over the store's lifetime. All integral: upload
  /// accounting is kept in edges end to end and converted to comm-model
  /// bytes exactly once, in UploadedBytes().
  struct Stats {
    uint64_t lookups = 0;         ///< Authorize/Get calls
    uint64_t releases = 0;        ///< vertices whose RR actually ran/will run
    uint64_t cache_hits = 0;      ///< lookups served by an existing view
    uint64_t rejections = 0;      ///< lookups refused by the ledger
    uint64_t uploaded_edges = 0;  ///< noisy edges uploaded by releases

    /// Fraction of lookups that needed no new release.
    double CacheHitRate() const {
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(cache_hits) / static_cast<double>(lookups);
    }

    /// Uploaded edges converted to bytes under `model`.
    double UploadedBytes(const CommModel& model = CommModel{}) const {
      return model.bytes_per_edge * static_cast<double>(uploaded_edges);
    }
  };

  /// Views are released from `graph` with budget `epsilon` each, charged
  /// to `ledger`. `base_rng` seeds the per-vertex noise substreams; the
  /// graph and ledger must outlive the store.
  NoisyViewStore(const BipartiteGraph& graph, double epsilon,
                 const Rng& base_rng, BudgetLedger& ledger);

  ~NoisyViewStore();

  NoisyViewStore(const NoisyViewStore&) = delete;
  NoisyViewStore& operator=(const NoisyViewStore&) = delete;

  /// Admits `vertex` for release without materializing it: charges the
  /// ledger on first touch, no-op on a repeat. Used by the query
  /// service's sequential admission pass so that accept/reject decisions
  /// are independent of thread count.
  Admission Authorize(LayeredVertex vertex);

  /// Bulk stats recording for lookups the caller already resolved as
  /// cache hits (via Contains): equivalent to `count` cache-hit Authorize
  /// calls, without paying per-call atomic traffic on the hot admission
  /// path.
  void RecordCacheHits(uint64_t count) {
    if (count == 0) return;
    lookups_.fetch_add(count, std::memory_order_relaxed);
    cache_hits_.fetch_add(count, std::memory_order_relaxed);
  }

  /// True if `vertex` has an authorized or materialized view.
  bool Contains(LayeredVertex vertex) const;

  /// Materializes every authorized-but-unbuilt view, fanning the RR
  /// sampling across `pool`. Bitmap word storage is allocated up front on
  /// the calling thread and only written by the pool: views live as long
  /// as the store, and storage carved from the pool threads' own malloc
  /// arenas would stay pinned in each arena after the store is gone, so a
  /// process opening store after store would hold the sum of the arenas'
  /// high-water marks rather than one store's footprint.
  void MaterializeAuthorized(ThreadPool& pool);

  /// Returns the view of `vertex`, authorizing and materializing it on
  /// first access; nullptr if the ledger rejects the release. The pointer
  /// stays valid for the store's lifetime. Standalone-store use only: the
  /// lazy first-touch charge is NOT write-ahead journaled, so a service
  /// with persistence must admit through Authorize (which the query
  /// service journals) and read through View — a Get-first-touch on a
  /// persistent service would spend budget that recovery forgets.
  const NoisyNeighborSet* Get(LayeredVertex vertex);

  /// Returns the already-materialized view of `vertex`; fatal check if it
  /// was never authorized or not yet materialized.
  const NoisyNeighborSet& View(LayeredVertex vertex) const;

  /// Randomized-response budget of each release.
  double epsilon() const { return epsilon_; }

  /// Installs a per-view build-latency histogram (nanoseconds per RR
  /// generation; null disables, the default). Set before views start
  /// materializing — the pointer is read without synchronization.
  void set_build_histogram(obs::LatencyHistogram* histogram) {
    build_histogram_ = histogram;
  }

  /// Installs a build-latency exemplar reservoir: the slowest view builds
  /// are retained with the released vertex (exemplar u == w == vertex id),
  /// the built size, and the SIMD level. Only effective when a build
  /// histogram is also installed (exemplars ride the same clocked
  /// samples). Same set-before-use contract as the histogram.
  void set_build_exemplars(obs::ExemplarReservoir* exemplars) {
    build_exemplars_ = exemplars;
  }

  /// Stamps subsequent build exemplars with the current submit sequence
  /// number. Called by the query service at each Submit; not synchronized
  /// against in-flight builds (builds happen inside the same Submit).
  void set_build_submit(uint64_t submit_id) { build_submit_ = submit_id; }

  Stats stats() const;

  // ---- persistence hooks (store/snapshot_format.h) ----
  //
  // A vertex's view is *public the moment it is released*: drawing it
  // again with fresh randomness after a restart would be a second
  // release — a privacy violation the ledger can no longer see. A
  // snapshot therefore records which vertices released, with each view's
  // size and digest, but never its bytes. Recovery regenerates every
  // recorded view from the vertex's own substream, which replays the
  // release the world already saw rather than making a second one, and
  // VerifyRestored proves that it did: a regenerated view that differs
  // from its record is refused. None of these may race with concurrent
  // store access — persistence runs between submissions.

  /// Packed vertex → ViewDigest of each materialized view, in (layer, id)
  /// order. Owned by the persistence state; a store without persistence
  /// keeps none.
  using Digests = std::map<uint64_t, uint64_t>;

  /// Makes the store record in `digests` the ViewDigest of every view it
  /// publishes, computed once by the thread that built the view, while it
  /// is still in cache. Set before the first release; Save and
  /// VerifyRestored require it.
  void set_digests(Digests* digests);

  /// Writes a views section: the store's ε, its cumulative stats, and one
  /// record per authorized or materialized vertex in (layer, id) order.
  void Save(ByteWriter& out) const;

  /// Restores a Save()d views section into this store, which must be
  /// freshly constructed over the same graph with the same ε: installs
  /// the cumulative counters and queues every recorded vertex, pending or
  /// materialized, for regeneration by the next MaterializeAuthorized (no
  /// ledger charges — the ledger is restored separately). Returns the
  /// records for VerifyRestored. Throws std::runtime_error on a malformed
  /// section, another ε, a vertex outside this graph, or a duplicate.
  std::vector<ViewRecord> Restore(ByteReader& in);

  /// Checks, once MaterializeAuthorized has regenerated them, every
  /// materialized record of `records` against its view — size and
  /// ViewDigest — and throws std::runtime_error naming the first vertex
  /// that differs. The regeneration replayed releases the restored
  /// counters already count, so their uploaded edges are taken back out.
  void VerifyRestored(std::span<const ViewRecord> records);

  /// Marks `vertex` (a PackLayeredVertex key) authorized without charging
  /// the ledger — the WAL replay path, where the ε charge replays as its
  /// own record. The view itself needs no payload: it regenerates
  /// byte-identically from the vertex's substream on the next
  /// materialization pass. Throws std::runtime_error on a vertex outside
  /// this graph or one already authorized.
  void RestoreAuthorized(uint64_t packed_vertex);

  /// Rolls back an Authorize whose journal record never became durable
  /// (the query service's unsealed-submit recovery): `vertex` must still
  /// be authorized-pending — revocation happens before any release phase
  /// runs, so no noise was drawn for it. Reverses Authorize's bookkeeping
  /// (lookup/release counters, the pending entry, the state byte); the
  /// ledger charge is restored separately. Must not race with concurrent
  /// store access.
  void RevokeAuthorized(LayeredVertex vertex);

 private:
  /// Per-vertex lifecycle, stored release-ordered so a reader seeing
  /// kMaterialized also sees the view pointer.
  enum VertexState : uint8_t {
    kUntouched = 0,
    kAuthorizedPending = 1,  ///< ε charged, view not built yet
    kMaterialized = 2,
  };

  /// Dense per-vertex state of one layer.
  struct LayerTable {
    std::vector<std::atomic<uint8_t>> state;
    std::vector<std::atomic<NoisyNeighborSet*>> view;  ///< owned
  };

  LayerTable& Table(Layer layer) {
    return tables_[static_cast<size_t>(layer)];
  }
  const LayerTable& Table(Layer layer) const {
    return tables_[static_cast<size_t>(layer)];
  }

  /// Marks a vertex key read from disk authorized-pending, queued for the
  /// next materialization pass. Throws std::runtime_error (prefixed with
  /// `source`) when the key names no vertex of this graph or one already
  /// authorized or materialized.
  void QueueRestored(uint64_t packed_vertex, const char* source);

  /// Generates vertex's noisy view from its dedicated substream, into
  /// `storage` (unwritten words over the release domain) when given.
  std::unique_ptr<NoisyNeighborSet> Generate(LayeredVertex vertex,
                                             DenseBitset storage = {}) const;

  /// Publishes a freshly built view (slow_mutex_ must be held) and
  /// records its upload and, when digests are kept, its `digest`.
  void Publish(LayeredVertex vertex, std::unique_ptr<NoisyNeighborSet> view,
               uint64_t digest);

  /// Offers one clocked build to the exemplar reservoir (no-op when none
  /// is installed or the build is faster than the admission floor).
  void OfferBuildExemplar(LayeredVertex vertex, const NoisyNeighborSet& view,
                          uint64_t nanos) const;

  const BipartiteGraph& graph_;
  const double epsilon_;
  const Rng base_rng_;
  BudgetLedger& ledger_;

  LayerTable tables_[2];  ///< indexed by Layer

  /// Serializes state transitions: first authorization, lazy builds, and
  /// the pending list. Never taken on the read fast paths.
  std::mutex slow_mutex_;
  std::vector<LayeredVertex> pending_;  ///< authorized, not yet built

  Digests* digests_ = nullptr;  ///< null = no persistence
  obs::LatencyHistogram* build_histogram_ = nullptr;  ///< null = off
  obs::ExemplarReservoir* build_exemplars_ = nullptr;  ///< null = off
  uint64_t build_submit_ = 0;  ///< submit id stamped on build exemplars

  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> rejections_{0};
  std::atomic<uint64_t> uploaded_edges_{0};
};

}  // namespace cne

#endif  // CNE_SERVICE_NOISY_VIEW_STORE_H_
