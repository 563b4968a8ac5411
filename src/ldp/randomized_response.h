// Warner randomized response over bipartite neighbor lists (Section 2.2).
//
// Given privacy budget ε, every bit of a vertex's neighbor list is flipped
// independently with probability p = 1 / (1 + e^ε): the release is the
// adjacency row XOR an iid Bernoulli(p) flip mask. Two exact samplers
// realize that law, one per storage mode:
//
//   * Bitmap (dense regime). The flip mask is built 64 lanes at a time
//     (BernoulliMaskWord): every lane compares its own 53-bit uniform
//     against the threshold t = ⌈p·2⁵³⌉ most significant bit first, and
//     one random word supplies the next bit of all 64 lanes at once, so a
//     word of mask costs ~7 draws instead of 64. Each lane's law is
//     exactly the per-bit test NextDouble() < p. The true neighbors are
//     then XORed in, O(n/64 + d) in all.
//   * Sorted (sparse regime). Each true neighbor survives with probability
//     1 - p, and the flipped-in non-neighbors are the successes of a
//     Bernoulli(p) process over the n - d non-neighbor positions, visited
//     in increasing order by Geometric(p) skip sampling: O(d + pn).
//
// At practical ε the noisy row is dense (expected density
// d/n (1-p) + (1-d/n) p ≥ p, ~27% at ε = 1), so the bitmap mode serves
// almost every release and intersections run through the word-AND and
// probe kernels of graph/set_ops.h. The choice is a pure function of
// (degree, domain, ε), so a release's representation is deterministic and
// identical across threads.
//
// The bytes a sampler releases for a given Rng state are versioned
// (kRrSamplerVersion): recovery regenerates authorized views from their
// RNG substream, so a change to them must bump the version.

#ifndef CNE_LDP_RANDOMIZED_RESPONSE_H_
#define CNE_LDP_RANDOMIZED_RESPONSE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/set_ops.h"
#include "util/rng.h"

namespace cne {

/// Version of the bytes the RR samplers release for a given Rng state.
/// Snapshots and WAL headers record it, and a service refuses to recover
/// state stamped with another version: regenerating an authorized view
/// under a different sampler would publish a second, different release of
/// a vertex whose answers already went out. Bump it with any change to
/// released bytes.
///   1  survivor pass + Binomial count + rejection/Floyd flip placement
///   2  word-parallel Bernoulli(p) mask XOR the adjacency row
inline constexpr uint32_t kRrSamplerVersion = 2;

/// Flip probability p = 1 / (1 + e^ε) of Warner's randomized response.
double FlipProbability(double epsilon);

/// 2⁵³: the resolution of NextDouble() and of BernoulliMaskWord lanes.
inline constexpr uint64_t kBernoulliOne = uint64_t{1} << 53;

/// The integer threshold t = ⌈p·2⁵³⌉ (p clamped to [0, 1]). For a 53-bit
/// uniform u = NextU64() >> 11, u < t exactly when NextDouble() < p.
uint64_t BernoulliThreshold(double p);

/// One word of 64 iid Bernoulli(t / 2⁵³) bits; `next()` yields uniform
/// 64-bit words. Lane i holds its own 53-bit uniform u_i, and the j-th
/// word drawn supplies bit 52 - j of every lane (word bit i → lane i).
/// Lanes compare u_i < t most significant bit first: where t has a 1, a
/// lane drawing 0 is decided "below" (output 1); where t has a 0, a lane
/// drawing 1 is decided "above" (output 0); otherwise it stays undecided.
/// Drawing stops once no lane is undecided, or past t's lowest set bit
/// (a lane still tied there has u_i ≥ t). Each draw settles half the open
/// lanes, so a word costs ~7 draws. Bit i of the result is exactly
/// [u_i < t] for the u_i the full 53 words would spell.
template <typename WordSource>
uint64_t BernoulliMaskWord(uint64_t threshold, WordSource&& next) {
  if (threshold >= kBernoulliOne) return ~uint64_t{0};
  if (threshold == 0) return 0;
  const int lowest = std::countr_zero(threshold);
  uint64_t below = 0;
  uint64_t undecided = ~uint64_t{0};
  for (int bit = 52; bit >= lowest; --bit) {
    const uint64_t r = next();
    // All-ones where t has a 1 at this position, else zero.
    const uint64_t t_bit = uint64_t{0} - ((threshold >> bit) & 1);
    below |= undecided & ~r & t_bit;
    undecided &= ~(r ^ t_bit);
    if (undecided == 0) break;
  }
  return below;
}

/// The noisy neighbor set of one vertex after randomized response: the set
/// of opposite-layer vertices whose noisy adjacency bit is 1. Stored either
/// as a sorted id vector (sparse regime) or a packed bitmap (dense regime);
/// consumers should intersect through View() and the set_ops dispatcher,
/// which picks the kernel from the representations.
class NoisyNeighborSet {
 public:
  NoisyNeighborSet() = default;

  /// Sorted-vector mode. `members` need not be sorted; `domain_size` is the
  /// size of the opposite layer (the length of the perturbed neighbor list).
  NoisyNeighborSet(std::vector<VertexId> members, VertexId domain_size,
                   double flip_probability);

  /// Bitmap mode; the domain is `bits.NumBits()`.
  NoisyNeighborSet(DenseBitset bits, double flip_probability);

  /// Sorted-vector mode from members already sorted and deduplicated
  /// (skips the O(k log k) sort of the general constructor).
  static NoisyNeighborSet FromSortedUnique(std::vector<VertexId> members,
                                           VertexId domain_size,
                                           double flip_probability);

  /// True if the noisy bit A'[v] is 1. O(1) in bitmap mode, O(log size)
  /// in sorted mode.
  bool Contains(VertexId v) const;

  /// Number of 1-bits in the noisy row (the vertex's noisy degree).
  size_t Size() const { return size_; }

  /// Size of the perturbed domain (opposite-layer vertex count).
  VertexId DomainSize() const { return domain_size_; }

  /// The flip probability the set was generated with.
  double flip_probability() const { return flip_probability_; }

  /// True when the set is stored as a packed bitmap.
  bool IsBitmap() const { return is_bitmap_; }

  /// Representation-agnostic view for the set_ops intersection dispatcher.
  SetView View() const;

  /// Sorted members of a sorted-mode set; fatal check in bitmap mode
  /// (use ToSortedVector there). Kept for the sparse-regime consumers and
  /// tests that want zero-copy access.
  const std::vector<VertexId>& SortedMembers() const;

  /// Materializes the sorted member list in either mode (decoding a bitmap
  /// yields ascending ids without sorting).
  std::vector<VertexId> ToSortedVector() const;

 private:
  std::vector<VertexId> members_;  // sorted; empty in bitmap mode
  DenseBitset bits_;               // empty in sorted mode
  uint64_t size_ = 0;
  VertexId domain_size_ = 0;
  double flip_probability_ = 0.0;
  bool is_bitmap_ = false;
};

/// Storage-mode override for ApplyRandomizedResponse. kAuto picks the
/// bitmap when the expected noisy row is dense (UseBitmapStorage); the
/// explicit hints pin a representation, for tests and benchmarks.
enum class RrStorage { kAuto, kSorted, kBitmap };

/// Expected-density threshold at and above which kAuto packs the release
/// into a bitmap. Set at the intersection-cost crossover (near density
/// 1/128, where the word kernels overtake the merge family): the old
/// 1/16 memory-halving threshold left mid-density releases (e.g. 0.01 at
/// ε≈3) in sorted vectors, forcing the dispatcher through a 2.4×-slower
/// merge where the bitmap kernels — now SIMD — win outright
/// (BENCH_intersect.json, 0.01×0.01 cell). Memory still favors the
/// bitmap here: n/8 bytes vs 4 bytes/id breaks even at density 1/32,
/// and below that the bitmap costs at most 4× the sorted row — bounded,
/// and bought back many times over on the query path.
inline constexpr double kBitmapDensityThreshold = 1.0 / 128.0;

/// Domains smaller than one bitmap word stay sorted under kAuto: there is
/// nothing to win and the sorted path keeps the tiny-domain distribution
/// tests on the code path their name promises.
inline constexpr VertexId kBitmapMinDomain = 64;

/// True when kAuto stores the ε-release of a degree-`degree` vertex over
/// `domain` opposite vertices as a bitmap. Pure function of its arguments:
/// representation choice is deterministic across threads and runs.
bool UseBitmapStorage(uint64_t degree, VertexId domain, double epsilon);

/// Applies ε-randomized response to the neighbor list of `vertex` and
/// returns its noisy neighbor set. Exactly distributed as bit-by-bit RR in
/// both storage modes; `storage` only changes the representation (and the
/// RNG draw sequence), never the output distribution.
///
/// `bitmap_storage` is optional storage from AllocateRrStorage (same
/// graph, vertex, ε and `storage`): a bitmap release writes into it
/// instead of allocating, and overwrites its contents, so the released
/// bytes do not depend on it. Passing non-empty storage to a release
/// that is not a bitmap is a fatal check.
NoisyNeighborSet ApplyRandomizedResponse(const BipartiteGraph& graph,
                                         LayeredVertex vertex, double epsilon,
                                         Rng& rng,
                                         RrStorage storage = RrStorage::kAuto,
                                         DenseBitset bitmap_storage = {});

/// The storage ApplyRandomizedResponse would allocate for this release:
/// unwritten words over the domain when the release is a bitmap, else
/// empty (a sorted release sizes its own vector). Lets a caller choose the
/// thread that allocates a release that another thread then writes.
DenseBitset AllocateRrStorage(const BipartiteGraph& graph,
                              LayeredVertex vertex, double epsilon,
                              RrStorage storage = RrStorage::kAuto);

/// Reference O(n) implementation that flips every bit explicitly with one
/// Bernoulli(p) draw each. Used by tests to validate the sparse and bitmap
/// samplers; do not call on large layers.
NoisyNeighborSet ApplyRandomizedResponseDense(const BipartiteGraph& graph,
                                              LayeredVertex vertex,
                                              double epsilon, Rng& rng);

/// Expected number of noisy edges produced by ε-RR on a vertex of degree d
/// with opposite layer size n: d(1-p) + (n-d)p.
double ExpectedNoisyDegree(double degree, double opposite_size,
                           double epsilon);

/// Shared reserve() sizing for noisy-member vectors: the expected noisy
/// degree plus slack, capped at the domain.
size_t NoisyDegreeReserveHint(uint64_t degree, VertexId domain,
                              double epsilon);

}  // namespace cne

#endif  // CNE_LDP_RANDOMIZED_RESPONSE_H_
