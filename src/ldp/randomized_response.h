// Warner randomized response over bipartite neighbor lists (Section 2.2).
//
// Given privacy budget ε, every bit of a vertex's neighbor list is flipped
// independently with probability p = 1 / (1 + e^ε): the release is the
// adjacency row XOR an iid Bernoulli(p) flip mask, stored as a packed
// bitmap over the opposite layer. The flip mask is built 64 lanes at a
// time (BernoulliMaskWord): every lane compares its own 53-bit uniform
// against the threshold t = ⌈p·2⁵³⌉ most significant bit first, and one
// random word supplies the next bit of all 64 lanes at once, so a word of
// mask costs ~7 draws at ε = 1 instead of 64. Each lane's law is exactly
// the per-bit test NextDouble() < p. The true neighbors are then XORed
// in, O(n/64 + d) in all.
//
// At the paper's ε (1 to 3) the noisy row is dense (expected density
// d/n (1-p) + (1-d/n) p ≥ p, ~27% at ε = 1), and intersections run
// through the word-AND and probe kernels of graph/set_ops.h. A view costs
// n/8 bytes at every ε.
//
// The bytes the sampler releases for a given Rng state are versioned
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

/// Version of the bytes the RR sampler releases for a given Rng state.
/// Snapshots and WAL headers record it, and a service refuses to recover
/// state stamped with another version: regenerating an authorized view
/// under a different sampler would publish a second, different release of
/// a vertex whose answers already went out. Bump it with any change to
/// released bytes.
///   1  survivor pass + Binomial count + rejection/Floyd flip placement
///   2  word-parallel Bernoulli(p) mask XOR the adjacency row for dense
///      releases, skip-sampled sorted ids below density 1/128
///   3  the word-parallel bitmap for every release (version 2's bitmap
///      bytes unchanged)
inline constexpr uint32_t kRrSamplerVersion = 3;

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
/// of opposite-layer vertices whose noisy adjacency bit is 1, stored as a
/// packed bitmap over the opposite layer. Consumers intersect through
/// View() and the set_ops dispatcher.
class NoisyNeighborSet {
 public:
  NoisyNeighborSet() = default;

  /// Packs `members` (any order, duplicates allowed) into a bitmap over
  /// [0, domain_size), the size of the opposite layer. For test fixtures.
  NoisyNeighborSet(const std::vector<VertexId>& members, VertexId domain_size,
                   double flip_probability);

  /// The domain is `bits.NumBits()`.
  NoisyNeighborSet(DenseBitset bits, double flip_probability);

  /// True if the noisy bit A'[v] is 1.
  bool Contains(VertexId v) const {
    return v < bits_.NumBits() && bits_.Test(v);
  }

  /// Number of 1-bits in the noisy row (the vertex's noisy degree).
  size_t Size() const { return size_; }

  /// Size of the perturbed domain (opposite-layer vertex count).
  VertexId DomainSize() const { return bits_.NumBits(); }

  /// The flip probability the set was generated with.
  double flip_probability() const { return flip_probability_; }

  /// Always true; kept for perfbench's `ldp.rr.bitmap_share`.
  bool IsBitmap() const { return true; }

  /// The bitmap as a set_ops dispatcher operand.
  SetView View() const { return SetView::Bitmap(bits_, size_); }

  /// The members in ascending id order, decoded from the bitmap.
  std::vector<VertexId> SortedMembers() const;

 private:
  DenseBitset bits_;
  uint64_t size_ = 0;
  double flip_probability_ = 0.0;
};

/// Applies ε-randomized response to the neighbor list of `vertex` and
/// returns its noisy neighbor set, exactly distributed as bit-by-bit RR.
///
/// `storage` is optional: unwritten words over the release domain (the
/// opposite layer), e.g. DenseBitset::Uninitialized, which the release
/// overwrites instead of allocating, so the released bytes do not depend
/// on it. Lets a caller choose the thread that allocates a release that
/// another thread then writes. Storage over another domain is a fatal
/// check.
NoisyNeighborSet ApplyRandomizedResponse(const BipartiteGraph& graph,
                                         LayeredVertex vertex, double epsilon,
                                         Rng& rng, DenseBitset storage = {});

/// Reference O(n) implementation that flips every bit explicitly with one
/// Bernoulli(p) draw each. Used by tests to validate the word-parallel
/// sampler; do not call on large layers.
NoisyNeighborSet ApplyRandomizedResponseDense(const BipartiteGraph& graph,
                                              LayeredVertex vertex,
                                              double epsilon, Rng& rng);

/// Expected number of noisy edges produced by ε-RR on a vertex of degree d
/// with opposite layer size n: d(1-p) + (n-d)p.
double ExpectedNoisyDegree(double degree, double opposite_size,
                           double epsilon);

}  // namespace cne

#endif  // CNE_LDP_RANDOMIZED_RESPONSE_H_
