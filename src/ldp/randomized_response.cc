#include "ldp/randomized_response.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace cne {

double FlipProbability(double epsilon) {
  CNE_CHECK(epsilon > 0.0) << "privacy budget must be positive";
  return 1.0 / (1.0 + std::exp(epsilon));
}

uint64_t BernoulliThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kBernoulliOne;
  // p·2⁵³ is exact (a power-of-two scale), and for an integer u,
  // u < p·2⁵³ exactly when u < ⌈p·2⁵³⌉.
  return static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(kBernoulliOne)));
}

NoisyNeighborSet::NoisyNeighborSet(const std::vector<VertexId>& members,
                                   VertexId domain_size,
                                   double flip_probability)
    : bits_(domain_size), flip_probability_(flip_probability) {
  for (VertexId v : members) {
    CNE_CHECK(v < domain_size) << "noisy member outside domain";
    bits_.Set(v);
  }
  size_ = bits_.Count();
}

NoisyNeighborSet::NoisyNeighborSet(DenseBitset bits, double flip_probability)
    : bits_(std::move(bits)),
      size_(bits_.Count()),
      flip_probability_(flip_probability) {}

std::vector<VertexId> NoisyNeighborSet::SortedMembers() const {
  return bits_.ToSortedVector(size_);
}

NoisyNeighborSet ApplyRandomizedResponse(const BipartiteGraph& graph,
                                         LayeredVertex vertex, double epsilon,
                                         Rng& rng, DenseBitset storage) {
  const double p = FlipProbability(epsilon);
  const VertexId domain = graph.NumVertices(Opposite(vertex.layer));
  if (storage.NumBits() == 0) storage = DenseBitset::Uninitialized(domain);
  CNE_CHECK(storage.NumBits() == domain)
      << "release storage does not span the release domain";
  // The release is the adjacency row XOR an iid Bernoulli(p) flip mask,
  // built a word at a time over the storage (contents overwritten).
  const std::span<uint64_t> words = storage.MutableWords();
  const uint64_t threshold = BernoulliThreshold(p);
  for (uint64_t& word : words) {
    word = BernoulliMaskWord(threshold, [&rng] { return rng.NextU64(); });
  }
  // Lanes past the domain were drawn (keeping the stream a function of the
  // word count) but are not part of the release.
  if (domain % 64 != 0) words.back() &= (uint64_t{1} << (domain % 64)) - 1;
  for (VertexId v : graph.Neighbors(vertex)) {
    words[v >> 6] ^= uint64_t{1} << (v & 63);
  }
  return NoisyNeighborSet(std::move(storage), p);
}

NoisyNeighborSet ApplyRandomizedResponseDense(const BipartiteGraph& graph,
                                              LayeredVertex vertex,
                                              double epsilon, Rng& rng) {
  const double p = FlipProbability(epsilon);
  const VertexId domain = graph.NumVertices(Opposite(vertex.layer));
  const auto neighbors = graph.Neighbors(vertex);
  std::unordered_set<VertexId> neighbor_set(neighbors.begin(),
                                            neighbors.end());
  DenseBitset bits(domain);
  for (VertexId v = 0; v < domain; ++v) {
    const bool bit = neighbor_set.count(v) > 0;
    const bool noisy_bit = rng.Bernoulli(p) ? !bit : bit;
    if (noisy_bit) bits.Set(v);
  }
  return NoisyNeighborSet(std::move(bits), p);
}

double ExpectedNoisyDegree(double degree, double opposite_size,
                           double epsilon) {
  const double p = FlipProbability(epsilon);
  return degree * (1.0 - p) + (opposite_size - degree) * p;
}

}  // namespace cne
