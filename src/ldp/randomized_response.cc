#include "ldp/randomized_response.h"

#include <algorithm>
#include <cassert>
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

NoisyNeighborSet::NoisyNeighborSet(std::vector<VertexId> members,
                                   VertexId domain_size,
                                   double flip_probability)
    : members_(std::move(members)),
      domain_size_(domain_size),
      flip_probability_(flip_probability) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
  size_ = members_.size();
  CNE_CHECK(members_.empty() || members_.back() < domain_size_)
      << "noisy member outside domain";
}

NoisyNeighborSet::NoisyNeighborSet(DenseBitset bits, double flip_probability)
    : bits_(std::move(bits)),
      size_(bits_.Count()),
      domain_size_(bits_.NumBits()),
      flip_probability_(flip_probability),
      is_bitmap_(true) {}

NoisyNeighborSet NoisyNeighborSet::FromSortedUnique(
    std::vector<VertexId> members, VertexId domain_size,
    double flip_probability) {
#ifndef NDEBUG
  assert(std::is_sorted(members.begin(), members.end()));
  assert(std::adjacent_find(members.begin(), members.end()) ==
         members.end());
#endif
  NoisyNeighborSet set;
  set.members_ = std::move(members);
  set.size_ = set.members_.size();
  set.domain_size_ = domain_size;
  set.flip_probability_ = flip_probability;
  CNE_CHECK(set.members_.empty() || set.members_.back() < domain_size)
      << "noisy member outside domain";
  return set;
}

bool NoisyNeighborSet::Contains(VertexId v) const {
  if (is_bitmap_) return v < bits_.NumBits() && bits_.Test(v);
  return std::binary_search(members_.begin(), members_.end(), v);
}

SetView NoisyNeighborSet::View() const {
  if (is_bitmap_) return SetView::Bitmap(bits_, size_);
  return SetView::Sorted(members_);
}

const std::vector<VertexId>& NoisyNeighborSet::SortedMembers() const {
  CNE_CHECK(!is_bitmap_)
      << "SortedMembers() on a bitmap-mode set; use ToSortedVector()";
  return members_;
}

std::vector<VertexId> NoisyNeighborSet::ToSortedVector() const {
  if (is_bitmap_) return bits_.ToSortedVector(size_);
  return members_;
}

bool UseBitmapStorage(uint64_t degree, VertexId domain, double epsilon) {
  if (domain < kBitmapMinDomain) return false;
  const double expected = ExpectedNoisyDegree(
      static_cast<double>(degree), static_cast<double>(domain), epsilon);
  return expected >= kBitmapDensityThreshold * static_cast<double>(domain);
}

namespace {

// Sparse-regime sampler: sorted-vector release in O(d + pn) expected.
NoisyNeighborSet SampleSorted(std::span<const VertexId> neighbors,
                              VertexId domain, double p, double epsilon,
                              Rng& rng) {
  const uint64_t degree = neighbors.size();
  std::vector<VertexId> members;
  members.reserve(NoisyDegreeReserveHint(degree, domain, epsilon));

  // True neighbors survive independently with probability 1 - p; the
  // adjacency list is sorted, so the survivors come out sorted.
  for (VertexId v : neighbors) {
    if (!rng.Bernoulli(p)) members.push_back(v);
  }
  const auto survivors_end =
      static_cast<std::vector<VertexId>::difference_type>(members.size());

  // Non-neighbors flip in independently with probability p. Visit the
  // flipped positions of [0, n - d) in increasing order directly:
  // successive gaps of a Bernoulli(p) process are iid Geometric(p), so
  // skip sampling emits the positions as sorted order statistics — no
  // post-hoc sort, and the count is Binomial(n - d, p) by construction.
  const uint64_t num_non_neighbors = static_cast<uint64_t>(domain) - degree;
  if (num_non_neighbors > 0) {
    size_t ni = 0;  // index into sorted true neighbors
    uint64_t q = rng.Geometric(p);
    while (q < num_non_neighbors) {
      // Map the q-th non-neighbor position to a vertex id: adding the
      // neighbors below shifts the candidate upward. Positions only grow,
      // so the cursor sweep is a single linear merge overall.
      VertexId candidate = static_cast<VertexId>(q + ni);
      while (ni < neighbors.size() && neighbors[ni] <= candidate) {
        ++ni;
        ++candidate;
      }
      members.push_back(candidate);
      // Advance to the next flipped position; the window check before the
      // addition keeps a near-p-0 gap (up to UINT64_MAX) from overflowing.
      const uint64_t gap = rng.Geometric(p);
      if (gap >= num_non_neighbors - q - 1) break;
      q += 1 + gap;
    }
  }

  // Survivors and flipped-in ids are two sorted disjoint runs.
  std::inplace_merge(members.begin(), members.begin() + survivors_end,
                     members.end());
  return NoisyNeighborSet::FromSortedUnique(std::move(members), domain, p);
}

// Dense-regime sampler: the release is the adjacency row XOR an iid
// Bernoulli(p) flip mask, built a word at a time into `bits` (storage over
// the domain, contents overwritten). O(n/64 + d).
NoisyNeighborSet SampleBitmap(DenseBitset bits,
                              std::span<const VertexId> neighbors, double p,
                              Rng& rng) {
  const VertexId domain = bits.NumBits();
  const std::span<uint64_t> words = bits.MutableWords();
  const uint64_t threshold = BernoulliThreshold(p);
  for (uint64_t& word : words) {
    word = BernoulliMaskWord(threshold, [&rng] { return rng.NextU64(); });
  }
  // Lanes past the domain were drawn (keeping the stream a function of the
  // word count) but are not part of the release.
  if (domain % 64 != 0) words.back() &= (uint64_t{1} << (domain % 64)) - 1;
  for (VertexId v : neighbors) words[v >> 6] ^= uint64_t{1} << (v & 63);
  return NoisyNeighborSet(std::move(bits), p);
}

// The one place a release's representation is decided.
bool ReleasesBitmap(const BipartiteGraph& graph, LayeredVertex vertex,
                    double epsilon, RrStorage storage) {
  if (storage != RrStorage::kAuto) return storage == RrStorage::kBitmap;
  return UseBitmapStorage(graph.Degree(vertex),
                          graph.NumVertices(Opposite(vertex.layer)), epsilon);
}

}  // namespace

NoisyNeighborSet ApplyRandomizedResponse(const BipartiteGraph& graph,
                                         LayeredVertex vertex, double epsilon,
                                         Rng& rng, RrStorage storage,
                                         DenseBitset bitmap_storage) {
  const double p = FlipProbability(epsilon);
  const auto neighbors = graph.Neighbors(vertex);
  const VertexId domain = graph.NumVertices(Opposite(vertex.layer));
  if (!ReleasesBitmap(graph, vertex, epsilon, storage)) {
    CNE_CHECK(bitmap_storage.NumBits() == 0)
        << "bitmap storage passed for a sorted release";
    return SampleSorted(neighbors, domain, p, epsilon, rng);
  }
  if (bitmap_storage.NumBits() == 0) {
    bitmap_storage = DenseBitset::Uninitialized(domain);
  }
  CNE_CHECK(bitmap_storage.NumBits() == domain)
      << "bitmap storage does not span the release domain";
  return SampleBitmap(std::move(bitmap_storage), neighbors, p, rng);
}

DenseBitset AllocateRrStorage(const BipartiteGraph& graph,
                              LayeredVertex vertex, double epsilon,
                              RrStorage storage) {
  if (!ReleasesBitmap(graph, vertex, epsilon, storage)) return DenseBitset();
  return DenseBitset::Uninitialized(graph.NumVertices(Opposite(vertex.layer)));
}

NoisyNeighborSet ApplyRandomizedResponseDense(const BipartiteGraph& graph,
                                              LayeredVertex vertex,
                                              double epsilon, Rng& rng) {
  const double p = FlipProbability(epsilon);
  const VertexId domain = graph.NumVertices(Opposite(vertex.layer));
  const auto neighbors = graph.Neighbors(vertex);
  std::unordered_set<VertexId> neighbor_set(neighbors.begin(),
                                            neighbors.end());
  std::vector<VertexId> members;
  members.reserve(NoisyDegreeReserveHint(neighbors.size(), domain, epsilon));
  for (VertexId v = 0; v < domain; ++v) {
    const bool bit = neighbor_set.count(v) > 0;
    const bool noisy_bit = rng.Bernoulli(p) ? !bit : bit;
    if (noisy_bit) members.push_back(v);
  }
  return NoisyNeighborSet(std::move(members), domain, p);
}

double ExpectedNoisyDegree(double degree, double opposite_size,
                           double epsilon) {
  const double p = FlipProbability(epsilon);
  return degree * (1.0 - p) + (opposite_size - degree) * p;
}

size_t NoisyDegreeReserveHint(uint64_t degree, VertexId domain,
                              double epsilon) {
  const double expected = ExpectedNoisyDegree(
      static_cast<double>(degree), static_cast<double>(domain), epsilon);
  return static_cast<size_t>(
      std::min(expected * 1.2 + 16.0, static_cast<double>(domain)));
}

}  // namespace cne
