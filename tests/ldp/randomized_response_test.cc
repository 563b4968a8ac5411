#include "ldp/randomized_response.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "util/statistics.h"

namespace cne {
namespace {

TEST(FlipProbabilityTest, KnownValues) {
  EXPECT_NEAR(FlipProbability(std::log(3.0)), 0.25, 1e-12);
  EXPECT_NEAR(FlipProbability(1.0), 1.0 / (1.0 + std::exp(1.0)), 1e-12);
  // Larger budget -> smaller flip probability, always below 1/2.
  EXPECT_LT(FlipProbability(3.0), FlipProbability(1.0));
  EXPECT_LT(FlipProbability(0.01), 0.5);
  EXPECT_GT(FlipProbability(0.01), 0.49);
}

TEST(NoisyNeighborSetTest, SortsAndDeduplicates) {
  NoisyNeighborSet set({5, 1, 3, 1}, 10, 0.2);
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.DomainSize(), 10u);
}

TEST(NoisyNeighborSetTest, EmptySet) {
  NoisyNeighborSet set({}, 10, 0.2);
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_FALSE(set.Contains(0));
}

class RrStatisticalTest : public ::testing::Test {
 protected:
  // u0 has neighbors {0..9} among 100 lower vertices.
  BipartiteGraph MakeGraph() {
    GraphBuilder b(1, 100);
    for (VertexId l = 0; l < 10; ++l) b.AddEdge(0, l);
    return b.Build();
  }
};

TEST_F(RrStatisticalTest, PerBitFlipRateMatchesP) {
  const BipartiteGraph g = MakeGraph();
  const double epsilon = 1.0;
  const double p = FlipProbability(epsilon);
  Rng rng(123);
  const int trials = 3000;
  int kept_ones = 0;     // true neighbor survives
  int flipped_zeros = 0; // non-neighbor appears
  for (int t = 0; t < trials; ++t) {
    const NoisyNeighborSet noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng);
    for (VertexId l = 0; l < 10; ++l) kept_ones += noisy.Contains(l);
    for (VertexId l = 10; l < 100; ++l) flipped_zeros += noisy.Contains(l);
  }
  const double keep_rate = static_cast<double>(kept_ones) / (trials * 10.0);
  const double flip_rate =
      static_cast<double>(flipped_zeros) / (trials * 90.0);
  EXPECT_NEAR(keep_rate, 1.0 - p, 0.01);
  EXPECT_NEAR(flip_rate, p, 0.01);
}

TEST_F(RrStatisticalTest, ExpectedNoisyDegreeFormula) {
  const BipartiteGraph g = MakeGraph();
  const double epsilon = 2.0;
  Rng rng(11);
  RunningStats sizes;
  for (int t = 0; t < 5000; ++t) {
    sizes.Add(static_cast<double>(
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng).Size()));
  }
  const double expected = ExpectedNoisyDegree(10, 100, epsilon);
  EXPECT_NEAR(sizes.Mean(), expected, 5 * sizes.StdError());
}

TEST(RrEdgeCasesTest, FullNeighborhood) {
  // Every lower vertex is a neighbor: no zero bits to flip in.
  const BipartiteGraph g = CompleteBipartite(1, 50);
  Rng rng(13);
  const auto noisy =
      ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 2.0, rng);
  EXPECT_LE(noisy.Size(), 50u);
  // All members must lie in the domain.
  for (VertexId v : noisy.SortedMembers()) EXPECT_LT(v, 50u);
}

TEST(RrEdgeCasesTest, EmptyNeighborhood) {
  GraphBuilder b(2, 50);
  b.AddEdge(1, 0);  // u0 isolated
  const BipartiteGraph g = b.Build();
  Rng rng(17);
  RunningStats sizes;
  const double epsilon = 1.0;
  for (int t = 0; t < 2000; ++t) {
    sizes.Add(static_cast<double>(
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng).Size()));
  }
  const double p = FlipProbability(epsilon);
  EXPECT_NEAR(sizes.Mean(), 50 * p, 5 * sizes.StdError());
}

TEST(RrEdgeCasesTest, LowerLayerVertexPerturbsUpperDomain) {
  GraphBuilder b(30, 3);
  b.AddEdge(0, 1).AddEdge(5, 1).AddEdge(29, 1);
  const BipartiteGraph g = b.Build();
  Rng rng(19);
  const auto noisy =
      ApplyRandomizedResponse(g, {Layer::kLower, 1}, 2.0, rng);
  EXPECT_EQ(noisy.DomainSize(), 30u);
  for (VertexId v : noisy.SortedMembers()) EXPECT_LT(v, 30u);
}

TEST(RrPositionMappingTest, FlippedInVerticesAreNeverTrueNeighborsArtifact) {
  // Over many seeds, the decoded members of a release with every other id
  // a neighbor are strictly ascending and exactly as many as its size: no
  // flipped-in id duplicates a surviving neighbor.
  GraphBuilder b(1, 20);
  for (VertexId l = 0; l < 20; l += 2) b.AddEdge(0, l);  // evens
  const BipartiteGraph g = b.Build();
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const auto noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 0.5, rng);
    const std::vector<VertexId> m = noisy.SortedMembers();
    EXPECT_EQ(m.size(), noisy.Size());
    for (size_t i = 1; i < m.size(); ++i) EXPECT_LT(m[i - 1], m[i]);
  }
}

TEST(BitmapModeTest, ViewContainsAndSortedMembersAgree) {
  GraphBuilder b(1, 130);  // domain not a multiple of 64
  for (VertexId l = 0; l < 130; l += 3) b.AddEdge(0, l);
  const BipartiteGraph g = b.Build();
  Rng rng(31);
  for (int t = 0; t < 50; ++t) {
    const auto noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 1.0, rng);
    EXPECT_EQ(noisy.DomainSize(), 130u);
    const std::vector<VertexId> members = noisy.SortedMembers();
    EXPECT_EQ(members.size(), noisy.Size());
    // Strictly ascending, in domain, consistent with Contains().
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(members[i - 1], members[i]);
      }
      EXPECT_LT(members[i], 130u);
      EXPECT_TRUE(noisy.Contains(members[i]));
    }
    size_t contained = 0;
    for (VertexId v = 0; v < 130; ++v) contained += noisy.Contains(v);
    EXPECT_EQ(contained, noisy.Size());
  }
}

TEST(BitmapModeTest, TinyDomainDistributionMatchesAnalyticRr) {
  // Releases over an enumerable domain (3 ids, under one word): the
  // empirical distribution must match the exact per-bit RR law outcome by
  // outcome, i.e. the direct-to-words writer realizes the proven mechanism.
  GraphBuilder b(1, 3);
  b.AddEdge(0, 0).AddEdge(0, 2);
  const BipartiteGraph g = b.Build();
  const std::vector<int> truth = {1, 0, 1};
  const double epsilon = 1.0;
  const double p = FlipProbability(epsilon);
  const int trials = 200000;
  std::array<int, 8> observed{};
  Rng rng(47);
  for (int t = 0; t < trials; ++t) {
    const auto noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng);
    int mask = 0;
    for (int bit = 0; bit < 3; ++bit) {
      if (noisy.Contains(static_cast<VertexId>(bit))) mask |= 1 << bit;
    }
    ++observed[mask];
  }
  for (int mask = 0; mask < 8; ++mask) {
    double expected = 1.0;
    for (int bit = 0; bit < 3; ++bit) {
      const int out = (mask >> bit) & 1;
      expected *= (out == truth[static_cast<size_t>(bit)]) ? (1.0 - p) : p;
    }
    const double freq = static_cast<double>(observed[mask]) / trials;
    const double se = std::sqrt(expected * (1 - expected) / trials);
    EXPECT_NEAR(freq, expected, 5 * se + 1e-4) << "outcome " << mask;
  }
}

TEST(BitmapModeTest, MatchesDenseReferenceDistribution) {
  // Releases against the O(n) bit-by-bit reference, on a domain that is
  // not a multiple of 64: noisy-degree moments and per-bit marginals must
  // agree.
  GraphBuilder b(1, 100);
  for (VertexId l = 0; l < 10; ++l) b.AddEdge(0, l);
  const BipartiteGraph g = b.Build();
  const double epsilon = 1.0;
  Rng rng_bitmap(7), rng_dense(8);
  RunningStats bitmap_sizes, dense_sizes;
  std::vector<int> bitmap_hits(100, 0), dense_hits(100, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto bitmap =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng_bitmap);
    const auto dense = ApplyRandomizedResponseDense(g, {Layer::kUpper, 0},
                                                    epsilon, rng_dense);
    bitmap_sizes.Add(static_cast<double>(bitmap.Size()));
    dense_sizes.Add(static_cast<double>(dense.Size()));
    for (VertexId l = 0; l < 100; ++l) {
      bitmap_hits[l] += bitmap.Contains(l);
      dense_hits[l] += dense.Contains(l);
    }
  }
  EXPECT_NEAR(bitmap_sizes.Mean(), dense_sizes.Mean(),
              4 * (bitmap_sizes.StdError() + dense_sizes.StdError()));
  for (VertexId l = 0; l < 100; ++l) {
    const double pb = static_cast<double>(bitmap_hits[l]) / trials;
    const double pd = static_cast<double>(dense_hits[l]) / trials;
    const double se = std::sqrt(0.25 / trials);
    EXPECT_NEAR(pb, pd, 10 * se) << "bit " << l;
  }
}

TEST(BitmapModeTest, IntoCallerStorageIsTheSameRelease) {
  // Caller storage with stale contents must not leak into the release:
  // the release equals a plain one word for word, on ragged and whole-word
  // domains, from a single id up, at the paper's ε and far above it.
  for (const VertexId domain : {1u, 4u, 63u, 64u, 65u, 130u}) {
    GraphBuilder b(1, domain);
    for (VertexId l = 0; l < domain; l += 5) b.AddEdge(0, l);
    const BipartiteGraph g = b.Build();
    for (const double epsilon : {1.0, 6.0, 8.0}) {
      DenseBitset stale(domain);
      for (VertexId v = 0; v < domain; v += 2) stale.Set(v);
      Rng rng_fresh(77), rng_into(77);
      const auto fresh =
          ApplyRandomizedResponse(g, {Layer::kUpper, 0}, epsilon, rng_fresh);
      const auto into = ApplyRandomizedResponse(
          g, {Layer::kUpper, 0}, epsilon, rng_into, std::move(stale));
      EXPECT_TRUE(std::ranges::equal(fresh.View().bitmap().Words(),
                                     into.View().bitmap().Words()))
          << "domain " << domain << ", ε = " << epsilon;
      EXPECT_EQ(fresh.Size(), into.Size());
      EXPECT_EQ(rng_fresh.NextU64(), rng_into.NextU64());
    }
  }
}

TEST(BitmapModeDeathTest, StorageOverAnotherDomainDies) {
  GraphBuilder b(1, 100);
  b.AddEdge(0, 0);
  const BipartiteGraph g = b.Build();
  Rng rng(6);
  EXPECT_DEATH(ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 1.0, rng,
                                       DenseBitset(128)),
               "release domain");
}

// ---- The 64-lane comparator, checked exactly on scripted words ----

// Replays a fixed word script and counts how much of it was consumed.
class ScriptedWords {
 public:
  explicit ScriptedWords(std::vector<uint64_t> words)
      : words_(std::move(words)) {}
  uint64_t operator()() {
    EXPECT_LT(used_, words_.size()) << "drew past the 53 bit positions";
    return used_ < words_.size() ? words_[used_++] : 0;
  }
  size_t used() const { return used_; }

 private:
  std::vector<uint64_t> words_;
  size_t used_ = 0;
};

struct LaneReference {
  uint64_t mask = 0;  // bit i = [u_i < t]
  size_t draws = 0;   // words a most-significant-first compare must read
};

// The transposed per-lane reading of a 53-word script: lane i's integer
// u_i takes bit 52 - j from bit i of word j. The mask is the plain integer
// comparison u_i < t; the draw count is the deepest position at which any
// lane first differs from t, capped at t's lowest set bit.
LaneReference TransposedCompare(uint64_t t, const std::vector<uint64_t>& words) {
  LaneReference ref;
  const size_t cap = 53 - static_cast<size_t>(std::countr_zero(t));
  for (int lane = 0; lane < 64; ++lane) {
    uint64_t u = 0;
    size_t depth = cap;
    for (size_t j = 0; j < 53; ++j) {
      const uint64_t bit = (words[j] >> lane) & 1;
      u |= bit << (52 - j);
      if (depth == cap && j < cap && bit != ((t >> (52 - j)) & 1)) {
        depth = j + 1;
      }
    }
    if (u < t) ref.mask |= uint64_t{1} << lane;
    ref.draws = std::max(ref.draws, depth);
  }
  return ref;
}

void ExpectMatchesTransposedCompare(uint64_t t,
                                    const std::vector<uint64_t>& words) {
  const LaneReference ref = TransposedCompare(t, words);
  ScriptedWords source(words);
  EXPECT_EQ(BernoulliMaskWord(t, source), ref.mask) << "t = " << t;
  EXPECT_EQ(source.used(), ref.draws) << "t = " << t;
}

std::vector<uint64_t> RandomScript(Rng& rng) {
  std::vector<uint64_t> words(53);
  for (uint64_t& w : words) w = rng.NextU64();
  return words;
}

// Every lane copies t's bits for the first `tie` positions, then draws
// at random: forces the compare deep into t's expansion.
std::vector<uint64_t> TiedScript(uint64_t t, size_t tie, Rng& rng) {
  std::vector<uint64_t> words = RandomScript(rng);
  for (size_t j = 0; j < tie && j < 53; ++j) {
    words[j] = ((t >> (52 - j)) & 1) ? ~uint64_t{0} : 0;
  }
  return words;
}

TEST(BernoulliThresholdTest, IntegerCompareIsTheDoubleCompare) {
  EXPECT_EQ(BernoulliThreshold(0.5), uint64_t{1} << 52);
  EXPECT_EQ(BernoulliThreshold(0.0), 0u);
  EXPECT_EQ(BernoulliThreshold(1.0), kBernoulliOne);
  Rng rng(5);
  for (double epsilon : {0.1, 1.0, 2.0, 4.8, 8.0}) {
    const double p = FlipProbability(epsilon);
    const uint64_t t = BernoulliThreshold(p);
    // The boundary uniforms t - 1 (below) and t (not below).
    EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p);
    EXPECT_GE(static_cast<double>(t) * 0x1.0p-53, p);
    for (int i = 0; i < 10000; ++i) {
      const uint64_t x = rng.NextU64();
      const double d = static_cast<double>(x >> 11) * 0x1.0p-53;
      ASSERT_EQ((x >> 11) < t, d < p) << "ε = " << epsilon;
    }
  }
}

TEST(BernoulliMaskWordTest, OneHalfReadsOneWord) {
  // t = 2⁵²: a single 1 bit at the top, so the first word decides every
  // lane — a 0 in it means u < 2⁵².
  const uint64_t t = BernoulliThreshold(0.5);
  ASSERT_EQ(t, uint64_t{1} << 52);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint64_t> words = RandomScript(rng);
    ScriptedWords source(words);
    EXPECT_EQ(BernoulliMaskWord(t, source), ~words[0]);
    EXPECT_EQ(source.used(), 1u);
    ExpectMatchesTransposedCompare(t, words);
  }
}

TEST(BernoulliMaskWordTest, MatchesTransposedCompareAcrossThresholds) {
  Rng rng(2);
  std::vector<uint64_t> thresholds;
  for (double epsilon : {0.5, 1.0, 2.0, 4.8}) {
    thresholds.push_back(BernoulliThreshold(FlipProbability(epsilon)));
  }
  // Tiny p: the ε = 8 flip probability, ~3.4e-4, whose threshold opens
  // with eleven zero bits.
  const uint64_t tiny = BernoulliThreshold(FlipProbability(8.0));
  ASSERT_LT(tiny, uint64_t{1} << 42);
  thresholds.push_back(tiny);
  // Long runs of trailing zeros: the compare must stop at the lowest set
  // bit, where a still-tied lane has u ≥ t.
  thresholds.push_back(uint64_t{0b1011} << 40);
  thresholds.push_back((uint64_t{1} << 51) | (uint64_t{1} << 20));
  thresholds.push_back(uint64_t{1});           // p = 2⁻⁵³
  thresholds.push_back(kBernoulliOne - 1);     // every bit set
  for (uint64_t t : thresholds) {
    for (int i = 0; i < 300; ++i) {
      ExpectMatchesTransposedCompare(t, RandomScript(rng));
      ExpectMatchesTransposedCompare(
          t, TiedScript(t, rng.UniformInt(54), rng));
    }
  }
}

TEST(BernoulliMaskWordTest, StopsAtTheLowestSetBitOfT) {
  // t = 1011 · 2⁴⁰: positions 52..40 carry t's bits, so at most 13 draws;
  // an all-tied script reads all 13 and decides every lane "not below".
  const uint64_t t = uint64_t{0b1011} << 40;
  Rng rng(3);
  const std::vector<uint64_t> words = TiedScript(t, 53, rng);
  ScriptedWords source(words);
  EXPECT_EQ(BernoulliMaskWord(t, source), 0u);
  EXPECT_EQ(source.used(), 13u);
}

TEST(BernoulliMaskWordTest, StopsOnceEveryLaneIsDecided) {
  const uint64_t t = BernoulliThreshold(FlipProbability(1.0));
  ASSERT_EQ((t >> 52) & 1, 0u);  // p < 1/2: the top bit of t is 0
  // Every lane draws a 1 where t has its leading 0: all above, one draw.
  {
    ScriptedWords source({~uint64_t{0}, 0, 0});
    EXPECT_EQ(BernoulliMaskWord(t, source), 0u);
    EXPECT_EQ(source.used(), 1u);
  }
  // Half the lanes settle on the first draw; the other half tie there and
  // settle on the second against t's next bit.
  {
    const uint64_t half = 0xFFFFFFFF00000000ULL;
    const bool t51 = (t >> 51) & 1;
    const uint64_t second = t51 ? 0 : ~uint64_t{0};  // differ from t there
    ScriptedWords source({half, second, 0});
    const uint64_t mask = BernoulliMaskWord(t, source);
    EXPECT_EQ(source.used(), 2u);
    EXPECT_EQ(mask, t51 ? ~half : 0u);
  }
}

TEST(BernoulliMaskWordTest, DegenerateThresholdsDrawNothing) {
  ScriptedWords source(std::vector<uint64_t>{});
  EXPECT_EQ(BernoulliMaskWord(0, source), 0u);
  EXPECT_EQ(BernoulliMaskWord(kBernoulliOne, source), ~uint64_t{0});
  EXPECT_EQ(source.used(), 0u);
}

TEST(BernoulliMaskWordTest, EpsilonEightMatchesLaw) {
  // ε = 8, far above the paper's range: the tiny-p mask still flips each
  // non-neighbor at rate p.
  GraphBuilder b(1, 4096);
  b.AddEdge(0, 7);
  const BipartiteGraph g = b.Build();
  const double p = FlipProbability(8.0);
  Rng rng(9);
  uint64_t flipped = 0, kept = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const auto noisy =
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 8.0, rng);
    kept += noisy.Contains(7);
    flipped += noisy.Size() - noisy.Contains(7);
  }
  const double n = trials * 4095.0;
  EXPECT_NEAR(static_cast<double>(flipped) / n, p,
              5 * std::sqrt(p * (1 - p) / n));
  EXPECT_GE(kept, static_cast<uint64_t>(trials * (1 - 10 * p)));
}

// ---- Statistical checks of the bitmap sampler at scale ----

std::string SamplePath() {
  const char* root = std::getenv("CNE_SOURCE_DIR");
  return std::string(root ? root : ".") + "/data/sample_userpage.txt";
}

// Wilson–Hilferty normal score of a χ²(k) statistic.
double ChiSquareZ(double chi2, double k) {
  const double a = 2.0 / (9.0 * k);
  return (std::cbrt(chi2 / k) - (1.0 - a)) / std::sqrt(a);
}

struct ReleaseTally {
  int trials = 0;
  std::vector<uint64_t> ones;           // per bit
  std::vector<std::vector<uint64_t>> both;  // per (offset, bit)
  RunningStats sizes;
};

constexpr std::array<VertexId, 4> kPairOffsets = {1, 2, 63, 64};

ReleaseTally TallyReleases(const BipartiteGraph& g, LayeredVertex vertex,
                           double epsilon, int trials, uint64_t seed) {
  const VertexId n = g.NumVertices(Opposite(vertex.layer));
  ReleaseTally tally;
  tally.trials = trials;
  tally.ones.assign(n, 0);
  tally.both.assign(kPairOffsets.size(), std::vector<uint64_t>(n, 0));
  const Rng root(seed);
  std::vector<uint8_t> bit(n);
  for (int t = 0; t < trials; ++t) {
    Rng rng = root.Fork(static_cast<uint64_t>(t));
    const auto noisy = ApplyRandomizedResponse(g, vertex, epsilon, rng);
    const auto words = noisy.View().bitmap().Words();
    // Bits past the domain stay zero.
    if (n % 64 != 0) {
      EXPECT_EQ(words.back() >> (n % 64), 0u);
    }
    for (VertexId v = 0; v < n; ++v) {
      bit[v] = (words[v >> 6] >> (v & 63)) & 1;
      tally.ones[v] += bit[v];
    }
    for (size_t o = 0; o < kPairOffsets.size(); ++o) {
      for (VertexId v = 0; v + kPairOffsets[o] < n; ++v) {
        tally.both[o][v] += bit[v] & bit[v + kPairOffsets[o]];
      }
    }
    tally.sizes.Add(static_cast<double>(noisy.Size()));
  }
  return tally;
}

void ExpectRrLaw(const BipartiteGraph& g, LayeredVertex vertex,
                 double epsilon, uint64_t seed) {
  const VertexId n = g.NumVertices(Opposite(vertex.layer));
  const auto neighbors = g.Neighbors(vertex);
  const double d = static_cast<double>(neighbors.size());
  const double p = FlipProbability(epsilon);
  const int trials = 20000;
  const ReleaseTally tally = TallyReleases(g, vertex, epsilon, trials, seed);
  std::vector<double> q(n, p);  // P(released bit = 1)
  for (VertexId v : neighbors) q[v] = 1.0 - p;

  // Per-bit marginals: Σ (O - E)² / Var over the n bits is χ²(n).
  double chi2 = 0;
  for (VertexId v = 0; v < n; ++v) {
    const double e = trials * q[v];
    const double diff = static_cast<double>(tally.ones[v]) - e;
    chi2 += diff * diff / (e * (1.0 - q[v]));
  }
  EXPECT_LT(std::abs(ChiSquareZ(chi2, n)), 4.5)
      << "marginals χ² = " << chi2 << " over " << n << " bits";

  // Pairwise independence: each pair's 2×2 table gives T·φ² ~ χ²(1);
  // pairs at offsets 1 and 2 (neighboring lanes of one word), 63 (across
  // a word boundary) and 64 (one lane, consecutive words).
  for (size_t o = 0; o < kPairOffsets.size(); ++o) {
    double sum = 0;
    double pairs = 0;
    for (VertexId v = 0; v + kPairOffsets[o] < n; ++v) {
      const double a = static_cast<double>(tally.ones[v]) / trials;
      const double b =
          static_cast<double>(tally.ones[v + kPairOffsets[o]]) / trials;
      const double ab = static_cast<double>(tally.both[o][v]) / trials;
      const double cov = ab - a * b;
      sum += trials * cov * cov / (a * (1 - a) * b * (1 - b));
      pairs += 1;
    }
    EXPECT_LT(std::abs(ChiSquareZ(sum, pairs)), 4.5)
        << "offset " << kPairOffsets[o] << ": χ² = " << sum << " over "
        << pairs << " pairs";
  }

  // Released count ~ Binomial(d, 1-p) + Binomial(n-d, p): mean
  // d(1-p) + (n-d)p, variance n·p(1-p).
  const double mean = d * (1 - p) + (n - d) * p;
  const double var = n * p * (1 - p);
  EXPECT_NEAR(tally.sizes.Mean(), mean, 4.5 * std::sqrt(var / trials));
  EXPECT_NEAR(tally.sizes.Variance(), var,
              4.5 * var * std::sqrt(2.0 / (trials - 1)));
}

TEST(BitmapLawTest, SampleGraphUpperVertices) {
  // Upper vertices release over the lower layer (299 ids, 299 % 64 = 43).
  const BipartiteGraph g = ReadEdgeListFile(SamplePath());
  ASSERT_NE(g.NumLower() % 64, 0u);
  ExpectRrLaw(g, {Layer::kUpper, 0}, 1.0, 101);  // the top-degree hub
  ExpectRrLaw(g, {Layer::kUpper, 60}, 2.0, 102);
}

TEST(BitmapLawTest, SampleGraphLowerVertex) {
  const BipartiteGraph g = ReadEdgeListFile(SamplePath());
  ASSERT_NE(g.NumUpper() % 64, 0u);
  ExpectRrLaw(g, {Layer::kLower, 0}, 1.0, 103);
}

TEST(BitmapLawTest, DenseRowOverRaggedDomain) {
  // 1000 ids (1000 % 64 = 40) with every third one a neighbor.
  GraphBuilder b(1, 1000);
  for (VertexId l = 0; l < 1000; l += 3) b.AddEdge(0, l);
  ExpectRrLaw(b.Build(), {Layer::kUpper, 0}, 0.5, 104);
}

// ---- Golden fingerprint of released bytes ----

// FNV-1a over the release words of every upper vertex of the sample graph
// at ε ∈ {1, 2}, each drawn from its own Fork of a fixed root. A change to
// these bytes means released views change for the same seed: bump
// kRrSamplerVersion (so recovery refuses state from the old sampler) and
// re-pin the value together.
uint64_t SampleGraphFingerprint() {
  const BipartiteGraph g = ReadEdgeListFile(SamplePath());
  const Rng root(20240601);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double epsilon : {1.0, 2.0}) {
    for (VertexId u = 0; u < g.NumUpper(); ++u) {
      Rng rng = root.Fork(u);
      const auto noisy =
          ApplyRandomizedResponse(g, {Layer::kUpper, u}, epsilon, rng);
      for (uint64_t word : noisy.View().bitmap().Words()) {
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (word >> (8 * byte)) & 0xFF;
          hash *= 0x100000001b3ULL;
        }
      }
    }
  }
  return hash;
}

TEST(SamplerFingerprintTest, ReleasedBytesArePinned) {
  static_assert(kRrSamplerVersion == 3,
                "re-pin the fingerprint when the sampler version changes");
  EXPECT_EQ(SampleGraphFingerprint(), 0xe460698bb4a5ba90ULL);
}

TEST(ExpectedNoisyDegreeTest, Monotonicity) {
  // More budget -> fewer flipped zeros -> smaller noisy degree for sparse
  // vertices.
  EXPECT_GT(ExpectedNoisyDegree(10, 1000, 1.0),
            ExpectedNoisyDegree(10, 1000, 3.0));
  // Degenerate: degree equal to domain.
  const double p = FlipProbability(2.0);
  EXPECT_NEAR(ExpectedNoisyDegree(100, 100, 2.0), 100 * (1 - p), 1e-9);
}

}  // namespace
}  // namespace cne
