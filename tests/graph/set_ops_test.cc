// Property suite for the adaptive intersection kernels: every kernel and
// the dispatcher must return exactly the scalar merge's count on the same
// set pair, for every representation, across the full density range and
// across skewed size ratios — including domains that are not multiples of
// the 64-bit word size, and at every SIMD level the machine can execute.

#include "graph/set_ops.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/cpu_features.h"
#include "util/rng.h"

namespace cne {
namespace {

std::vector<VertexId> RandomSortedSet(VertexId domain, double density,
                                      Rng& rng) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < domain; ++v) {
    if (rng.Bernoulli(density)) out.push_back(v);
  }
  return out;
}

DenseBitset ToBitset(const std::vector<VertexId>& sorted, VertexId domain) {
  DenseBitset bits(domain);
  for (VertexId v : sorted) bits.Set(v);
  return bits;
}

uint64_t ReferenceIntersection(const std::vector<VertexId>& a,
                               const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(DenseBitsetTest, SetTestCountRoundTrip) {
  DenseBitset bits(130);  // not a multiple of 64
  EXPECT_EQ(bits.NumBits(), 130u);
  EXPECT_EQ(bits.Count(), 0u);
  for (VertexId v : {0u, 63u, 64u, 127u, 128u, 129u}) bits.Set(v);
  EXPECT_EQ(bits.Count(), 6u);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_FALSE(bits.Test(126));
  EXPECT_EQ(bits.ToSortedVector(),
            (std::vector<VertexId>{0, 63, 64, 127, 128, 129}));
}

TEST(DenseBitsetTest, SizedConstructionZeroesReusedStorage) {
  // Uninitialized() leaves words unwritten, so the count constructor must
  // zero explicitly. Dirty a same-sized block first so the allocator is
  // likely to hand the dirty words straight back.
  for (VertexId num_bits : {130u, 4096u, 100000u}) {
    {
      DenseBitset dirty = DenseBitset::Uninitialized(num_bits);
      for (uint64_t& word : dirty.MutableWords()) word = ~uint64_t{0};
    }
    const DenseBitset bits(num_bits);
    EXPECT_EQ(bits.Count(), 0u) << num_bits << " bits";
    for (uint64_t word : bits.Words()) {
      ASSERT_EQ(word, 0u) << num_bits << " bits";
    }
  }
}

TEST(DenseBitsetTest, ToSortedVectorIsAscendingOnRandomInput) {
  Rng rng(3);
  DenseBitset bits(777);
  std::vector<VertexId> truth;
  for (VertexId v = 0; v < 777; ++v) {
    if (rng.Bernoulli(0.3)) {
      bits.Set(v);
      truth.push_back(v);
    }
  }
  EXPECT_EQ(bits.ToSortedVector(), truth);
}

TEST(SetOpsKernelsTest, AllKernelsAgreeAcrossDensityGrid) {
  Rng rng(17);
  // Domains straddle the word, AVX2 (256-bit) and AVX-512 (512-bit)
  // strides on purpose; the last two are 256 words and 256 words plus a
  // ragged 21 bits. 0.27 is the ε = 1 noisy-row density.
  for (VertexId domain :
       {VertexId{1}, VertexId{63}, VertexId{64}, VertexId{65}, VertexId{100},
        VertexId{255}, VertexId{256}, VertexId{257}, VertexId{511},
        VertexId{512}, VertexId{513}, VertexId{1000}, VertexId{4097},
        VertexId{16384}, VertexId{16405}}) {
    for (double da : {0.0, 0.01, 0.1, 0.27, 0.3, 0.7, 1.0}) {
      for (double db : {0.0, 0.05, 0.27, 0.5, 1.0}) {
        const auto a = RandomSortedSet(domain, da, rng);
        const auto b = RandomSortedSet(domain, db, rng);
        const DenseBitset ba = ToBitset(a, domain);
        const DenseBitset bb = ToBitset(b, domain);
        const uint64_t want = ReferenceIntersection(a, b);
        const SetView sa = SetView::Sorted(a);
        const SetView sb = SetView::Sorted(b);
        const SetView va = SetView::Bitmap(ba, a.size());
        const SetView vb = SetView::Bitmap(bb, b.size());

        for (SimdLevel level : AvailableSimdLevels()) {
          ForceSimdLevel(level);
          const std::string cell = std::to_string(domain) + " " +
                                   std::to_string(da) + "x" +
                                   std::to_string(db) + " " +
                                   SimdLevelName(level);
          EXPECT_EQ(IntersectScalarMerge(a, b), want) << cell;
          EXPECT_EQ(IntersectGalloping(a, b), want) << cell;
          EXPECT_EQ(IntersectGalloping(b, a), want) << cell;
          EXPECT_EQ(IntersectBitmapAnd(ba, bb), want) << cell;
          EXPECT_EQ(IntersectProbeBitmap(a, bb), want) << cell;
          EXPECT_EQ(IntersectProbeBitmap(b, ba), want) << cell;

          // Dispatcher, every representation pairing.
          for (const SetView& x : {sa, va}) {
            for (const SetView& y : {sb, vb}) {
              EXPECT_EQ(IntersectionSize(x, y), want)
                  << cell << " " << DispatchedKernelName(x, y);
            }
          }
        }
      }
    }
  }
  ForceSimdLevel(DetectedSimdLevel());
}

TEST(SetOpsKernelsTest, FuzzRandomPairs) {
  Rng rng(29);
  for (int t = 0; t < 300; ++t) {
    const VertexId domain =
        static_cast<VertexId>(1 + rng.UniformInt(2000));
    const double da = rng.NextDouble();
    const double db = rng.NextDouble() * rng.NextDouble();  // skew sizes
    const auto a = RandomSortedSet(domain, da, rng);
    const auto b = RandomSortedSet(domain, db, rng);
    const DenseBitset ba = ToBitset(a, domain);
    const DenseBitset bb = ToBitset(b, domain);
    const uint64_t want = ReferenceIntersection(a, b);
    EXPECT_EQ(IntersectScalarMerge(a, b), want);
    EXPECT_EQ(IntersectGalloping(a, b), want);
    EXPECT_EQ(IntersectBitmapAnd(ba, bb), want);
    EXPECT_EQ(IntersectProbeBitmap(a, bb), want);
    EXPECT_EQ(
        IntersectionSize(SetView::Sorted(a), SetView::Bitmap(bb, b.size())),
        want);
    EXPECT_EQ(IntersectionSize(SetView::Bitmap(ba, a.size()),
                               SetView::Bitmap(bb, b.size())),
              want);
  }
}

TEST(SetOpsKernelsTest, GallopingHandlesExtremeSkew) {
  // One needle against a huge haystack, hit and miss, ends included.
  std::vector<VertexId> big;
  for (VertexId v = 0; v < 100000; v += 2) big.push_back(v);
  EXPECT_EQ(IntersectGalloping(std::vector<VertexId>{0}, big), 1u);
  EXPECT_EQ(IntersectGalloping(std::vector<VertexId>{99998}, big), 1u);
  EXPECT_EQ(IntersectGalloping(std::vector<VertexId>{99999}, big), 0u);
  EXPECT_EQ(IntersectGalloping(std::vector<VertexId>{1}, big), 0u);
  const std::vector<VertexId> needles = {0, 1, 50000, 50001, 99998};
  EXPECT_EQ(IntersectGalloping(needles, big), 3u);
  EXPECT_EQ(IntersectScalarMerge(needles, big), 3u);
}

TEST(SetOpsKernelsTest, BitmapAndToleratesDomainMismatch) {
  // Bits past the shorter domain cannot intersect.
  DenseBitset a(130), b(70);
  for (VertexId v : {0u, 64u, 69u, 129u}) a.Set(v);
  for (VertexId v : {0u, 64u, 69u}) b.Set(v);
  EXPECT_EQ(IntersectBitmapAnd(a, b), 3u);
  EXPECT_EQ(IntersectBitmapAnd(b, a), 3u);
}

TEST(SetOpsKernelsTest, ProbeIgnoresOutOfDomainIds) {
  DenseBitset bits(65);
  bits.Set(64);
  const std::vector<VertexId> probes = {10, 64, 100, 4000000000u};
  EXPECT_EQ(IntersectProbeBitmap(probes, bits), 1u);
}

TEST(SetOpsDispatchTest, PicksTheExpectedKernel) {
  std::vector<VertexId> small = {1, 2, 3};
  std::vector<VertexId> large(400);
  for (VertexId v = 0; v < 400; ++v) large[v] = v;
  DenseBitset sparse_bits(400);
  sparse_bits.Set(1);
  constexpr VertexId kDenseDomain = 1 << 18;
  DenseBitset dense_bits(kDenseDomain);
  for (VertexId v = 0; v < kDenseDomain; ++v) dense_bits.Set(v);
  // Sorted pairs just under and exactly at kGallopRatio: galloping runs
  // once large / (small + 1) reaches it.
  std::vector<VertexId> ratio_small(7);
  std::vector<VertexId> under_ratio(8 * kGallopRatio - 1);
  std::vector<VertexId> at_ratio(8 * kGallopRatio);
  for (VertexId v = 0; v < ratio_small.size(); ++v) ratio_small[v] = 3 * v;
  for (VertexId v = 0; v < at_ratio.size(); ++v) at_ratio[v] = v;
  for (VertexId v = 0; v < under_ratio.size(); ++v) under_ratio[v] = v;

  const SetView s = SetView::Sorted(small);
  const SetView l = SetView::Sorted(large);
  const SetView rs = SetView::Sorted(ratio_small);
  const SetView under = SetView::Sorted(under_ratio);
  const SetView at = SetView::Sorted(at_ratio);
  const SetView sparse = SetView::Bitmap(sparse_bits, 1);
  const SetView dense = SetView::Bitmap(dense_bits, kDenseDomain);
  EXPECT_STREQ(DispatchedKernelName(s, l), "galloping");
  EXPECT_STREQ(DispatchedKernelName(l, l), "scalar_merge");
  EXPECT_STREQ(DispatchedKernelName(s, s), "scalar_merge");
  EXPECT_STREQ(DispatchedKernelName(rs, under), "scalar_merge");
  EXPECT_STREQ(DispatchedKernelName(under, rs), "scalar_merge");
  EXPECT_STREQ(DispatchedKernelName(rs, at), "galloping");
  EXPECT_STREQ(DispatchedKernelName(at, rs), "galloping");
  EXPECT_STREQ(DispatchedKernelName(s, sparse), "probe_bitmap");
  EXPECT_STREQ(DispatchedKernelName(dense, dense), "bitmap_and");
  EXPECT_STREQ(DispatchedKernelName(sparse, dense), "bitmap_and");
  EXPECT_EQ(IntersectionSize(rs, under),
            IntersectScalarMerge(ratio_small, under_ratio));
  EXPECT_EQ(IntersectionSize(rs, at),
            IntersectScalarMerge(ratio_small, at_ratio));
}

// Groups of 1–9 partners per source, laid out group by group as the
// query service does, with self pairs (partner = source) and repeated
// partners; every count must equal the per-pair kernel's.
std::vector<BitmapPair> GroupedPairs(const std::vector<DenseBitset>& views,
                                     Rng& rng) {
  std::vector<BitmapPair> pairs;
  for (size_t group_size = 1; group_size <= 9; ++group_size) {
    const DenseBitset* source = &views[rng.UniformInt(views.size())];
    for (size_t k = 0; k < group_size; ++k) {
      const DenseBitset* partner = k % 3 == 1
                                       ? source
                                       : &views[rng.UniformInt(views.size())];
      pairs.push_back({source, partner});
    }
  }
  return pairs;
}

void ExpectCountsMatchPerPair(std::span<const BitmapPair> pairs,
                              const std::string& label) {
  for (SimdLevel level : AvailableSimdLevels()) {
    ForceSimdLevel(level);
    std::vector<uint64_t> counts(pairs.size(), 12345);
    BitmapAndCounts(pairs, counts);
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(counts[i],
                IntersectBitmapAnd(*pairs[i].source, *pairs[i].partner))
          << label << " pair " << i << " " << SimdLevelName(level);
    }
  }
  ForceSimdLevel(DetectedSimdLevel());
}

TEST(SetOpsPairCountsTest, EqualsPerPairKernelOnGroupedPairs) {
  Rng rng(2608);
  // One word, word boundaries, one slice, and one domain spanning three
  // slices whose last is ragged in both words and bits.
  const VertexId multi_slice =
      static_cast<VertexId>(64 * (2 * kPairSliceWords + 300) + 17);
  for (VertexId domain : {VertexId{1}, VertexId{63}, VertexId{64},
                          VertexId{65}, VertexId{16405}, multi_slice}) {
    std::vector<DenseBitset> views;
    for (double density : {0.0, 0.05, 0.12, 0.5, 1.0}) {
      views.push_back(ToBitset(RandomSortedSet(domain, density, rng), domain));
    }
    ExpectCountsMatchPerPair(GroupedPairs(views, rng),
                             "domain " + std::to_string(domain));
  }
}

TEST(SetOpsPairCountsTest, GroupsOverDifferentDomainsMix) {
  // A chunk of a mixed-layer submission: groups over a one-slice and a
  // three-slice domain, interleaved, so the short groups finish first.
  Rng rng(65);
  const VertexId long_domain =
      static_cast<VertexId>(64 * (2 * kPairSliceWords + 5) + 1);
  std::vector<DenseBitset> short_views, long_views;
  for (double density : {0.1, 0.4, 0.9}) {
    short_views.push_back(ToBitset(RandomSortedSet(700, density, rng), 700));
    long_views.push_back(
        ToBitset(RandomSortedSet(long_domain, density, rng), long_domain));
  }
  std::vector<BitmapPair> pairs;
  for (int round = 0; round < 2; ++round) {
    for (const auto* views : {&long_views, &short_views}) {
      for (size_t k = 0; k < 5; ++k) {
        pairs.push_back({&(*views)[round], &(*views)[k % views->size()]});
      }
    }
  }
  ExpectCountsMatchPerPair(pairs, "mixed domains");
}

TEST(SetOpsPairCountsDeathTest, PairOverTwoDomainsIsFatal) {
  const DenseBitset a(130), b(129);
  const std::vector<BitmapPair> pairs = {{&a, &a}, {&a, &b}};
  std::vector<uint64_t> counts(pairs.size());
  EXPECT_DEATH(BitmapAndCounts(pairs, counts), "one domain");
}

TEST(SetOpsPairCountsTest, EmptyPairListWritesNothing) {
  std::vector<uint64_t> counts;
  BitmapAndCounts({}, counts);
  EXPECT_TRUE(counts.empty());
}

}  // namespace
}  // namespace cne
