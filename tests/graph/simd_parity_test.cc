// SIMD/scalar parity for the word-level set kernels: every vector
// implementation must be bit-identical to the scalar reference at every
// ISA level this machine can execute, across a density grid, fuzzed
// operands, and the ragged-tail domains (domain % 64, % 256, % 512 != 0)
// where the AVX2 scalar epilogue and the AVX-512 masked loads do their
// work. ForceSimdLevel drives the same override that CNE_SIMD_LEVEL sets
// at start-up (tests/util/cpu_features_test.cc checks that read).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/set_ops.h"
#include "graph/set_ops_kernels.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace cne {
namespace {

class SimdParityTest : public ::testing::Test {
 protected:
  void TearDown() override { ForceSimdLevel(DetectedSimdLevel()); }
};

DenseBitset RandomBitset(VertexId domain, double density, Rng& rng) {
  DenseBitset bits(domain);
  for (VertexId v = 0; v < domain; ++v) {
    if (rng.NextDouble() < density) bits.Set(v);
  }
  return bits;
}

// The domains the vector kernels must get right: multiples of the AVX2
// (256-bit) and AVX-512 (512-bit) strides, one word, and off-by-one
// raggedness around every stride boundary.
const VertexId kParityDomains[] = {1,   63,  64,  65,   255,  256, 257,
                                   511, 512, 513, 1000, 1024, 2048, 4096 + 37};

TEST_F(SimdParityTest, WordKernelsMatchScalarOnDensityGrid) {
  Rng rng(20240807);
  const simd::WordKernels& scalar = simd::WordKernelsFor(SimdLevel::kScalar);
  for (VertexId domain : kParityDomains) {
    for (double density : {0.0, 0.001, 0.01, 0.1, 0.5, 1.0}) {
      const DenseBitset a = RandomBitset(domain, density, rng);
      const DenseBitset b = RandomBitset(domain, density, rng);
      const size_t n = a.Words().size();
      const uint64_t want_and =
          scalar.and_popcount(a.Words().data(), b.Words().data(), n);
      const uint64_t want_pop = scalar.popcount(a.Words().data(), n);
      for (SimdLevel level : AvailableSimdLevels()) {
        const simd::WordKernels& kernels = simd::WordKernelsFor(level);
        EXPECT_EQ(kernels.and_popcount(a.Words().data(), b.Words().data(), n),
                  want_and)
            << SimdLevelName(level) << " domain " << domain << " density "
            << density;
        EXPECT_EQ(kernels.popcount(a.Words().data(), n), want_pop)
            << SimdLevelName(level) << " domain " << domain;
      }
    }
  }
}

TEST_F(SimdParityTest, PublicKernelsMatchSortedReferenceAtEveryLevel) {
  Rng rng(31);
  for (VertexId domain : kParityDomains) {
    const DenseBitset a = RandomBitset(domain, 0.3, rng);
    const DenseBitset b = RandomBitset(domain, 0.05, rng);
    const std::vector<VertexId> sa = a.ToSortedVector();
    const std::vector<VertexId> sb = b.ToSortedVector();
    const uint64_t want_and = IntersectScalarMerge(sa, sb);
    for (SimdLevel level : AvailableSimdLevels()) {
      ForceSimdLevel(level);
      EXPECT_EQ(IntersectBitmapAnd(a, b), want_and)
          << SimdLevelName(level) << " domain " << domain;
      EXPECT_EQ(a.Count(), sa.size()) << SimdLevelName(level);
      EXPECT_EQ(
          IntersectionSize(SetView::Bitmap(a, sa.size()),
                           SetView::Bitmap(b, sb.size())),
          want_and)
          << SimdLevelName(level) << " domain " << domain;
    }
  }
}

TEST_F(SimdParityTest, FuzzedOperandsAgreeAcrossLevels) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    // Mixed domains too: bitmap_and over different word counts must
    // truncate identically at every level.
    const VertexId domain_a = 1 + static_cast<VertexId>(rng.NextDouble() * 2048);
    const VertexId domain_b = 1 + static_cast<VertexId>(rng.NextDouble() * 2048);
    const DenseBitset a = RandomBitset(domain_a, rng.NextDouble(), rng);
    const DenseBitset b = RandomBitset(domain_b, rng.NextDouble(), rng);
    const uint64_t want = IntersectScalarMerge(a.ToSortedVector(),
                                               b.ToSortedVector());
    for (SimdLevel level : AvailableSimdLevels()) {
      ForceSimdLevel(level);
      EXPECT_EQ(IntersectBitmapAnd(a, b), want)
          << SimdLevelName(level) << " round " << round;
      EXPECT_EQ(IntersectBitmapAnd(b, a), want)
          << SimdLevelName(level) << " round " << round;
    }
  }
}

TEST_F(SimdParityTest, MixedRepresentationsMatchSortedReferenceAtEveryLevel) {
  Rng rng(13);
  const VertexId domain = 777;  // ragged at every stride
  const DenseBitset base_bits = RandomBitset(domain, 0.4, rng);
  const std::vector<VertexId> base_ids = base_bits.ToSortedVector();

  std::vector<DenseBitset> cand_bits;
  std::vector<std::vector<VertexId>> cand_ids;
  for (int i = 0; i < 24; ++i) {
    cand_bits.push_back(RandomBitset(domain, 0.02 * i, rng));
    cand_ids.push_back(cand_bits.back().ToSortedVector());
  }
  std::vector<SetView> candidates;
  for (int i = 0; i < 24; ++i) {
    // Alternate representations so the dispatcher crosses kernels.
    candidates.push_back(i % 2 == 0
                             ? SetView::Bitmap(cand_bits[i], cand_ids[i].size())
                             : SetView::Sorted(cand_ids[i]));
  }

  std::vector<uint64_t> want(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    want[i] = IntersectScalarMerge(base_ids, cand_ids[i]);
  }

  for (SimdLevel level : AvailableSimdLevels()) {
    ForceSimdLevel(level);
    for (const SetView& base : {SetView::Bitmap(base_bits, base_ids.size()),
                                SetView::Sorted(base_ids)}) {
      std::vector<uint64_t> got;
      for (const SetView& candidate : candidates) {
        got.push_back(IntersectionSize(base, candidate));
      }
      EXPECT_EQ(got, want) << SimdLevelName(level)
                           << (base.IsBitmap() ? " bitmap base"
                                               : " sorted base");
    }
  }
}

TEST_F(SimdParityTest, AllOnesAndAlternatingPatternsCountExactly) {
  // Deterministic worst cases for the byte-LUT and mask arithmetic:
  // saturated words and alternating nibbles, at ragged domains.
  for (VertexId domain : kParityDomains) {
    DenseBitset ones(domain);
    DenseBitset evens(domain);
    for (VertexId v = 0; v < domain; ++v) {
      ones.Set(v);
      if (v % 2 == 0) evens.Set(v);
    }
    for (SimdLevel level : AvailableSimdLevels()) {
      ForceSimdLevel(level);
      EXPECT_EQ(ones.Count(), domain) << SimdLevelName(level);
      EXPECT_EQ(evens.Count(), (domain + 1) / 2) << SimdLevelName(level);
      EXPECT_EQ(IntersectBitmapAnd(ones, evens), (domain + 1) / 2)
          << SimdLevelName(level);
    }
  }
}

TEST_F(SimdParityTest, FourPartnerKernelEqualsFourSinglePartnerCalls) {
  // Every word count up to two AVX-512 strides, the slice-width
  // boundaries, and one hot-set view (16,042 words); partners that alias
  // the source or each other included.
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (size_t n : {1023, 1024, 1025, 16042}) lengths.push_back(n);
  Rng rng(2026);
  for (size_t n : lengths) {
    std::vector<std::vector<uint64_t>> rows(5, std::vector<uint64_t>(n));
    for (size_t r = 0; r < rows.size(); ++r) {
      for (uint64_t& word : rows[r]) {
        // Rows of varied density: AND of 0–3 random words, or all ones.
        word = r == 4 ? ~uint64_t{0} : rng.NextU64();
        for (size_t k = 0; k < r % 4; ++k) word &= rng.NextU64();
      }
    }
    const uint64_t* a = rows[0].data();
    const uint64_t* const partner_sets[][4] = {
        {rows[1].data(), rows[2].data(), rows[3].data(), rows[4].data()},
        {a, rows[1].data(), a, rows[2].data()},
        {rows[3].data(), rows[3].data(), rows[3].data(), rows[3].data()},
        {a, a, a, a},
    };
    for (SimdLevel level : AvailableSimdLevels()) {
      ForceSimdLevel(level);
      const simd::WordKernels& kernels = simd::ActiveWordKernels();
      for (const auto& b : partner_sets) {
        uint64_t got[4] = {~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0},
                           ~uint64_t{0}};
        kernels.and_popcount4(a, b, n, got);
        for (size_t k = 0; k < 4; ++k) {
          EXPECT_EQ(got[k], kernels.and_popcount(a, b[k], n))
              << SimdLevelName(level) << " n " << n << " partner " << k;
          EXPECT_EQ(got[k], simd::AndPopcountScalar(a, b[k], n))
              << SimdLevelName(level) << " n " << n << " partner " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cne
