#include "graph/set_ops.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "graph/set_ops_kernels.h"
#include "util/logging.h"

namespace cne {

namespace simd {

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

void AndPopcount4Scalar(const uint64_t* a, const uint64_t* const* b,
                        size_t n, uint64_t* counts) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t word = a[i];
    c0 += static_cast<uint64_t>(std::popcount(word & b[0][i]));
    c1 += static_cast<uint64_t>(std::popcount(word & b[1][i]));
    c2 += static_cast<uint64_t>(std::popcount(word & b[2][i]));
    c3 += static_cast<uint64_t>(std::popcount(word & b[3][i]));
  }
  counts[0] = c0;
  counts[1] = c1;
  counts[2] = c2;
  counts[3] = c3;
}

uint64_t PopcountScalar(const uint64_t* w, size_t n) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<uint64_t>(std::popcount(w[i]));
  }
  return count;
}

const WordKernels& WordKernelsFor(SimdLevel level) {
  static constexpr WordKernels kScalarKernels = {
      &AndPopcountScalar, &AndPopcount4Scalar, &PopcountScalar};
#if CNE_HAVE_X86_SIMD
  static constexpr WordKernels kAvx2Kernels = {
      &AndPopcountAvx2, &AndPopcount4Avx2, &PopcountAvx2};
  static constexpr WordKernels kAvx512Kernels = {
      &AndPopcountAvx512, &AndPopcount4Avx512, &PopcountAvx512};
  switch (level) {
    case SimdLevel::kAvx512:
      return kAvx512Kernels;
    case SimdLevel::kAvx2:
      return kAvx2Kernels;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarKernels;
}

}  // namespace simd

namespace {

// The intersection kernels IntersectionSize dispatches to.
enum class SetKernel { kScalarMerge, kGalloping, kBitmapAnd, kProbeBitmap };

const char* SetKernelName(SetKernel kernel) {
  switch (kernel) {
    case SetKernel::kScalarMerge:
      return "scalar_merge";
    case SetKernel::kGalloping:
      return "galloping";
    case SetKernel::kBitmapAnd:
      return "bitmap_and";
    case SetKernel::kProbeBitmap:
      return "probe_bitmap";
  }
  return "unknown";
}

// The dispatch rule: the operand representations fix the kernel, and
// only a sorted × sorted pair has a choice, settled by the size ratio.
SetKernel ChooseIntersectKernel(const SetView& a, const SetView& b) {
  if (a.IsBitmap() && b.IsBitmap()) return SetKernel::kBitmapAnd;
  if (a.IsBitmap() || b.IsBitmap()) return SetKernel::kProbeBitmap;
  const uint64_t small = std::min(a.Size(), b.Size());
  const uint64_t large = std::max(a.Size(), b.Size());
  return large / (small + 1) >= kGallopRatio ? SetKernel::kGalloping
                                             : SetKernel::kScalarMerge;
}

}  // namespace

DenseBitset DenseBitset::Uninitialized(VertexId num_bits) {
  DenseBitset bits;
  bits.words_.resize((static_cast<size_t>(num_bits) + 63) / 64);
  bits.num_bits_ = num_bits;
  return bits;
}

uint64_t DenseBitset::Count() const {
  return simd::ActiveWordKernels().popcount(words_.data(), words_.size());
}

std::vector<VertexId> DenseBitset::ToSortedVector(size_t hint) const {
  std::vector<VertexId> out;
  out.reserve(hint);
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(static_cast<VertexId>(w * 64 + bit));
      word &= word - 1;  // clear lowest set bit
    }
  }
  return out;
}

uint64_t IntersectScalarMerge(std::span<const VertexId> a,
                              std::span<const VertexId> b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

uint64_t IntersectGalloping(std::span<const VertexId> a,
                            std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  uint64_t count = 0;
  // For each needle, gallop from the current cursor: double the step until
  // overshooting, then binary-search the bracketed window. Needles are
  // sorted, so the cursor only moves forward and the total cost is
  // O(|a| log(|b|/|a|)).
  size_t lo = 0;
  for (VertexId x : a) {
    size_t step = 1;
    size_t hi = lo;
    while (hi < b.size() && b[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi, b.size());
    const auto it = std::lower_bound(b.begin() + lo, b.begin() + hi, x);
    lo = static_cast<size_t>(it - b.begin());
    if (lo == b.size()) break;
    if (b[lo] == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

uint64_t IntersectBitmapAnd(const DenseBitset& a, const DenseBitset& b) {
  const std::span<const uint64_t> wa = a.Words();
  const std::span<const uint64_t> wb = b.Words();
  const size_t n = std::min(wa.size(), wb.size());
  return simd::ActiveWordKernels().and_popcount(wa.data(), wb.data(), n);
}

uint64_t IntersectProbeBitmap(std::span<const VertexId> probes,
                              const DenseBitset& bits) {
  uint64_t count = 0;
  for (VertexId v : probes) {
    if (v < bits.NumBits() && bits.Test(v)) ++count;
  }
  return count;
}

uint64_t IntersectionSize(const SetView& a, const SetView& b) {
  switch (ChooseIntersectKernel(a, b)) {
    case SetKernel::kBitmapAnd:
      return IntersectBitmapAnd(a.bitmap(), b.bitmap());
    case SetKernel::kProbeBitmap:
      return a.IsBitmap() ? IntersectProbeBitmap(b.sorted(), a.bitmap())
                          : IntersectProbeBitmap(a.sorted(), b.bitmap());
    case SetKernel::kGalloping:
      return IntersectGalloping(a.sorted(), b.sorted());
    case SetKernel::kScalarMerge:
      break;
  }
  return IntersectScalarMerge(a.sorted(), b.sorted());
}

const char* DispatchedKernelName(const SetView& a, const SetView& b) {
  return SetKernelName(ChooseIntersectKernel(a, b));
}

void BitmapAndCounts(std::span<const BitmapPair> pairs,
                     std::span<uint64_t> counts) {
  CNE_CHECK(counts.size() == pairs.size())
      << "one count per pair: " << counts.size() << " vs " << pairs.size();
  std::fill(counts.begin(), counts.end(), uint64_t{0});
  size_t max_words = 0;
  for (const BitmapPair& pair : pairs) {
    CNE_CHECK(pair.partner->NumBits() == pair.source->NumBits())
        << "a pair's bitsets must span one domain";
    max_words = std::max(max_words, pair.source->Words().size());
  }
  const simd::WordKernels& kernels = simd::ActiveWordKernels();
  // Slice-major: every pair's words [lo, lo + kPairSliceWords) before any
  // pair's next slice, so the slices of every view the pairs touch stay
  // cached across the whole pass instead of being refetched per pair.
  for (size_t lo = 0; lo < max_words; lo += kPairSliceWords) {
    size_t i = 0;
    while (i < pairs.size()) {
      // One group: the run of pairs sharing this source. Four partners
      // per load of the source's slice, the remainder one by one.
      const DenseBitset* source = pairs[i].source;
      size_t group_end = i + 1;
      while (group_end < pairs.size() && pairs[group_end].source == source) {
        ++group_end;
      }
      const size_t words = source->Words().size();
      if (lo >= words) {  // a group over a smaller domain is done
        i = group_end;
        continue;
      }
      const size_t n = std::min(kPairSliceWords, words - lo);
      const uint64_t* a = source->Words().data() + lo;
      for (; i + 4 <= group_end; i += 4) {
        const uint64_t* b[4];
        for (size_t k = 0; k < 4; ++k) {
          b[k] = pairs[i + k].partner->Words().data() + lo;
        }
        uint64_t block[4];
        kernels.and_popcount4(a, b, n, block);
        for (size_t k = 0; k < 4; ++k) counts[i + k] += block[k];
      }
      for (; i < group_end; ++i) {
        counts[i] += kernels.and_popcount(
            a, pairs[i].partner->Words().data() + lo, n);
      }
    }
  }
}

}  // namespace cne
