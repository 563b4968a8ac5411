// AVX2 word kernels (see set_ops_kernels.h). This TU alone is compiled
// with -mavx2; nothing here may be called before the CPUID dispatch in
// util/cpu_features confirms AVX2 (WordKernelsFor enforces that).
//
// AVX2 has no vector popcount, so the 256-bit popcount is Mula's
// nibble-LUT algorithm: split each byte into two nibbles, look both up
// in a 16-entry per-lane vpshufb table of nibble popcounts, add, then
// horizontally sum bytes into 64-bit lanes with vpsadbw against zero.
// The u64 accumulator lanes cannot overflow: each vpsadbw result is
// ≤ 2048, far below 2^64 even over the largest graph domains.

#include "graph/set_ops_kernels.h"

#if CNE_HAVE_X86_SIMD

#include <immintrin.h>

#include <bit>

namespace cne {
namespace simd {

namespace {

// Per-byte popcount of v via two 16-entry nibble lookups.
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

// Byte counts -> four u64 partial sums.
inline __m256i SumBytesToQwords(__m256i bytes) {
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

inline uint64_t HorizontalSum(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(sum, 1));
}

// Shared shape of the two-operand kernels: combine four words at a time with
// `combine`, popcount, and fall back to scalar for the <4-word tail.
template <typename Combine, typename CombineScalar>
inline uint64_t Sweep(const uint64_t* a, const uint64_t* b, size_t n,
                      Combine combine, CombineScalar combine_scalar) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, SumBytesToQwords(PopcountBytes(
                                    combine(va, vb))));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(combine_scalar(a[i], b[i])));
  }
  return total;
}

}  // namespace

uint64_t AndPopcountAvx2(const uint64_t* a, const uint64_t* b, size_t n) {
  return Sweep(
      a, b, n, [](__m256i x, __m256i y) { return _mm256_and_si256(x, y); },
      [](uint64_t x, uint64_t y) { return x & y; });
}

void AndPopcount4Avx2(const uint64_t* a, const uint64_t* const* b, size_t n,
                      uint64_t* counts) {
  __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    for (int k = 0; k < 4; ++k) {
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b[k] + i));
      acc[k] = _mm256_add_epi64(
          acc[k], SumBytesToQwords(PopcountBytes(_mm256_and_si256(va, vb))));
    }
  }
  for (int k = 0; k < 4; ++k) {
    uint64_t total = HorizontalSum(acc[k]);
    for (size_t j = i; j < n; ++j) {
      total += static_cast<uint64_t>(std::popcount(a[j] & b[k][j]));
    }
    counts[k] = total;
  }
}

uint64_t PopcountAvx2(const uint64_t* w, size_t n) {
  return Sweep(
      w, w, n, [](__m256i x, __m256i) { return x; },
      [](uint64_t x, uint64_t) { return x; });
}

}  // namespace simd
}  // namespace cne

#endif  // CNE_HAVE_X86_SIMD
