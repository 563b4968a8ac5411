// AVX-512 word kernels (see set_ops_kernels.h). This TU alone is
// compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq;
// nothing here may be called before the CPUID dispatch in
// util/cpu_features confirms the whole tier (WordKernelsFor enforces
// that).
//
// The body is the natural form the instruction set was built for:
// vpandq + native vpopcntq (VPOPCNTDQ), eight words per
// iteration. The ragged tail — word counts not divisible by 8, i.e.
// domain % 512 != 0 — is handled with a masked zero-fill load
// (_mm512_maskz_loadu_epi64) instead of a scalar epilogue, so even a
// 1-word bitset takes the vector path and the parity tests cover the
// mask arithmetic.

#include "graph/set_ops_kernels.h"

#if CNE_HAVE_X86_SIMD

#include <immintrin.h>

namespace cne {
namespace simd {

namespace {

// Adds the eight 64-bit lanes through memory. GCC 12 warns "'__Y' is used
// uninitialized" inside _mm512_reduce_add_epi64 and the
// _mm512_extracti64x4_epi64 it is built on, so neither is used here.
inline uint64_t LaneSum(__m512i v) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  uint64_t sum = 0;
  for (uint64_t lane : lanes) sum += lane;
  return sum;
}

template <typename Combine>
inline uint64_t Sweep(const uint64_t* a, const uint64_t* b, size_t n,
                      Combine combine) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(combine(va, vb)));
  }
  if (i < n) {
    const __mmask8 tail =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + i);
    // Zero-filled lanes contribute popcount 0 whatever `combine` is
    // (AND and identity both map 0,0 -> 0).
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(combine(va, vb)));
  }
  return LaneSum(acc);
}

}  // namespace

uint64_t AndPopcountAvx512(const uint64_t* a, const uint64_t* b, size_t n) {
  return Sweep(a, b, n,
               [](__m512i x, __m512i y) { return _mm512_and_si512(x, y); });
}

void AndPopcount4Avx512(const uint64_t* a, const uint64_t* const* b,
                        size_t n, uint64_t* counts) {
  __m512i acc[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                    _mm512_setzero_si512(), _mm512_setzero_si512()};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    for (int k = 0; k < 4; ++k) {
      acc[k] = _mm512_add_epi64(
          acc[k], _mm512_popcnt_epi64(
                      _mm512_and_si512(va, _mm512_loadu_si512(b[k] + i))));
    }
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + i);
    for (int k = 0; k < 4; ++k) {
      acc[k] = _mm512_add_epi64(
          acc[k],
          _mm512_popcnt_epi64(_mm512_and_si512(
              va, _mm512_maskz_loadu_epi64(tail, b[k] + i))));
    }
  }
  for (int k = 0; k < 4; ++k) {
    counts[k] = LaneSum(acc[k]);
  }
}

uint64_t PopcountAvx512(const uint64_t* w, size_t n) {
  return Sweep(w, w, n, [](__m512i x, __m512i) { return x; });
}

}  // namespace simd
}  // namespace cne

#endif  // CNE_HAVE_X86_SIMD
