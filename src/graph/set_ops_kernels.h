// Internal: per-ISA word-kernel entry points behind graph/set_ops.
//
// Each ISA tier lives in its own translation unit compiled with that
// tier's arch flags (src/CMakeLists.txt sets them per file), so the
// vector instructions can never leak into code that runs before the
// CPUID dispatch picks a level:
//
//   set_ops.cc        — the scalar reference kernels (std::popcount),
//                       always compiled with the base arch flags.
//   set_ops_avx2.cc   — 256-bit AND + nibble-LUT vpshufb popcount
//                       (Mula's algorithm; AVX2 has no vector popcount).
//   set_ops_avx512.cc — 512-bit vpandq + native vpopcntq (VPOPCNTDQ),
//                       masked loads for the ragged tail when the word
//                       count is not a multiple of 8 (domain % 512 != 0).
//
// Each tier fills the same table:
//
//   kernel          result                           caller
//   --------------  -------------------------------  ---------------------
//   and_popcount    popcount(a & b)                  IntersectBitmapAnd
//   and_popcount4   popcount(a & b[k]), k = 0..3,    BitmapAndCounts (one
//                   one load of a per word           source, four partners)
//   popcount        popcount(w)                      DenseBitset::Count
//
// All three agree bit-for-bit on every input; tests/graph/simd_parity
// and tests/graph/set_ops_test enforce it at every level.
// The function-pointer table is resolved per call from
// ActiveSimdLevel() — one relaxed atomic load — so tests and benches
// can re-point it mid-process via ForceSimdLevel().
//
// Contract: `a`, `w` and every `b` (b[0..3] for and_popcount4) point at
// readable uint64_t ranges of length `n`; the ranges may alias.
// DenseBitset word storage is 64-byte aligned (alignment contract in
// set_ops.h), so vector loads from word 0 never split a cache line; the
// kernels still use unaligned load encodings, which cost nothing on
// aligned addresses and keep subspan callers legal.

#ifndef CNE_GRAPH_SET_OPS_KERNELS_H_
#define CNE_GRAPH_SET_OPS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

// The vector TUs exist only on x86-64; elsewhere WordKernelsFor returns
// scalar for every level (and cpu_features never detects above scalar).
#if defined(__x86_64__) || defined(_M_X64)
#define CNE_HAVE_X86_SIMD 1
#else
#define CNE_HAVE_X86_SIMD 0
#endif

namespace cne {
namespace simd {

/// popcount(a[i] & b[i]) and popcount(w[i]) summed over i in [0, n);
/// and_popcount4 writes counts[k] = popcount(a[i] & b[k][i]) summed over
/// i, for k in [0, 4), reading each word of `a` once.
struct WordKernels {
  uint64_t (*and_popcount)(const uint64_t* a, const uint64_t* b, size_t n);
  void (*and_popcount4)(const uint64_t* a, const uint64_t* const* b,
                        size_t n, uint64_t* counts);
  uint64_t (*popcount)(const uint64_t* w, size_t n);
};

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b, size_t n);
void AndPopcount4Scalar(const uint64_t* a, const uint64_t* const* b,
                        size_t n, uint64_t* counts);
uint64_t PopcountScalar(const uint64_t* w, size_t n);

#if CNE_HAVE_X86_SIMD
uint64_t AndPopcountAvx2(const uint64_t* a, const uint64_t* b, size_t n);
void AndPopcount4Avx2(const uint64_t* a, const uint64_t* const* b, size_t n,
                      uint64_t* counts);
uint64_t PopcountAvx2(const uint64_t* w, size_t n);

uint64_t AndPopcountAvx512(const uint64_t* a, const uint64_t* b, size_t n);
void AndPopcount4Avx512(const uint64_t* a, const uint64_t* const* b,
                        size_t n, uint64_t* counts);
uint64_t PopcountAvx512(const uint64_t* w, size_t n);
#endif

/// The kernel table for one ISA tier; `level` must not exceed
/// DetectedSimdLevel() (guaranteed by ActiveSimdLevel()/ForceSimdLevel).
const WordKernels& WordKernelsFor(SimdLevel level);

/// Table for the level the process is currently dispatching on.
inline const WordKernels& ActiveWordKernels() {
  return WordKernelsFor(ActiveSimdLevel());
}

}  // namespace simd
}  // namespace cne

#endif  // CNE_GRAPH_SET_OPS_KERNELS_H_
