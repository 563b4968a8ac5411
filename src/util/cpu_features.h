// Runtime CPU ISA detection for the SIMD set-operation kernels.
//
// The hot word-AND+popcount and batched-probe kernels in graph/set_ops
// have three implementations — portable scalar, AVX2 (nibble-LUT vpshufb
// popcount), and AVX-512 (vpopcntq + masked tails) — compiled into
// per-ISA translation units with per-file arch flags. Which one runs is
// decided *once per process* here, from CPUID/xgetbv:
//
//   * kScalar  — always available (and the only level off x86-64).
//   * kAvx2    — CPUID.7.0:EBX[AVX2], with OS XMM+YMM state support
//                (OSXSAVE + XCR0 bits 1..2).
//   * kAvx512  — AVX-512 F+BW+VL plus VPOPCNTDQ, with OS ZMM/opmask
//                state support (XCR0 bits 5..7).
//
// The environment variable CNE_SIMD_LEVEL=scalar|avx2|avx512 overrides
// the detected level (clamped to what the hardware supports, with a
// warning) so tests, benches, and CI can force every code path on one
// machine. ForceSimdLevel() does the same from inside a process — the
// SIMD/scalar parity suites sweep it.

#ifndef CNE_UTIL_CPU_FEATURES_H_
#define CNE_UTIL_CPU_FEATURES_H_

#include <optional>
#include <string_view>
#include <vector>

namespace cne {

/// The ISA tiers the set-operation kernels are compiled for, in strictly
/// increasing capability order (every level includes the ones below it).
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

inline constexpr int kNumSimdLevels = 3;

/// Highest level this machine can execute, probed via CPUID/xgetbv once
/// and cached. Never throws; returns kScalar on non-x86-64 builds.
SimdLevel DetectedSimdLevel();

/// The level the kernels dispatch on: DetectedSimdLevel() clamped down by
/// the CNE_SIMD_LEVEL environment variable (read once) or by the last
/// ForceSimdLevel() call. One relaxed atomic load on the fast path.
SimdLevel ActiveSimdLevel();

/// Overrides ActiveSimdLevel() at runtime. Levels above
/// DetectedSimdLevel() are clamped (with a warning) rather than allowed
/// to emit illegal instructions; the set-op and parity tests sweep this
/// across AvailableSimdLevels().
void ForceSimdLevel(SimdLevel level);

/// Every level this machine can execute, ascending: {kScalar, ...,
/// DetectedSimdLevel()}.
std::vector<SimdLevel> AvailableSimdLevels();

/// Canonical lowercase name: "scalar", "avx2", "avx512".
const char* SimdLevelName(SimdLevel level);

/// Parses a CNE_SIMD_LEVEL-style name; nullopt for anything else.
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

}  // namespace cne

#endif  // CNE_UTIL_CPU_FEATURES_H_
