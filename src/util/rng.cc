#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace cne {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion guarantees a non-zero, well-mixed state for any
  // seed, including 0.
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Lemire's method: multiply-shift with rejection to remove modulo bias.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Laplace(double scale) {
  assert(scale > 0.0);
  // Inverse CDF on a symmetric uniform: u in (-1/2, 1/2).
  double u = NextDouble() - 0.5;
  // Guard against u == -0.5 exactly (log(0)).
  if (u <= -0.5) u = -0.5 + 1e-18;
  const double sign = u < 0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::abs(u));
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = NextDouble();
  if (u >= 1.0) u = 1.0 - 1e-18;
  return -std::log1p(-u) / lambda;
}

double Rng::Gaussian() {
  // Marsaglia polar method; spare value intentionally discarded to keep the
  // generator stateless w.r.t. call ordering.
  while (true) {
    const double a = 2.0 * NextDouble() - 1.0;
    const double b = 2.0 * NextDouble() - 1.0;
    const double s = a * a + b * b;
    if (s > 0.0 && s < 1.0) {
      return a * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  assert(k <= n);
  std::vector<uint64_t> result;
  result.reserve(k);
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(k * 2);
  // Robert Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t
  // unless already chosen, else insert j. Yields a uniform k-subset.
  for (uint64_t j = n - k; j < n; ++j) {
    const uint64_t t = UniformInt(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

Rng Rng::Split() { return Rng(NextU64()); }

Rng Rng::Fork(uint64_t stream) const {
  // Hash the four state words together with the stream index through a
  // SplitMix64 chain. The parent state is read, never advanced, so the
  // child is a pure function of (state, stream); the Rng(seed) expansion
  // then re-mixes the 64-bit digest into a full xoshiro state.
  uint64_t x = stream;
  uint64_t seed = SplitMix64(x);
  for (uint64_t word : state_) {
    x ^= word;
    seed ^= SplitMix64(x);
  }
  return Rng(seed);
}

}  // namespace cne
