// Deterministic pseudo-random number generation for libcne.
//
// The library is a simulation of a randomized privacy protocol, so every
// source of randomness flows through an explicit `Rng` instance. `Rng`
// implements xoshiro256++ (Blackman & Vigna, 2019), seeded through
// SplitMix64 so that any 64-bit seed yields a well-mixed state. It
// satisfies the C++ `UniformRandomBitGenerator` concept. Every
// distribution below is written out here rather than taken from
// `<random>`: the algorithms behind `std::*_distribution` are
// implementation-defined, and released bytes must not depend on the
// standard library build.

#ifndef CNE_UTIL_RNG_H_
#define CNE_UTIL_RNG_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace cne {

/// xoshiro256++ generator with SplitMix64 seeding.
///
/// Not thread-safe; create one instance per thread (use `Split()` to derive
/// independent streams deterministically).
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed. Equal seeds give equal
  /// streams on every platform.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next 64 random bits.
  uint64_t operator()() { return NextU64(); }

  /// Returns the next 64 random bits. Inline: the word-parallel RR sampler
  /// draws several words per 64 released bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble();

  /// Returns an integer uniformly distributed in [0, bound). Requires
  /// bound > 0. Uses Lemire's nearly-divisionless rejection method.
  uint64_t UniformInt(uint64_t bound);

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Draws from the Laplace distribution with location 0 and scale b > 0.
  double Laplace(double scale);

  /// Draws from the exponential distribution with rate lambda > 0.
  double Exponential(double lambda);

  /// Draws from the standard normal distribution (Marsaglia polar method).
  double Gaussian();

  /// Samples k distinct integers uniformly from [0, n) using Robert Floyd's
  /// algorithm. Returns them in unspecified order. Requires k <= n.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

  /// Derives an independent generator deterministically from this one.
  /// Advances this generator's state, so successive calls yield distinct
  /// children.
  Rng Split();

  /// Derives an independent generator for substream `stream` without
  /// advancing this generator. The child depends only on (current state,
  /// stream), never on call order, so concurrent workers that fork the
  /// same parent by work-item index draw byte-identical noise regardless
  /// of thread count or scheduling. Distinct streams are independent
  /// (splitmix64-hashed seeding).
  Rng Fork(uint64_t stream) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace cne

#endif  // CNE_UTIL_RNG_H_
