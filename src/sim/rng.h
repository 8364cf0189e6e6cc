// psme::sim — deterministic random number generation.
//
// Simulations must be reproducible: every run with the same seed must
// produce bit-identical event orderings. We therefore avoid
// std::default_random_engine (implementation-defined) and implement
// xoshiro256** 1.0 (Blackman & Vigna, public domain algorithm), a fast,
// well-tested generator suitable for simulation workloads (not for
// cryptography — the update-integrity code in psme::core uses a separate
// keyed construction).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

namespace psme::sim {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, but the convenience members below are
/// preferred because they are portable across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Two generators with equal seeds produce equal
  /// streams. The seed is expanded with splitmix64 so that small seeds
  /// (0, 1, 2, ...) still yield well-mixed states.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive). Precondition: lo <= hi.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    // 53 high bits -> double in [0, 1) with full mantissa resolution.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool chance(double p) noexcept {
    return uniform01() < std::clamp(p, 0.0, 1.0);
  }

  /// Exponentially distributed value with the given mean (> 0). Used for
  /// Poisson-process inter-arrival times in traffic generators.
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Creates an independent child generator. Streams of parent and child
  /// are decorrelated; useful to give each simulated node its own RNG while
  /// preserving whole-simulation determinism.
  [[nodiscard]] Rng split() noexcept;

 private:
  static constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace psme::sim
