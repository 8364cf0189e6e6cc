#include "sim/rng.h"

#include <cmath>

namespace psme::sim {

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t range = hi - lo;
  if (range == max()) return (*this)();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t bound = range + 1;
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + v % bound;
}

double Rng::exponential(double mean) noexcept {
  // Inverse-CDF; guard against log(0).
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -mean * std::log(u);
}

Rng Rng::split() noexcept {
  return Rng((*this)() ^ 0xA3C59AC2EAD6BD5DULL);
}

}  // namespace psme::sim
