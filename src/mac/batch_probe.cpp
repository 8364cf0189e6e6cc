#include "mac/batch_probe.h"

namespace psme::mac::probe {

std::uint32_t probe_depth(const std::uint64_t* slots, std::size_t mask,
                          std::uint64_t key, std::size_t origin) noexcept {
  std::size_t i = origin;
  for (std::uint32_t steps = 1;; ++steps) {
    const std::uint64_t k = slots[i];
    if (k == key || k == 0 || steps > mask) return steps;
    i = (i + 1) & mask;
  }
}

}  // namespace psme::mac::probe
