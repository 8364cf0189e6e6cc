// psme::mac — probe primitives for the flat hash tables.
//
// Every hot table in the repo (the policy AvTable, the sealed
// CompiledPolicyImage index) is the same shape: a power-of-two
// open-addressing slot array of 64-bit keys, linear probing, key 0 =
// empty. find_slot below is the one probe walk all of them share.
//
// Prefetch: probe waves want the NEXT key's slot line in flight while
// the current key resolves; prefetch_slot wraps __builtin_prefetch so
// callers stay portable (it degrades to a no-op where unsupported).
#pragma once

#include <cstddef>
#include <cstdint>

namespace psme::mac::probe {

/// Generic read prefetch. No-op where the builtin is unavailable.
inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 0 /* read */, 1 /* low temporal locality */);
#else
  (void)address;
#endif
}

/// Read prefetch of the slot line a probe will start at.
inline void prefetch_slot(const std::uint64_t* slots, std::size_t index) noexcept {
  prefetch(slots + index);
}

/// Finds `key` in the open-addressing table `slots` (power-of-two size
/// `mask + 1`, linear probing, 0 = empty): returns the first slot index
/// in probe order from `origin` whose key equals `key` OR is empty —
/// the caller distinguishes hit from miss by re-reading the slot. The
/// walk covers at most one revolution; a full table with no match
/// returns `origin`, which the caller sees as a mismatch (fail-closed).
/// Both tables keep their load factor low (the sealed index at most
/// 0.5, the AvTable at most 0.7), so most probes answer at the origin
/// slot (the bench probe-depth histograms pin this) and a plain scalar
/// walk is the whole kernel.
[[nodiscard]] inline std::size_t find_slot(const std::uint64_t* slots,
                                           std::size_t mask,
                                           std::uint64_t key,
                                           std::size_t origin) noexcept {
  std::size_t i = origin;
  for (std::size_t steps = 0; steps <= mask; ++steps) {
    const std::uint64_t k = slots[i];
    if (k == key || k == 0) return i;
    i = (i + 1) & mask;
  }
  return origin;
}

/// Probe depth (slots inspected, >= 1) the walk pays for `key` — the
/// observability twin of find_slot, feeding the bench probe-depth
/// histograms. Counts up to the same one-revolution bound.
[[nodiscard]] std::uint32_t probe_depth(const std::uint64_t* slots,
                                        std::size_t mask, std::uint64_t key,
                                        std::size_t origin) noexcept;

}  // namespace psme::mac::probe
