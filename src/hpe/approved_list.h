// psme::hpe — approved CAN message-ID lists.
//
// "Approved reading and writing list: It holds a list of approved CAN
// messages IDs that provides necessary information to the node ..."
// (paper Sec. V-B.2, Fig. 4). Hardware implementations hold such lists in
// CAM/LUT structures supporting exact entries and masked entries; both are
// modelled. The 11-bit identifier space is small enough for a LUT: one bit
// per id in a 2048-bit table, answered in O(1). Exact 29-bit ids are
// sparse and kept in an ordered set (O(log n)); masked entries are tried
// in order (O(m)), mirroring a priority-encoded TCAM fallback.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "can/frame.h"

namespace psme::hpe {

/// A masked entry matches ids where (id & mask) == (value & mask).
struct MaskedEntry {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;
  bool extended = false;

  [[nodiscard]] bool matches(can::CanId id) const noexcept {
    return id.is_extended() == extended && (id.raw() & mask) == (value & mask);
  }
};

class ApprovedIdList {
 public:
  /// Adds one exact standard/extended identifier.
  void add(can::CanId id);
  /// Adds a masked entry (family of identifiers).
  void add_masked(MaskedEntry entry);
  /// Removes an exact identifier; returns true if present.
  bool remove(can::CanId id);

  [[nodiscard]] bool contains(can::CanId id) const noexcept;
  [[nodiscard]] std::size_t exact_count() const noexcept;
  [[nodiscard]] std::size_t masked_count() const noexcept { return masked_.size(); }
  [[nodiscard]] bool empty() const noexcept {
    return exact_count() == 0 && masked_.empty();
  }
  void clear() noexcept;

  /// One line per entry, for audit reports: exact standard ids ascending,
  /// then exact extended ids ascending, then masked entries in the order
  /// they were added.
  [[nodiscard]] std::string to_string() const;

 private:
  /// Bit `raw % 64` of word `raw / 64` is set when standard id `raw` is
  /// approved. CanId guarantees a standard raw value is at most 0x7FF.
  std::array<std::uint64_t, (can::CanId::kMaxStandard + 1) / 64> standard_{};
  std::set<std::uint32_t> extended_;
  std::vector<MaskedEntry> masked_;
};

}  // namespace psme::hpe
