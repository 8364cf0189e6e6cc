#include "hpe/approved_list.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace psme::hpe {

namespace {

[[nodiscard]] constexpr std::uint64_t bit_of(std::uint32_t raw) noexcept {
  return std::uint64_t{1} << (raw % 64);
}

}  // namespace

void ApprovedIdList::add(can::CanId id) {
  if (id.is_extended()) {
    extended_.insert(id.raw());
  } else {
    standard_[id.raw() / 64] |= bit_of(id.raw());
  }
}

void ApprovedIdList::add_masked(MaskedEntry entry) {
  masked_.push_back(entry);
}

bool ApprovedIdList::remove(can::CanId id) {
  if (id.is_extended()) return extended_.erase(id.raw()) != 0;
  std::uint64_t& word = standard_[id.raw() / 64];
  const bool present = (word & bit_of(id.raw())) != 0;
  word &= ~bit_of(id.raw());
  return present;
}

bool ApprovedIdList::contains(can::CanId id) const noexcept {
  const bool exact =
      id.is_extended()
          ? extended_.count(id.raw()) != 0
          : (standard_[id.raw() / 64] & bit_of(id.raw())) != 0;
  if (exact) return true;
  return std::any_of(masked_.begin(), masked_.end(),
                     [id](const MaskedEntry& e) { return e.matches(id); });
}

std::size_t ApprovedIdList::exact_count() const noexcept {
  std::size_t n = extended_.size();
  for (const std::uint64_t word : standard_) {
    n += static_cast<std::size_t>(std::popcount(word));
  }
  return n;
}

void ApprovedIdList::clear() noexcept {
  standard_.fill(0);
  extended_.clear();
  masked_.clear();
}

std::string ApprovedIdList::to_string() const {
  std::ostringstream out;
  for (std::uint32_t raw = 0; raw <= can::CanId::kMaxStandard; ++raw) {
    if ((standard_[raw / 64] & bit_of(raw)) != 0) {
      out << "std 0x" << std::hex << raw << std::dec << '\n';
    }
  }
  for (const std::uint32_t raw : extended_) {
    out << "ext 0x" << std::hex << raw << std::dec << '\n';
  }
  for (const auto& m : masked_) {
    out << (m.extended ? "ext " : "std ") << "value=0x" << std::hex << m.value
        << " mask=0x" << m.mask << std::dec << '\n';
  }
  return out.str();
}

}  // namespace psme::hpe
