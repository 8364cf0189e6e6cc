#include "sim/trace.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace psme::sim {

std::string_view to_string(TraceLevel level) noexcept {
  switch (level) {
    case TraceLevel::kDebug: return "DBG";
    case TraceLevel::kInfo: return "INFO";
    case TraceLevel::kSecurity: return "SEC";
    case TraceLevel::kError: return "ERR";
  }
  return "?";
}

TraceText::TraceText(std::initializer_list<std::string_view> pieces) {
  std::size_t size = 0;
  for (const std::string_view piece : pieces) size += piece.size();
  if (size <= buffer_.size()) {
    char* out = buffer_.data();
    for (const std::string_view piece : pieces) {
      out = std::copy(piece.begin(), piece.end(), out);
    }
    text_ = std::string_view(buffer_.data(), size);
    return;
  }
  spill_.reserve(size);
  for (const std::string_view piece : pieces) spill_ += piece;
  text_ = spill_;
}

void Trace::record(SimTime at, TraceLevel level, std::string_view component,
                   std::string_view message) {
  if (!keeps(level)) return;
  if (message.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "Trace::record: message of 2^32 characters or more");
  }
  const std::uint16_t index = component_index(component);
  Record& r = next_record();
  const std::string_view text = store(message);
  r.at = at;
  r.text = text.data();
  r.length = static_cast<std::uint32_t>(text.size());
  r.component = index;
  r.level = level;
  r.deferred = false;
  commit();
}

void Trace::open_block() {
  blocks_.push_back(std::make_unique_for_overwrite<Record[]>(kBlockEntries));
  next_ = blocks_.back().get();
  block_end_ = next_ + kBlockEntries;
}

std::uint16_t Trace::component_index(std::string_view component) {
  static_assert(std::has_single_bit(kMemoSlots));
  const auto address = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(component.data()));
  MemoSlot& slot = memo_[(address * 0x9E3779B97F4A7C15ULL) >>
                         (64 - std::countr_zero(kMemoSlots))];
  if (slot.key == component.data() && slot.key != nullptr &&
      slot.name == component) {
    return slot.index;
  }
  auto it = name_index_.find(component);
  if (it == name_index_.end()) {
    if (names_.size() == kMaxComponents) {
      throw std::length_error("Trace::record: too many component names");
    }
    const std::string& name = names_.emplace_back(component);
    it = name_index_
             .emplace(name, static_cast<std::uint16_t>(names_.size() - 1))
             .first;
  }
  slot = MemoSlot{component.data(), it->first, it->second};
  return it->second;
}

void Trace::refuse(TraceComponent component) {
  throw std::invalid_argument(
      component.owner_ == nullptr
          ? "Trace::record: a default TraceComponent names no component"
          : "Trace::record: the TraceComponent belongs to another trace");
}

std::size_t Trace::find_component(std::string_view component) const noexcept {
  const auto it = name_index_.find(component);
  return it == name_index_.end() ? kMaxComponents : it->second;
}

std::string_view Trace::store(std::string_view text) {
  if (text.size() > room_) {
    if (text.size() > kTextChunk) {
      // A chunk of its own; the open chunk stays open for what follows.
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(text.size()));
      char* own = chunks_.back().get();
      std::copy(text.begin(), text.end(), own);
      return {own, text.size()};
    }
    open_chunk();
  }
  char* const copy = cursor_;
  cursor_ = std::copy(text.begin(), text.end(), cursor_);
  room_ -= text.size();
  return {copy, text.size()};
}

void Trace::open_chunk() const {
  chunks_.push_back(std::make_unique_for_overwrite<char[]>(kTextChunk));
  cursor_ = chunks_.back().get();
  room_ = kTextChunk;
}

void Trace::render_deferred() const {
  for (std::size_t i = rendered_; i < size_; ++i) {
    Record& r = blocks_[i / kBlockEntries][i % kBlockEntries];
    if (!r.deferred) continue;
    const TraceFormat& format = *r.format;
    if (format.max_length > room_) open_chunk();
    char* const text = cursor_;
    cursor_ = format.render(text, r.arg);
    const auto length = static_cast<std::size_t>(cursor_ - text);
    room_ -= length;
    r.text = text;
    r.length = static_cast<std::uint32_t>(length);
    r.deferred = false;
  }
  // Only now: a pass cut short by a failed chunk left the rest deferred.
  rendered_ = size_;
}

TraceEntry Trace::entry(const Record& record) const noexcept {
  return TraceEntry{record.at, record.level, names_[record.component],
                    std::string_view(record.text, record.length)};
}

template <typename Fn>
void Trace::visit(Fn&& fn) const {
  std::size_t left = size_;
  for (const std::unique_ptr<Record[]>& block : blocks_) {
    const std::size_t n = std::min(left, kBlockEntries);
    for (std::size_t i = 0; i < n; ++i) fn(block[i]);
    left -= n;
  }
}

std::vector<TraceEntry> Trace::entries() const {
  render_deferred();
  std::vector<TraceEntry> out;
  out.reserve(size_);
  visit([&](const Record& r) { out.push_back(entry(r)); });
  return out;
}

void Trace::clear() noexcept {
  blocks_.clear();
  next_ = nullptr;
  block_end_ = nullptr;
  size_ = 0;
  rendered_ = 0;
  chunks_.clear();
  cursor_ = nullptr;
  room_ = 0;
}

std::size_t Trace::count(TraceLevel level) const noexcept {
  std::size_t n = 0;
  visit([&](const Record& r) { n += r.level == level ? 1 : 0; });
  return n;
}

std::size_t Trace::count_component(std::string_view component) const noexcept {
  const std::size_t index = find_component(component);
  std::size_t n = 0;
  visit([&](const Record& r) { n += r.component == index ? 1 : 0; });
  return n;
}

void Trace::for_each(std::string_view component,
                     const std::function<void(const TraceEntry&)>& fn) const {
  render_deferred();
  const std::size_t index = find_component(component);
  visit([&](const Record& r) {
    if (component.empty() || r.component == index) fn(entry(r));
  });
}

std::string Trace::render() const {
  render_deferred();
  std::ostringstream out;
  visit([&](const Record& r) {
    const TraceEntry e = entry(r);
    out << "t=" << to_millis(e.at) << "ms [" << to_string(e.level) << "] "
        << e.component << ": " << e.message << '\n';
  });
  return out.str();
}

}  // namespace psme::sim
