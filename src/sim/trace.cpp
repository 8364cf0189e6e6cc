#include "sim/trace.h"

#include <algorithm>
#include <sstream>

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
  auto name = components_.find(component);
  if (name == components_.end()) name = components_.emplace(component).first;
  entries_.push_back(TraceEntry{at, level, *name, store(message)});
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
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(kTextChunk));
    cursor_ = chunks_.back().get();
    room_ = kTextChunk;
  }
  char* const copy = cursor_;
  cursor_ = std::copy(text.begin(), text.end(), cursor_);
  room_ -= text.size();
  return {copy, text.size()};
}

void Trace::clear() noexcept {
  entries_.clear();
  chunks_.clear();
  cursor_ = nullptr;
  room_ = 0;
}

std::size_t Trace::count(TraceLevel level) const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.level == level) ++n;
  }
  return n;
}

std::size_t Trace::count_component(std::string_view component) const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.component == component) ++n;
  }
  return n;
}

void Trace::for_each(std::string_view component,
                     const std::function<void(const TraceEntry&)>& fn) const {
  for (const auto& e : entries_) {
    if (component.empty() || e.component == component) fn(e);
  }
}

std::string Trace::render() const {
  std::ostringstream out;
  for (const auto& e : entries_) {
    out << "t=" << to_millis(e.at) << "ms [" << to_string(e.level) << "] "
        << e.component << ": " << e.message << '\n';
  }
  return out.str();
}

}  // namespace psme::sim
