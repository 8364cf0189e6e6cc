// psme::sim — simulation trace log.
//
// A lightweight structured event log. Components record what happened and
// when; tests and benches query it afterwards. Severity levels let noisy
// frame-level detail be filtered from security-relevant decisions.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace psme::sim {

enum class TraceLevel : std::uint8_t {
  kDebug = 0,   // frame-level detail
  kInfo = 1,    // normal component activity
  kSecurity = 2,// policy decisions, blocked accesses, attacks
  kError = 3,   // protocol errors, integrity failures
};

[[nodiscard]] std::string_view to_string(TraceLevel level) noexcept;

/// One recorded trace entry. `component` views the recording Trace's
/// table of component names and `message` views its text arena, so both
/// stay valid while that Trace lives and until its clear().
struct TraceEntry {
  SimTime at{};
  TraceLevel level{TraceLevel::kInfo};
  std::string_view component;  // e.g. "can.bus", "hpe.ecu", "core.update"
  std::string_view message;
};

/// A trace message joined from pieces in a buffer on the stack, so an
/// emitter can compose one without a heap string. A message longer than
/// the buffer (only an unusually long node name makes one) is joined on
/// the heap instead, so the text is always exact. Views its own storage:
/// pass it straight to Trace::record().
class TraceText {
 public:
  explicit TraceText(std::initializer_list<std::string_view> pieces);

  TraceText(const TraceText&) = delete;
  TraceText& operator=(const TraceText&) = delete;

  // Implicit so that it passes wherever a message view is taken.
  operator std::string_view() const noexcept { return text_; }

 private:
  std::array<char, 128> buffer_;  // only [0, text_.size()) is written
  std::string spill_;             // the text when it outgrows buffer_
  std::string_view text_;
};

/// Append-only trace log with level filtering at record time.
///
/// Contract for emitters (DESIGN.md §8): a component formats a message
/// only after keeps() says the entry will be stored, so a trace that
/// filters a level out costs that level's sites one comparison and no
/// allocation.
class Trace {
 public:
  /// Size of one chunk of the text arena that kept messages are copied
  /// into. A message longer than this gets a chunk of its own.
  static constexpr std::size_t kTextChunk = 16 * 1024;

  explicit Trace(TraceLevel min_level = TraceLevel::kInfo)
      : min_level_(min_level) {}

  // Entries view this trace's component table and text arena, so a
  // copy's entries would still view the original's.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records an entry if `level >= min_level()`. Each distinct component
  /// name is stored once and the message is copied into the text arena,
  /// so a kept entry allocates only when the entry vector or the arena
  /// needs to grow.
  void record(SimTime at, TraceLevel level, std::string_view component,
              std::string_view message);

  /// True when record() at `level` would store the entry.
  [[nodiscard]] bool keeps(TraceLevel level) const noexcept {
    return level >= min_level_;
  }

  [[nodiscard]] TraceLevel min_level() const noexcept { return min_level_; }
  void set_min_level(TraceLevel level) noexcept { min_level_ = level; }

  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Drops every entry and the text they view; the component table stays.
  void clear() noexcept;

  /// Number of entries at exactly `level`.
  [[nodiscard]] std::size_t count(TraceLevel level) const noexcept;

  /// Number of entries whose component matches exactly.
  [[nodiscard]] std::size_t count_component(std::string_view component) const noexcept;

  /// Invokes `fn` for each entry matching the predicate arguments; empty
  /// component matches all.
  void for_each(std::string_view component,
                const std::function<void(const TraceEntry&)>& fn) const;

  /// Renders entries as "t=12.345ms [SEC ] can.bus: message" lines.
  [[nodiscard]] std::string render() const;

 private:
  /// Copies `text` into the arena and returns the copy.
  std::string_view store(std::string_view text);

  TraceLevel min_level_;
  std::set<std::string, std::less<>> components_;  // nodes never move
  std::vector<TraceEntry> entries_;
  // The text arena: chunks never move or shrink while the trace keeps
  // them, so entries may view them. Messages fill the open chunk at
  // `cursor_`, which has `room_` characters left.
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;
  std::size_t room_ = 0;
};

}  // namespace psme::sim
