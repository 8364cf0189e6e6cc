// psme::sim — simulation trace log.
//
// A lightweight structured event log. Components record what happened and
// when; tests and benches query it afterwards. Severity levels let noisy
// frame-level detail be filtered from security-relevant decisions.
//
// A kept entry is stored as a 24-byte record in fixed-size blocks that
// never move or regrow; its message is copied into a text arena and its
// component is an index into a table of names. Queries walk the records;
// entries() hands out a snapshot of them as TraceEntry values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
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
  /// Entries per record block. A block is allocated when the last one is
  /// full and is never moved, regrown or shrunk while the trace keeps it.
  static constexpr std::size_t kBlockEntries = 4096;
  /// Most distinct component names one trace can hold; a record() that
  /// would add one more throws std::length_error.
  static constexpr std::size_t kMaxComponents = 65536;

  explicit Trace(TraceLevel min_level = TraceLevel::kInfo)
      : min_level_(min_level) {}

  // Entries view this trace's component table and text arena, so a
  // copy's entries would still view the original's.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records an entry if `level >= min_level()`. Each distinct component
  /// name is stored once and the message is copied into the text arena,
  /// so a kept entry allocates only when it opens a record block or an
  /// arena chunk, or the list of either grows. Throws std::length_error
  /// for a message of 2^32 characters or more, or a component name beyond
  /// kMaxComponents; the trace is unchanged then.
  void record(SimTime at, TraceLevel level, std::string_view component,
              std::string_view message);

  /// True when record() at `level` would store the entry.
  [[nodiscard]] bool keeps(TraceLevel level) const noexcept {
    return level >= min_level_;
  }

  [[nodiscard]] TraceLevel min_level() const noexcept { return min_level_; }
  void set_min_level(TraceLevel level) noexcept { min_level_ = level; }

  /// A snapshot of every entry, oldest first. It copies each entry (not
  /// its text): take it once, not once per entry. Its views stay valid
  /// until clear() or the end of the trace.
  [[nodiscard]] std::vector<TraceEntry> entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
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
  /// One kept entry as stored: 24 bytes where a TraceEntry takes 48.
  /// Left uninitialised until record() writes it.
  struct Record {
    SimTime at;
    const char* text;          // into the text arena
    std::uint32_t length;      // of the text
    std::uint16_t component;   // into names_
    TraceLevel level;
  };
  static_assert(sizeof(Record) == 24);

  /// A component recently looked up, keyed by the address of the caller's
  /// text. An address may be reused for another name, so a hit counts
  /// only when `name` equals the caller's text too.
  struct MemoSlot {
    const char* key = nullptr;
    std::string_view name;     // views names_
    std::uint16_t index = 0;
  };
  static constexpr std::size_t kMemoSlots = 32;

  /// Index of `component` in names_, added if new.
  [[nodiscard]] std::uint16_t component_index(std::string_view component);
  /// Index of `component` in names_, or kMaxComponents if absent.
  [[nodiscard]] std::size_t find_component(
      std::string_view component) const noexcept;
  /// Copies `text` into the arena and returns the copy.
  [[nodiscard]] std::string_view store(std::string_view text);
  [[nodiscard]] TraceEntry entry(const Record& record) const noexcept;
  /// Calls `fn` on each record, oldest first.
  template <typename Fn>
  void visit(Fn&& fn) const;

  TraceLevel min_level_;
  // The component table: a deque never moves its names, so entries may
  // view them; name_index_ views them too.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint16_t> name_index_;
  std::array<MemoSlot, kMemoSlots> memo_{};
  // The records: block b holds entries [b * kBlockEntries, ...), and
  // every block but the last is full.
  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::size_t size_ = 0;
  // The text arena: chunks never move or shrink while the trace keeps
  // them, so entries may view them. Messages fill the open chunk at
  // `cursor_`, which has `room_` characters left.
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;
  std::size_t room_ = 0;
};

}  // namespace psme::sim
