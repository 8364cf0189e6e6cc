// psme::sim — simulation trace log.
//
// A lightweight structured event log. Components record what happened and
// when; tests and benches query it afterwards. Severity levels let noisy
// frame-level detail be filtered from security-relevant decisions.
//
// A kept entry is stored as a 24-byte record in fixed-size blocks that
// never move or regrow; its message is copied into a text arena and its
// component is an index into a table of names. A message made of fixed
// text and one 32-bit argument (a CAN id, say) may instead be recorded
// deferred: the record keeps the format and the argument, and the first
// read that hands out text renders it into the arena. Queries walk the
// records; entries() hands out a snapshot of them as TraceEntry values.
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

/// How a deferred message renders: fixed text plus one 32-bit argument.
/// `render` writes the message for `arg` at `out`, at most `max_length`
/// characters, and returns its end. A format is a constant with static
/// storage, since a deferred record points to it until a read renders
/// it; one whose messages could pass kMaxLength characters does not
/// compile.
struct TraceFormat {
  using Render = char* (*)(char* out, std::uint32_t arg) noexcept;
  static constexpr std::uint32_t kMaxLength = 256;

  consteval TraceFormat(Render fn, std::uint32_t max) noexcept
      : render(fn), max_length(max) {
    if (max_length > kMaxLength) throw "TraceFormat: max_length too long";
  }

  Render render;
  std::uint32_t max_length;
};

class Trace;

/// A component name stored in one trace's table, for an emitter that
/// records often: the record() that takes it skips the name lookup. It
/// stays valid for the life of the trace that made it, since clear()
/// keeps the table.
class TraceComponent {
 public:
  TraceComponent() = default;  // names nothing; record() refuses it

 private:
  friend class Trace;
  TraceComponent(const Trace* owner, std::uint16_t index) noexcept
      : owner_(owner), index_(index) {}

  const Trace* owner_ = nullptr;
  std::uint16_t index_ = 0;
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

  /// The handle of `name` in the component table, which stores it if
  /// new. Throws std::length_error past kMaxComponents, as record() does.
  [[nodiscard]] TraceComponent component(std::string_view name) {
    return TraceComponent(this, component_index(name));
  }

  /// Records an entry whose message `format` renders from `arg`, if
  /// `level >= min_level()`. Only the record is written now; the first of
  /// entries(), for_each() and render() renders the text into the arena,
  /// and from then on the entry reads as any other. A kept entry
  /// allocates only when it opens a record block or the block list
  /// grows. Throws std::invalid_argument for a `component` this trace did
  /// not make; the trace is unchanged then.
  void record(SimTime at, TraceLevel level, TraceComponent component,
              const TraceFormat& format, std::uint32_t arg) {
    if (!keeps(level)) return;
    if (component.owner_ != this) refuse(component);
    Record& r = next_record();
    r.at = at;
    r.format = &format;
    r.arg = arg;
    r.component = component.index_;
    r.level = level;
    r.deferred = true;
    commit();
  }
  // A record keeps a pointer to its format: no temporaries.
  void record(SimTime at, TraceLevel level, TraceComponent component,
              const TraceFormat&& format, std::uint32_t arg) = delete;

  /// True when record() at `level` would store the entry.
  [[nodiscard]] bool keeps(TraceLevel level) const noexcept {
    return level >= min_level_;
  }

  [[nodiscard]] TraceLevel min_level() const noexcept { return min_level_; }
  void set_min_level(TraceLevel level) noexcept { min_level_ = level; }

  // The three reads that hand out text render every deferred entry
  // first, so a const read may write the arena: reads of one trace are
  // no more safe to run concurrently than record() is.

  /// A snapshot of every entry, oldest first. It copies each entry (not
  /// its text): take it once, not once per entry. Its views stay valid
  /// until clear() or the end of the trace.
  [[nodiscard]] std::vector<TraceEntry> entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Drops every entry and the text they view; the component table stays.
  void clear() noexcept;

  /// Number of entries at exactly `level`. Renders nothing.
  [[nodiscard]] std::size_t count(TraceLevel level) const noexcept;

  /// Number of entries whose component matches exactly. Renders nothing.
  [[nodiscard]] std::size_t count_component(std::string_view component) const noexcept;

  /// Invokes `fn` for each entry matching the predicate arguments; empty
  /// component matches all.
  void for_each(std::string_view component,
                const std::function<void(const TraceEntry&)>& fn) const;

  /// Renders entries as "t=12.345ms [SEC ] can.bus: message" lines.
  [[nodiscard]] std::string render() const;

 private:
  /// One kept entry as stored: 24 bytes where a TraceEntry takes 48.
  /// Left uninitialised until record() writes it. A deferred record holds
  /// its format and argument until render_deferred() writes its text and
  /// makes it a text record.
  struct Record {
    SimTime at;
    union {
      const char* text;           // a text record's, into the text arena
      const TraceFormat* format;  // a deferred record's
    };
    union {
      std::uint32_t length;  // of the text
      std::uint32_t arg;     // the format's argument
    };
    std::uint16_t component;   // into names_
    TraceLevel level;
    bool deferred;             // holds format and arg, not text and length
  };
  static_assert(sizeof(Record) == 24);
  static_assert(TraceFormat::kMaxLength <= kTextChunk);

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
  /// Throws the std::invalid_argument for a foreign component.
  [[noreturn]] static void refuse(TraceComponent component);
  /// Index of `component` in names_, or kMaxComponents if absent.
  [[nodiscard]] std::size_t find_component(
      std::string_view component) const noexcept;
  /// The record the next kept entry fills, opening a block if the last
  /// one is full. The entry is kept once commit() counts it, so a block
  /// opened by a record that then failed serves the next.
  [[nodiscard]] Record& next_record() {
    if (next_ == block_end_) open_block();
    return *next_;
  }
  void commit() noexcept {
    ++next_;
    ++size_;
  }
  void open_block();
  /// Copies `text` into the arena and returns the copy.
  [[nodiscard]] std::string_view store(std::string_view text);
  /// Makes a fresh kTextChunk chunk the open one.
  void open_chunk() const;
  /// Renders every deferred record into the arena, oldest first.
  void render_deferred() const;
  /// A text record as an entry.
  [[nodiscard]] TraceEntry entry(const Record& record) const noexcept;
  /// Calls `fn` on each record, oldest first.
  template <typename Fn>
  void visit(Fn&& fn) const;

  // What every record() reads and writes, kept together: the level
  // filter, then the slot the next record fills and the entry count.
  TraceLevel min_level_;
  Record* next_ = nullptr;       // in the last block
  Record* block_end_ = nullptr;  // of the last block
  std::size_t size_ = 0;
  // The component table: a deque never moves its names, so entries may
  // view them; name_index_ views them too.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint16_t> name_index_;
  std::array<MemoSlot, kMemoSlots> memo_{};
  // The records: block b holds entries [b * kBlockEntries, ...), and
  // every block but the last is full. render_deferred() rewrites records
  // in place, and every record before `rendered_` is a text record.
  std::vector<std::unique_ptr<Record[]>> blocks_;
  mutable std::size_t rendered_ = 0;
  // The text arena: chunks never move or shrink while the trace keeps
  // them, so entries may view them. Messages fill the open chunk at
  // `cursor_`, which has `room_` characters left. Mutable because the
  // reads render deferred records into it.
  mutable std::vector<std::unique_ptr<char[]>> chunks_;
  mutable char* cursor_ = nullptr;
  mutable std::size_t room_ = 0;
};

}  // namespace psme::sim
