// psme::sim — simulation trace log.
//
// A lightweight structured event log. Components record what happened and
// when; tests and benches query it afterwards. Severity levels let noisy
// frame-level detail be filtered from security-relevant decisions.
#pragma once

#include <cstddef>
#include <functional>
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
/// table of component names, so it stays valid while that Trace lives.
struct TraceEntry {
  SimTime at{};
  TraceLevel level{TraceLevel::kInfo};
  std::string_view component;  // e.g. "can.bus", "hpe.ecu", "core.update"
  std::string message;
};

/// Append-only trace log with level filtering at record time.
///
/// Contract for emitters (DESIGN.md §8): a component formats a message
/// only after keeps() says the entry will be stored, so a trace that
/// filters a level out costs that level's sites one comparison and no
/// allocation.
class Trace {
 public:
  explicit Trace(TraceLevel min_level = TraceLevel::kInfo)
      : min_level_(min_level) {}

  // Entries view this trace's component table, so a copy's entries would
  // still view the original's.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records an entry if `level >= min_level()`. Each distinct component
  /// name is stored once, so a kept entry allocates for its message only.
  void record(SimTime at, TraceLevel level, std::string_view component,
              std::string message);

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
  void clear() noexcept { entries_.clear(); }

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
  TraceLevel min_level_;
  std::set<std::string, std::less<>> components_;  // nodes never move
  std::vector<TraceEntry> entries_;
};

}  // namespace psme::sim
