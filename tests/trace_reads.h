// The three reads of a sim::Trace that hand out text: entries(),
// for_each() and render(). A deferred entry is rendered by whichever of
// them comes first, so a test of an emitter's entries runs once per read,
// each time on a fresh trace, to cover every path that renders.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.h"

namespace psme::tracetest {

enum class Read { kEntries, kForEach, kRender };

inline constexpr std::array kReads = {Read::kEntries, Read::kForEach,
                                      Read::kRender};

inline std::string_view to_string(Read read) {
  switch (read) {
    case Read::kEntries: return "entries()";
    case Read::kForEach: return "for_each()";
    case Read::kRender: return "render()";
  }
  return "?";
}

/// Every entry of `trace` as "component: message", oldest first, handed
/// out by `read`. render()'s lines lose their "t=...ms [LVL] " prefix.
inline std::vector<std::string> read_lines(const sim::Trace& trace,
                                           Read read) {
  std::vector<std::string> lines;
  const auto add = [&lines](const sim::TraceEntry& e) {
    lines.push_back(std::string(e.component) + ": " + std::string(e.message));
  };
  switch (read) {
    case Read::kEntries:
      for (const sim::TraceEntry& e : trace.entries()) add(e);
      break;
    case Read::kForEach:
      trace.for_each("", add);
      break;
    case Read::kRender: {
      const std::string text = trace.render();
      std::size_t start = 0;
      while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        const std::string_view line(text.data() + start, end - start);
        lines.emplace_back(line.substr(line.find("] ") + 2));
        start = end + 1;
      }
      break;
    }
  }
  return lines;
}

}  // namespace psme::tracetest
