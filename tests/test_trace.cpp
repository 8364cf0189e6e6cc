// Unit tests for the simulation trace log (psme::sim::Trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "car/vehicle.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace psme::sim {
namespace {

using namespace std::chrono_literals;

// A deferred format, "deferred <arg>", that counts its renders.
std::size_t g_renders = 0;

char* render_counted(char* out, std::uint32_t arg) noexcept {
  ++g_renders;
  constexpr std::string_view kPrefix = "deferred ";
  out = std::copy(kPrefix.begin(), kPrefix.end(), out);
  return std::to_chars(out, out + 10, arg).ptr;  // a u32 has <= 10 digits
}

constexpr TraceFormat kCounted{&render_counted, 9 + 10};

std::string counted_text(std::uint32_t arg) {
  return "deferred " + std::to_string(arg);
}

TEST(Trace, FiltersBelowMinLevel) {
  Trace trace(TraceLevel::kSecurity);
  trace.record(SimTime{1ns}, TraceLevel::kDebug, "x", "dropped");
  trace.record(SimTime{2ns}, TraceLevel::kSecurity, "x", "kept");
  trace.record(SimTime{3ns}, TraceLevel::kError, "y", "kept too");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.count(TraceLevel::kSecurity), 1u);
  EXPECT_EQ(trace.count_component("y"), 1u);
}

TEST(Trace, RenderContainsComponentAndMessage) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{1500000ns}, TraceLevel::kInfo, "can.bus", "hello");
  const std::string out = trace.render();
  EXPECT_NE(out.find("can.bus"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("1.5ms"), std::string::npos);
}

TEST(Trace, ForEachFiltersByComponent) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{}, TraceLevel::kInfo, "a", "1");
  trace.record(SimTime{}, TraceLevel::kInfo, "b", "2");
  int seen = 0;
  trace.for_each("a", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 1);
  seen = 0;
  trace.for_each("", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 2);
}

TEST(Trace, EntryComponentOutlivesTheCallersString) {
  Trace trace(TraceLevel::kDebug);
  {
    const std::string name = "hpe.component-longer-than-sso";
    trace.record(SimTime{}, TraceLevel::kInfo, name, "first");
  }
  for (int i = 0; i < 1000; ++i) {
    trace.record(SimTime{}, TraceLevel::kInfo, "other." + std::to_string(i),
                 "more");
  }
  EXPECT_EQ(trace.entries().front().component, "hpe.component-longer-than-sso");
  EXPECT_EQ(trace.count_component("hpe.component-longer-than-sso"), 1u);
}

TEST(Trace, EntryMessageOutlivesTheCallersString) {
  Trace trace(TraceLevel::kDebug);
  {
    const std::string message = "a message longer than the sso buffer";
    trace.record(SimTime{}, TraceLevel::kInfo, "x", message);
  }
  for (int i = 0; i < 1000; ++i) {
    trace.record(SimTime{}, TraceLevel::kInfo, "x", "more " + std::to_string(i));
  }
  EXPECT_EQ(trace.entries().front().message,
            "a message longer than the sso buffer");
  EXPECT_EQ(trace.entries().back().message, "more 999");
}

TEST(Trace, MessagesSurviveChunkGrowthAndClear) {
  Trace trace(TraceLevel::kDebug);
  std::vector<std::string> expected;
  std::size_t deferred = 0;
  const auto record = [&](std::string_view message) {
    trace.record(SimTime{}, TraceLevel::kInfo, "x", message);
    expected.emplace_back(message);
  };
  const TraceComponent x = trace.component("x");
  const auto record_deferred = [&](std::uint32_t arg) {
    trace.record(SimTime{}, TraceLevel::kInfo, x, kCounted, arg);
    expected.push_back(counted_text(arg));
    ++deferred;
  };
  const auto expect_entries = [&](const std::vector<TraceEntry>& entries,
                                  std::size_t n) {
    ASSERT_GE(entries.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(entries[i].message, expected[i]) << "entry " << i;
    }
  };
  // Three chunks of short messages, every third one deferred, with one
  // message longer than a chunk in the middle: it gets a chunk of its
  // own, and the open chunk keeps filling after it. That one is joined by
  // a TraceText too long for its stack buffer; the one after it fits the
  // buffer. The first read renders the deferred ones into the arena
  // after the text already there.
  const std::string half(Trace::kTextChunk / 2 + 1, 'L');
  g_renders = 0;
  std::size_t text = 0;
  for (std::uint32_t i = 0; text < 4 * Trace::kTextChunk; ++i) {
    if (i == 500) {
      record(TraceText{half, half});
    } else if (i == 501) {
      record(TraceText{"joined ", "on the ", "stack"});
    } else if (i % 3 == 0) {
      record_deferred(i);
    } else {
      record("message " + std::to_string(i));
    }
    text += expected.back().size();
  }
  EXPECT_EQ(expected[500].size(), Trace::kTextChunk + 2);
  EXPECT_EQ(expected[501], "joined on the stack");
  record("");
  ASSERT_EQ(trace.size(), expected.size());
  EXPECT_EQ(trace.count_component("x"), expected.size());
  EXPECT_EQ(g_renders, 0u);  // nothing read the text yet
  const std::vector<TraceEntry> entries = trace.entries();
  EXPECT_EQ(g_renders, deferred);
  expect_entries(entries, expected.size());

  // Views taken earlier hold while later records, deferred ones among
  // them, fill a fresh block and more chunks, and later reads render
  // those once each.
  const std::size_t first = expected.size();
  for (std::uint32_t i = 0; i < Trace::kBlockEntries + 7; ++i) {
    if (i % 2 == 0) {
      record_deferred(1'000'000 + i);
    } else {
      record("later " + std::to_string(i));
    }
  }
  EXPECT_EQ(g_renders, deferred - (Trace::kBlockEntries + 8) / 2);
  std::vector<std::string> rendered;
  trace.for_each("x", [&](const TraceEntry& e) {
    rendered.emplace_back(e.message);
  });
  EXPECT_EQ(g_renders, deferred);
  EXPECT_EQ(rendered, expected);
  const std::string lines = trace.render();
  EXPECT_EQ(g_renders, deferred);
  EXPECT_NE(lines.find("x: " + counted_text(1'000'000) + "\n"),
            std::string::npos);
  expect_entries(entries, first);
  expect_entries(trace.entries(), expected.size());

  // A handle outlives clear(), which keeps the component table.
  const TraceComponent y = trace.component("y");
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  trace.record(SimTime{}, TraceLevel::kInfo, "x", "after clear");
  trace.record(SimTime{}, TraceLevel::kInfo, y, kCounted, 42);
  ASSERT_EQ(trace.size(), 2u);
  const std::vector<TraceEntry> refilled = trace.entries();
  EXPECT_EQ(refilled[0].message, "after clear");
  EXPECT_EQ(refilled[1].message, "deferred 42");
  EXPECT_EQ(refilled[1].component, "y");
}

TEST(Trace, DeferredRecordRefusesAForeignComponent) {
  Trace trace(TraceLevel::kSecurity);
  Trace other(TraceLevel::kSecurity);
  const TraceComponent foreign = other.component("x");
  EXPECT_THROW(
      trace.record(SimTime{}, TraceLevel::kSecurity, foreign, kCounted, 1),
      std::invalid_argument);
  EXPECT_THROW(trace.record(SimTime{}, TraceLevel::kSecurity, TraceComponent{},
                            kCounted, 1),
               std::invalid_argument);
  EXPECT_EQ(trace.size(), 0u);
  // A filtered level is dropped before the component is looked at.
  trace.record(SimTime{}, TraceLevel::kInfo, foreign, kCounted, 1);
  trace.record(SimTime{}, TraceLevel::kSecurity, trace.component("x"),
               kCounted, 2);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.entries().front().message, "deferred 2");
}

TEST(Trace, KeepsMatchesRecordFiltering) {
  Trace trace(TraceLevel::kSecurity);
  EXPECT_FALSE(trace.keeps(TraceLevel::kDebug));
  EXPECT_FALSE(trace.keeps(TraceLevel::kInfo));
  EXPECT_TRUE(trace.keeps(TraceLevel::kSecurity));
  EXPECT_TRUE(trace.keeps(TraceLevel::kError));
}

TEST(Trace, KeepsEntriesAcrossBlockEdges) {
  // Record i is at time i, at one of the four levels, from one of five
  // components, with a message naming i.
  const auto fill = [](Trace& trace, std::size_t n, std::string_view tag) {
    for (std::size_t i = 0; i < n; ++i) {
      trace.record(SimTime{static_cast<std::int64_t>(i)},
                   static_cast<TraceLevel>(i % 4),
                   "c" + std::to_string(i % 5),
                   std::string(tag) + std::to_string(i));
    }
  };
  const auto expect_filled = [](const Trace& trace, std::size_t n,
                                std::string_view tag) {
    ASSERT_EQ(trace.size(), n);
    const std::vector<TraceEntry> entries = trace.entries();
    ASSERT_EQ(entries.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEntry& e = entries[i];
      ASSERT_EQ(e.at, SimTime{static_cast<std::int64_t>(i)}) << i;
      ASSERT_EQ(e.level, static_cast<TraceLevel>(i % 4)) << i;
      ASSERT_EQ(e.component, "c" + std::to_string(i % 5)) << i;
      ASSERT_EQ(e.message, std::string(tag) + std::to_string(i)) << i;
    }
  };
  constexpr std::size_t kBlock = Trace::kBlockEntries;
  for (const std::size_t n :
       {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock, 2 * kBlock + 1}) {
    Trace trace(TraceLevel::kDebug);
    fill(trace, n, "m");
    expect_filled(trace, n, "m");
    // A snapshot's views outlast later records, and the trace refills
    // after clear() from an empty first block.
    const std::vector<TraceEntry> snapshot = trace.entries();
    trace.record(SimTime{}, TraceLevel::kInfo, "c0", "one more");
    ASSERT_EQ(snapshot.back().message, "m" + std::to_string(n - 1));
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.entries().empty());
    EXPECT_EQ(trace.count_component("c0"), 0u);
    EXPECT_EQ(trace.render(), "");
    fill(trace, n, "refill ");
    expect_filled(trace, n, "refill ");
  }
}

TEST(Trace, QueriesAgreeWithTheSnapshot) {
  Trace trace(TraceLevel::kDebug);
  Rng rng(7);
  const std::vector<std::string> components = {"can.bus", "hpe.ecu", "", "x"};
  // Text and deferred records mixed at random across three blocks.
  g_renders = 0;
  std::size_t deferred = 0;
  for (std::size_t i = 0; i < 2 * Trace::kBlockEntries + 123; ++i) {
    const SimTime at{static_cast<std::int64_t>(i)};
    const auto level = static_cast<TraceLevel>(rng.uniform(0, 3));
    const std::string& component =
        components[rng.uniform(0, components.size() - 1)];
    const auto value = static_cast<std::uint32_t>(rng.uniform(0, 1'000'000));
    if (rng.uniform(0, 1) == 0) {
      trace.record(at, level, trace.component(component), kCounted, value);
      ++deferred;
    } else {
      trace.record(at, level, component, std::to_string(value));
    }
  }
  // The counts walk the records and render nothing.
  std::array<std::size_t, 4> counts{};
  for (int level = 0; level < 4; ++level) {
    counts[level] = trace.count(static_cast<TraceLevel>(level));
  }
  const std::array<std::string_view, 5> names = {"can.bus", "hpe.ecu", "",
                                                 "x", "absent"};
  std::array<std::size_t, 5> by_component{};
  for (std::size_t c = 0; c < names.size(); ++c) {
    by_component[c] = trace.count_component(names[c]);
  }
  EXPECT_EQ(g_renders, 0u);

  const std::vector<TraceEntry> entries = trace.entries();
  EXPECT_EQ(g_renders, deferred);
  for (int level = 0; level < 4; ++level) {
    std::size_t n = 0;
    for (const TraceEntry& e : entries) {
      n += e.level == static_cast<TraceLevel>(level) ? 1 : 0;
    }
    EXPECT_EQ(counts[level], n) << level;
    EXPECT_EQ(trace.count(static_cast<TraceLevel>(level)), n) << level;
  }
  for (std::size_t c = 0; c < names.size(); ++c) {
    const std::string_view component = names[c];
    std::vector<std::string> expected;
    for (const TraceEntry& e : entries) {
      if (e.component == component) expected.emplace_back(e.message);
    }
    EXPECT_EQ(by_component[c], expected.size()) << component;
    EXPECT_EQ(trace.count_component(component), expected.size()) << component;
    if (component.empty()) continue;  // for_each("") visits every entry
    std::vector<std::string> seen;
    trace.for_each(component, [&](const TraceEntry& e) {
      EXPECT_EQ(e.component, component);
      seen.emplace_back(e.message);
    });
    EXPECT_EQ(seen, expected) << component;
  }
  std::size_t all = 0;
  trace.for_each("", [&](const TraceEntry& e) {
    ASSERT_LT(all, entries.size());
    EXPECT_EQ(e.at, entries[all].at);
    EXPECT_EQ(e.message, entries[all].message);
    ++all;
  });
  EXPECT_EQ(all, entries.size());
  EXPECT_EQ(g_renders, deferred);  // each rendered once, at the first read
}

TEST(Trace, ComponentLookupChecksTheTextNotJustItsAddress) {
  Trace trace(TraceLevel::kDebug);
  // A name freed and another of the same length allocated next: the
  // allocator likely hands out the same address.
  auto first = std::make_unique<std::string>("hpe.first-name-longer-than-sso");
  trace.record(SimTime{}, TraceLevel::kInfo, *first, "1");
  first.reset();
  auto second = std::make_unique<std::string>("hpe.other-name-longer-than-sso");
  trace.record(SimTime{}, TraceLevel::kInfo, *second, "2");
  // One buffer rewritten in place: certainly the same address.
  std::array<char, 6> buffer = {'n', 'o', 'd', 'e', '.', 'a'};
  const std::string_view view(buffer.data(), buffer.size());
  trace.record(SimTime{}, TraceLevel::kInfo, view, "3");
  buffer.back() = 'b';
  trace.record(SimTime{}, TraceLevel::kInfo, view, "4");

  const std::vector<TraceEntry> entries = trace.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].component, "hpe.first-name-longer-than-sso");
  EXPECT_EQ(entries[1].component, "hpe.other-name-longer-than-sso");
  EXPECT_EQ(entries[2].component, "node.a");
  EXPECT_EQ(entries[3].component, "node.b");
  EXPECT_EQ(trace.count_component("node.a"), 1u);
  EXPECT_EQ(trace.count_component("node.b"), 1u);
}

TEST(Trace, ComponentTableFullThrowsInsteadOfWrapping) {
  Trace trace(TraceLevel::kDebug);
  for (std::size_t i = 0; i < Trace::kMaxComponents; ++i) {
    trace.record(SimTime{}, TraceLevel::kInfo, std::to_string(i), "m");
  }
  ASSERT_EQ(trace.size(), Trace::kMaxComponents);
  EXPECT_THROW(trace.record(SimTime{}, TraceLevel::kInfo, "one too many", "m"),
               std::length_error);
  EXPECT_EQ(trace.size(), Trace::kMaxComponents);
  // Names already in the table still record, under their own index.
  const std::string last = std::to_string(Trace::kMaxComponents - 1);
  trace.record(SimTime{}, TraceLevel::kInfo, last, "again");
  trace.record(SimTime{}, TraceLevel::kInfo, "0", "again");
  EXPECT_EQ(trace.count_component(last), 2u);
  EXPECT_EQ(trace.count_component("0"), 2u);
  EXPECT_EQ(trace.entries().back().component, "0");
}

/// FNV-1a over a trace's rendering, then its size.
std::uint64_t trace_hash(const Trace& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto byte = [&hash](std::uint8_t b) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  };
  for (const char c : trace.render()) byte(static_cast<std::uint8_t>(c));
  const std::uint64_t size = trace.size();
  for (int shift = 0; shift < 64; shift += 8) {
    byte(static_cast<std::uint8_t>(size >> shift));
  }
  return hash;
}

car::VehicleConfig drive_config() {
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  config.lock_hpes = true;
  config.seed = 20261016;
  return config;
}

// The hashes were taken before the trace's storage changed: a change to
// how entries are kept must keep every entry's time, level, component
// and text. A clean drive's security trace holds the HPE read blocks of
// broadcast filtering.
TEST(TraceGolden, SecurityDriveMatchesPinnedHash) {
  Trace trace(TraceLevel::kSecurity);
  Scheduler sched;
  const car::Vehicle vehicle(sched, drive_config(), &trace);
  sched.run_until(sched.now() + 60s);
  EXPECT_EQ(trace.size(), 16380u);
  EXPECT_EQ(trace_hash(trace), 0x1192de7f3804c9adULL);
}

// Every level, and the bus, controller and node emitters beside the HPEs:
// bus errors, a mode change and a fail-safe trigger.
TEST(TraceGolden, DebugDriveMatchesPinnedHash) {
  Trace trace(TraceLevel::kDebug);
  Scheduler sched;
  car::VehicleConfig config = drive_config();
  config.bus_error_rate = 0.05;
  car::Vehicle vehicle(sched, config, &trace);
  sched.schedule_at(SimTime{3s}, [&vehicle] {
    vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
  });
  sched.schedule_at(SimTime{6s},
                    [&vehicle] { vehicle.safety().airbag_deployed(); });
  sched.run_until(sched.now() + 10s);
  for (const std::string_view component :
       {"can.bus", "can.ctrl.safety", "node.gateway", "node.safety"}) {
    EXPECT_GT(trace.count_component(component), 0u) << component;
  }
  EXPECT_EQ(trace.size(), 5005u);
  EXPECT_EQ(trace_hash(trace), 0x9b2dd2620457bbf5ULL);
}

}  // namespace
}  // namespace psme::sim
