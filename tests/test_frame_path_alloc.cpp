// Allocation budget of the steady-state CAN frame path.
//
// This binary replaces the global operator new with a counting one, so it
// sees every heap allocation the simulator makes while a clean HPE-regime
// vehicle drives: scheduler → bus → HPE → controller → node handler. After
// warm-up the path must allocate nothing at all without a trace, and with
// one only what its storage needs to grow: the record blocks and text
// arena chunks that kept entries fill, and the regrowths of the two lists
// that hold them. No kept entry allocates a message of its own, an HPE
// block's entry is deferred and stores no text until the trace is read,
// and an HPE's audit ring allocates once, at the engine's first block. A
// count is exact where a timing gate is noisy, so this is the regression
// gate for the allocation-free frame path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "car/vehicle.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace {

// Single-threaded test: a plain counter is enough.
std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// Replaced too, since a sanitizer's runtime answers new[] itself rather
// than through operator new: the trace's record blocks and text chunks
// are arrays.
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psme {
namespace {

using namespace std::chrono_literals;

/// True for an entry its emitter records deferred: an HPE block, an IDS
/// alert or a gateway drop, whose text the trace renders only when read.
bool recorded_deferred(const sim::TraceEntry& entry) {
  const auto has = [](std::string_view text, std::string_view part) {
    return text.find(part) != std::string_view::npos;
  };
  return (entry.component.starts_with("hpe.") &&
          has(entry.message, " blocked id=")) ||
         (entry.component == "monitor.ids" &&
          (entry.message.starts_with("unknown id ") ||
           entry.message.starts_with("rate anomaly on "))) ||
         (entry.component.starts_with("bridge.") &&
          has(entry.message, " dropped "));
}

/// What a trace's storage holds after some entries, before any read:
/// record blocks and text arena chunks, replayed from the entries by the
/// rules of Trace::record. A deferred entry stores no text when recorded.
struct Storage {
  std::size_t blocks = 0;
  std::size_t chunks = 0;
  std::size_t room = 0;  // left in the open chunk

  void add(std::size_t entries_before, const sim::TraceEntry& entry) {
    if (entries_before % sim::Trace::kBlockEntries == 0) ++blocks;
    if (recorded_deferred(entry)) return;
    const std::size_t message = entry.message.size();
    if (message <= room) {
      room -= message;
    } else if (message > sim::Trace::kTextChunk) {
      ++chunks;  // a chunk of its own; the open one stays open
    } else {
      ++chunks;
      room = sim::Trace::kTextChunk - message;
    }
  }
};

/// Reallocations of a std::vector growing by push_back from `from` to `to`
/// elements. libstdc++ and libc++ both double a full vector's capacity
/// (from 1), so it reallocates when it holds 0 or a power of two.
std::uint64_t regrowths(std::size_t from, std::size_t to) {
  std::uint64_t n = 0;
  for (std::size_t size = from; size < to; ++size) {
    if (size == 0 || std::has_single_bit(size)) ++n;
  }
  return n;
}

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t frames = 0;
  std::uint64_t kept_entries = 0;
  Storage before;  // the trace's storage when the window opened
  Storage after;   // and when it closed
  // HPEs whose first block, and so their audit ring's one allocation,
  // fell in the window.
  std::uint64_t audit_rings = 0;
};

/// Drives a clean, locked HPE vehicle for 20 simulated seconds of
/// warm-up, then counts allocations over the next 60 seconds.
Window drive(sim::Trace* trace) {
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  config.lock_hpes = true;
  config.seed = 20261016;
  const auto vehicle = std::make_unique<car::Vehicle>(sched, config, trace);

  sched.run_until(sched.now() + 20s);
  const std::vector<std::string> nodes = vehicle->node_names();
  std::vector<std::size_t> audits;
  for (const std::string& node : nodes) {
    audits.push_back(vehicle->hpe(node)->audit_log().size());
  }
  const std::uint64_t frames = vehicle->bus().frames_delivered();
  const std::size_t entries = trace != nullptr ? trace->size() : 0;
  const std::uint64_t allocations = g_allocations;
  sched.run_until(sched.now() + 60s);

  Window w;
  w.allocations = g_allocations - allocations;
  w.frames = vehicle->bus().frames_delivered() - frames;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (audits[n] == 0 && !vehicle->hpe(nodes[n])->audit_log().empty()) {
      ++w.audit_rings;
    }
  }
  if (trace != nullptr) {
    w.kept_entries = trace->size() - entries;
    const std::vector<sim::TraceEntry> kept = trace->entries();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (i == entries) w.before = w.after;
      w.after.add(i, kept[i]);
    }
  }
  return w;
}

TEST(FramePathAlloc, UntracedDriveDoesNotAllocate) {
  const Window w = drive(nullptr);
  ASSERT_GT(w.frames, 10'000u);
  EXPECT_EQ(w.allocations, 0u) << "over " << w.frames << " frames";
}

// A trace that filters every routine level out must cost what no trace
// costs: each emitter asks keeps() before it formats anything.
TEST(FramePathAlloc, ErrorTraceDriveDoesNotAllocate) {
  sim::Trace trace(sim::TraceLevel::kError);
  const Window w = drive(&trace);
  ASSERT_GT(w.frames, 10'000u);
  EXPECT_EQ(w.kept_entries, 0u);
  EXPECT_EQ(w.allocations, 0u) << "over " << w.frames << " frames";
}

TEST(FramePathAlloc, SecurityTraceAllocatesOnlyForKeptEntries) {
  sim::Trace trace(sim::TraceLevel::kSecurity);
  const Window w = drive(&trace);
  ASSERT_GT(w.frames, 10'000u);
  ASSERT_GT(w.kept_entries, 0u);  // the clean drive records HPE read blocks
  // Growth only, counted exactly: the record blocks and arena chunks the
  // window opened, the reallocations of the block index and of the chunk
  // list as they grew to hold them, and the audit rings it allocated.
  // Every engine that blocks does so in the warm-up, so that last term
  // is 0. Every kept entry is an HPE read block, recorded deferred, so
  // the window opens no chunk either: an emitter that formats its block
  // text again fails this.
  const Storage& a = w.before;
  const Storage& b = w.after;
  EXPECT_EQ(w.audit_rings, 0u);
  EXPECT_EQ(b.chunks, a.chunks);
  const std::uint64_t growth = (b.blocks - a.blocks) + (b.chunks - a.chunks) +
                               regrowths(a.blocks, b.blocks) +
                               regrowths(a.chunks, b.chunks) + w.audit_rings;
  EXPECT_EQ(w.allocations, growth)
      << w.allocations << " allocations for " << w.kept_entries
      << " kept entries (" << b.blocks - a.blocks << " blocks, "
      << b.chunks - a.chunks << " chunks, " << w.audit_rings
      << " audit rings) over " << w.frames << " frames";
}

}  // namespace
}  // namespace psme
