// Allocation budget of the steady-state CAN frame path.
//
// This binary replaces the global operator new with a counting one, so it
// sees every heap allocation the simulator makes while a clean HPE-regime
// vehicle drives: scheduler → bus → HPE → controller → node handler. After
// warm-up the path must allocate nothing except the entries an attached
// sim::Trace keeps. A count is exact where a timing gate is noisy, so this
// is the regression gate for the allocation-free frame path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

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

namespace psme {
namespace {

using namespace std::chrono_literals;

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t frames = 0;
  std::uint64_t kept_entries = 0;
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
  const std::uint64_t frames = vehicle->bus().frames_delivered();
  const std::size_t entries = trace != nullptr ? trace->size() : 0;
  const std::uint64_t allocations = g_allocations;
  sched.run_until(sched.now() + 60s);

  Window w;
  w.allocations = g_allocations - allocations;
  w.frames = vehicle->bus().frames_delivered() - frames;
  w.kept_entries = (trace != nullptr ? trace->size() : 0) - entries;
  return w;
}

TEST(FramePathAlloc, UntracedDriveDoesNotAllocate) {
  const Window w = drive(nullptr);
  ASSERT_GT(w.frames, 10'000u);
  const double per_frame =
      static_cast<double>(w.allocations) / static_cast<double>(w.frames);
  EXPECT_LE(per_frame, 0.001) << w.allocations << " allocations over "
                              << w.frames << " frames";
}

// A trace that filters every routine level out must cost what no trace
// costs: each emitter asks keeps() before it formats anything.
TEST(FramePathAlloc, ErrorTraceDriveDoesNotAllocate) {
  sim::Trace trace(sim::TraceLevel::kError);
  const Window w = drive(&trace);
  ASSERT_GT(w.frames, 10'000u);
  EXPECT_EQ(w.kept_entries, 0u);
  const double per_frame =
      static_cast<double>(w.allocations) / static_cast<double>(w.frames);
  EXPECT_LE(per_frame, 0.001) << w.allocations << " allocations over "
                              << w.frames << " frames";
}

TEST(FramePathAlloc, SecurityTraceAllocatesOnlyForKeptEntries) {
  sim::Trace trace(sim::TraceLevel::kSecurity);
  const Window w = drive(&trace);
  ASSERT_GT(w.frames, 10'000u);
  ASSERT_GT(w.kept_entries, 0u);  // the clean drive records HPE read blocks
  // One allocation per kept entry (its message), plus the entry vector's
  // geometric regrowths: fewer than bit_width(n) for n entries.
  EXPECT_LE(w.allocations, w.kept_entries + std::bit_width(w.kept_entries))
      << w.allocations << " allocations for " << w.kept_entries
      << " kept entries over " << w.frames << " frames";
}

}  // namespace
}  // namespace psme
