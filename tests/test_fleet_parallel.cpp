// Concurrency tests for parallel fleet sweeps: tick_parallel(k) parity
// with the sequential tick() (byte-identical decision streams and
// per-vehicle telemetry for k in {1, 2, 8}, including mid-sweep mode
// scatter), the relaxed PolicySet const-evaluation pin, and the
// DenyStreakMonitor fleet telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "monitor/anomaly.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::Decision;
using core::SidRequest;

// ----------------------------------------------------------- tick_parallel

struct FleetFixture {
  threat::ThreatModel model = car::connected_car_threat_model();
  core::PolicySet policy = car::full_policy(model);
  const core::CompiledPolicyImage& image = policy.image();
};

/// Deterministically scatters modes so every shard sees a mode mix.
void scatter_modes(car::FleetEvaluator& fleet, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::size_t v = 0; v < fleet.fleet_size(); ++v) {
    const std::uint64_t draw = rng.uniform(0, 9);
    if (draw == 8) {
      fleet.set_mode(v, car::CarMode::kRemoteDiagnostic);
    } else if (draw == 9) {
      fleet.set_mode(v, car::CarMode::kFailSafe);
    }
  }
}

struct CapturedSweep {
  std::vector<SidRequest> requests;
  std::vector<Decision> decisions;
  car::FleetTickStats stats;
  std::vector<std::uint32_t> vehicle_denied;
};

CapturedSweep capture(car::FleetEvaluator& fleet, std::size_t n_threads) {
  CapturedSweep sweep;
  const auto sink = [&](std::span<const SidRequest> requests,
                        std::span<const Decision> decisions) {
    sweep.requests.insert(sweep.requests.end(), requests.begin(),
                          requests.end());
    sweep.decisions.insert(sweep.decisions.end(), decisions.begin(),
                           decisions.end());
  };
  sweep.stats = n_threads == 0 ? fleet.tick(sink)
                               : fleet.tick_parallel(n_threads, sink);
  sweep.vehicle_denied.assign(sweep.stats.vehicle_denied.begin(),
                              sweep.stats.vehicle_denied.end());
  return sweep;
}

void expect_byte_identical(const CapturedSweep& expected,
                           const CapturedSweep& actual, std::size_t k) {
  ASSERT_EQ(expected.decisions.size(), actual.decisions.size()) << "k=" << k;
  ASSERT_EQ(expected.requests.size(), actual.requests.size()) << "k=" << k;
  for (std::size_t i = 0; i < expected.decisions.size(); ++i) {
    ASSERT_EQ(expected.requests[i].subject, actual.requests[i].subject)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.requests[i].object, actual.requests[i].object)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.requests[i].mode, actual.requests[i].mode)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].allowed, actual.decisions[i].allowed)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].rule_id, actual.decisions[i].rule_id)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].reason, actual.decisions[i].reason)
        << "k=" << k << " i=" << i;
  }
  EXPECT_EQ(expected.stats.decisions, actual.stats.decisions);
  EXPECT_EQ(expected.stats.allowed, actual.stats.allowed);
  EXPECT_EQ(expected.stats.denied, actual.stats.denied);
  EXPECT_EQ(expected.vehicle_denied, actual.vehicle_denied);
}

TEST(TickParallel, ByteIdenticalToSequentialTickAcrossThreadCounts) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 257;  // deliberately not a multiple of any k
  options.batch_chunk = 100;  // forces chunk boundaries inside vehicles
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 7);

  const CapturedSweep sequential = capture(fleet, 0);
  EXPECT_EQ(sequential.stats.decisions,
            options.fleet_size * fleet.checks_per_vehicle());
  EXPECT_GT(sequential.stats.denied, 0u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const CapturedSweep parallel = capture(fleet, k);
    expect_byte_identical(sequential, parallel, k);
  }
}

TEST(TickParallel, PersistentPoolSurvivesRepeatedTicksAndCountChanges) {
  // The worker pool is persistent: ticks at a constant k reuse the same
  // parked threads (no spawn per tick), a k change rebuilds the pool, and
  // every configuration stays byte-identical to the sequential sweep.
  // Destruction with a live parked pool (end of scope) must join cleanly.
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 61;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 11);

  const CapturedSweep sequential = capture(fleet, 0);
  for (const std::size_t k :
       {std::size_t{2}, std::size_t{2}, std::size_t{2},  // pool reused
        std::size_t{8},                                  // pool rebuilt
        std::size_t{1},                                  // pool parked, inline
        std::size_t{2}}) {                               // pool rebuilt again
    const CapturedSweep parallel = capture(fleet, k);
    expect_byte_identical(sequential, parallel, k);
  }
}

TEST(TickParallel, ParityHoldsAcrossMidSweepModeChanges) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 97;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);

  // Interleave per-vehicle mode changes between sweeps (the simulation's
  // tick loop): parity must hold at every step, for every thread count.
  sim::Rng rng(2026);
  for (int round = 0; round < 3; ++round) {
    for (int change = 0; change < 7; ++change) {
      const auto vehicle =
          static_cast<std::size_t>(rng.uniform(0, options.fleet_size - 1));
      const std::uint64_t draw = rng.uniform(0, 2);
      fleet.set_mode(vehicle, draw == 0   ? car::CarMode::kNormal
                              : draw == 1 ? car::CarMode::kRemoteDiagnostic
                                          : car::CarMode::kFailSafe);
    }
    const CapturedSweep sequential = capture(fleet, 0);
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const CapturedSweep parallel = capture(fleet, k);
      expect_byte_identical(sequential, parallel, k);
    }
  }
}

TEST(TickParallel, CountingPathMatchesCapturePathAndClampsThreads) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 13;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 3);

  const car::FleetTickStats expected = fleet.tick();
  const std::vector<std::uint32_t> expected_denied(
      expected.vehicle_denied.begin(), expected.vehicle_denied.end());

  // More threads than vehicles: clamped, still correct.
  const car::FleetTickStats stats = fleet.tick_parallel(64);
  EXPECT_EQ(expected.decisions, stats.decisions);
  EXPECT_EQ(expected.allowed, stats.allowed);
  EXPECT_EQ(expected.denied, stats.denied);
  EXPECT_EQ(expected_denied,
            std::vector<std::uint32_t>(stats.vehicle_denied.begin(),
                                       stats.vehicle_denied.end()));

  EXPECT_THROW((void)fleet.tick_parallel(0), std::invalid_argument);
}

TEST(TickParallel, PerVehicleDenyCountsSumToTotal) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 50;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 11);

  const car::FleetTickStats stats = fleet.tick_parallel(4);
  ASSERT_EQ(stats.vehicle_denied.size(), options.fleet_size);
  std::uint64_t sum = 0;
  for (const std::uint32_t denies : stats.vehicle_denied) sum += denies;
  EXPECT_EQ(stats.denied, sum);
}

// --------------------------------------------- PolicySet pin relaxation

TEST(PolicySetConcurrency, ConstEvaluationOverBuiltImageIsMultiThreaded) {
  FleetFixture fixture;
  // The image is compiled HERE, on this thread, before any reader
  // starts — the relaxed pin applies only to the compile.
  (void)fixture.policy.image();

  const core::AccessRequest request{"telematics_unit", "vehicle_can_data",
                                    core::AccessType::kRead, {}};
  const Decision expected = fixture.policy.evaluate(request);

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const Decision decision = fixture.policy.evaluate(request);
        if (decision.allowed != expected.allowed ||
            decision.rule_id != expected.rule_id ||
            decision.reason != expected.reason) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0u, mismatches.load());
}

// ------------------------------------------------------ deny-streak feed

TEST(DenyStreakMonitor, FlagsOnlyPersistentDenyStreaks) {
  monitor::DenyStreakOptions options;
  options.deny_threshold = 2;
  options.streak_ticks = 3;
  monitor::DenyStreakMonitor streaks(4, options);

  // Vehicle 1 denies persistently; vehicle 2 bursts then recovers.
  const std::uint32_t tick1[] = {0, 5, 9, 1};
  const std::uint32_t tick2[] = {0, 4, 0, 1};
  const std::uint32_t tick3[] = {0, 6, 8, 1};
  streaks.observe_tick(tick1);
  streaks.observe_tick(tick2);
  EXPECT_TRUE(streaks.flagged().empty());
  streaks.observe_tick(tick3);

  ASSERT_EQ(1u, streaks.flagged().size());
  EXPECT_EQ(1u, streaks.flagged()[0]);
  EXPECT_EQ(3u, streaks.streak(1));
  EXPECT_EQ(1u, streaks.streak(2));  // reset by tick2, restarted by tick3
  EXPECT_EQ(0u, streaks.streak(3));  // below threshold throughout
  EXPECT_EQ(3u, streaks.ticks_observed());

  // Flagging is sticky and emitted once.
  streaks.observe_tick(tick3);
  EXPECT_EQ(1u, streaks.flagged().size());

  streaks.reset();
  EXPECT_TRUE(streaks.flagged().empty());
  EXPECT_EQ(0u, streaks.streak(1));
}

TEST(DenyStreakMonitor, HealthyFractionIsAnO1CohortSummary) {
  monitor::DenyStreakOptions options;
  options.deny_threshold = 1;
  options.streak_ticks = 2;
  monitor::DenyStreakMonitor streaks(8, options);
  EXPECT_EQ(1.0, streaks.healthy_fraction());  // before any tick

  // Vehicles 2 and 5 deny persistently; everyone else is quiet.
  const std::uint32_t tick[] = {0, 0, 3, 0, 0, 7, 0, 0};
  streaks.observe_tick(tick);
  EXPECT_EQ(1.0, streaks.healthy_fraction());  // streaks open, no flags yet
  streaks.observe_tick(tick);
  EXPECT_EQ(2u, streaks.flagged().size());
  EXPECT_DOUBLE_EQ(0.75, streaks.healthy_fraction());  // 6 of 8 healthy

  // Sticky flags: recovery ticks do not raise the fraction...
  const std::uint32_t quiet[] = {0, 0, 0, 0, 0, 0, 0, 0};
  streaks.observe_tick(quiet);
  EXPECT_DOUBLE_EQ(0.75, streaks.healthy_fraction());
  // ...only reset() does (the campaign gate's window-open semantics).
  streaks.reset();
  EXPECT_EQ(1.0, streaks.healthy_fraction());
}

TEST(DenyStreakMonitor, ValidatesArguments) {
  EXPECT_THROW(monitor::DenyStreakMonitor(0), std::invalid_argument);
  monitor::DenyStreakOptions zero_threshold;
  zero_threshold.deny_threshold = 0;
  EXPECT_THROW(monitor::DenyStreakMonitor(4, zero_threshold),
               std::invalid_argument);
  monitor::DenyStreakOptions zero_streak;
  zero_streak.streak_ticks = 0;
  EXPECT_THROW(monitor::DenyStreakMonitor(4, zero_streak),
               std::invalid_argument);

  monitor::DenyStreakMonitor streaks(4);
  const std::uint32_t wrong_size[] = {1, 2};
  EXPECT_THROW(streaks.observe_tick(wrong_size), std::invalid_argument);
}

TEST(DenyStreakMonitor, ConsumesFleetEvaluatorTelemetry) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 20;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);

  // Calibrate: normal-mode background denies, then wedge one vehicle
  // into fail-safe (strictly more denials) and watch it flag after three
  // consecutive sweeps — through the PARALLEL path.
  const car::FleetTickStats baseline = fleet.tick_parallel(2);
  const std::uint32_t background = baseline.vehicle_denied[0];
  car::FleetTickStats wedged_probe = baseline;
  fleet.set_mode(7, car::CarMode::kFailSafe);
  wedged_probe = fleet.tick_parallel(2);
  ASSERT_GT(wedged_probe.vehicle_denied[7], background)
      << "fixture assumption: fail-safe denies more than normal";

  monitor::DenyStreakOptions streak_options;
  streak_options.deny_threshold = background + 1;
  streak_options.streak_ticks = 3;
  monitor::DenyStreakMonitor streaks(options.fleet_size, streak_options);
  for (int i = 0; i < 3; ++i) {
    streaks.observe_tick(fleet.tick_parallel(2).vehicle_denied);
  }
  ASSERT_EQ(1u, streaks.flagged().size());
  EXPECT_EQ(7u, streaks.flagged()[0]);
}

}  // namespace
}  // namespace psme
