// Unit and integration tests for the bus anomaly monitor and the fleet
// deny-streak monitor (psme::monitor).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "car/vehicle.h"
#include "monitor/anomaly.h"
#include "trace_reads.h"

namespace psme::monitor {
namespace {

using namespace std::chrono_literals;

TEST(Monitor, OptionValidation) {
  sim::Scheduler sched;
  RateMonitorOptions bad;
  bad.window = sim::SimDuration::zero();
  EXPECT_THROW(FrameRateMonitor(sched, bad), std::invalid_argument);
  bad = RateMonitorOptions{};
  bad.threshold_factor = 1.0;
  EXPECT_THROW(FrameRateMonitor(sched, bad), std::invalid_argument);
  bad.threshold_factor = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FrameRateMonitor(sched, bad), std::invalid_argument);
  bad.threshold_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FrameRateMonitor(sched, bad), std::invalid_argument);
}

TEST(Monitor, HugeFiniteThresholdFactorNeverAlerts) {
  // ceiling x factor exceeds every integer type; the comparison must
  // still read it as "far above any count".
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.threshold_factor = 1e300;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{0ms});
  monitor.start_detection();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1000ms});
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(Monitor, DetectRequiresTraining) {
  sim::Scheduler sched;
  FrameRateMonitor monitor(sched);
  EXPECT_THROW(monitor.start_detection(), std::logic_error);
}

TEST(Monitor, LearnsIdsDuringTraining) {
  sim::Scheduler sched;
  FrameRateMonitor monitor(sched);
  monitor.start_training();
  for (int i = 0; i < 10; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{i * 10ms});
    monitor.on_frame(can::make_frame(0x200, {}), sim::SimTime{i * 10ms});
  }
  monitor.start_detection();
  EXPECT_EQ(monitor.known_ids(), 2u);
  EXPECT_GT(monitor.ceiling(can::CanId::standard(0x100)), 0u);
  EXPECT_EQ(monitor.ceiling(can::CanId::standard(0x599)), 0u);
}

TEST(Monitor, UnknownIdAlertsOnce) {
  sim::Scheduler sched;
  FrameRateMonitor monitor(sched);
  monitor.start_training();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{0ms});
  monitor.start_detection();

  for (int i = 0; i < 20; ++i) {
    monitor.on_frame(can::make_frame(0x666, {}), sim::SimTime{1ms * i});
  }
  ASSERT_GE(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kUnknownId);
  EXPECT_EQ(monitor.alerts()[0].id.raw(), 0x666u);
  // One alert for the burst, not twenty (same window).
  EXPECT_LE(monitor.alerts().size(), 2u);
}

TEST(Monitor, RateAnomalyOnKnownId) {
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.window = 100ms;
  options.threshold_factor = 3.0;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  // Baseline: ~5 frames per window.
  for (int i = 0; i < 50; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{20ms * i});
  }
  monitor.start_detection();

  // Clean traffic: no alerts.
  for (int i = 0; i < 50; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}),
                     sim::SimTime{1000ms + 20ms * i});
  }
  EXPECT_TRUE(monitor.alerts().empty());

  // Flood: 100 frames inside one window.
  for (int i = 0; i < 100; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}),
                     sim::SimTime{3000ms + 1ms * i});
  }
  ASSERT_FALSE(monitor.alerts().empty());
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kRateExceeded);
  EXPECT_GT(monitor.alerts()[0].observed, monitor.alerts()[0].ceiling);
}

// Both alerts' entries are recorded deferred. Through each read that
// renders them, they read as their pieces joined by sim::TraceText, for
// standard and extended ids.
TEST(Monitor, AlertEntriesReadAsTheirText) {
  const std::array known = {can::CanId::standard(0x7FF),
                            can::CanId::extended(0x1FFFFFFF)};
  const std::array unknown = {can::CanId::standard(0x000),
                              can::CanId::extended(0x18DAF110)};
  for (const tracetest::Read read : tracetest::kReads) {
    SCOPED_TRACE(tracetest::to_string(read));
    sim::Scheduler sched;
    sim::Trace trace(sim::TraceLevel::kSecurity);
    RateMonitorOptions options;
    options.threshold_factor = 2.0;
    options.min_ceiling = 1;
    FrameRateMonitor monitor(sched, options, &trace);
    monitor.start_training();
    for (int window = 0; window < 5; ++window) {
      for (const can::CanId id : known) {
        monitor.on_frame(can::Frame(id, {}), sim::SimTime{window * 100ms});
      }
    }
    monitor.start_detection();

    std::vector<std::string> expected;
    for (const can::CanId id : unknown) {
      monitor.on_frame(can::Frame(id, {}), sim::SimTime{1000ms});
      expected.push_back("monitor.ids: " +
                         std::string(sim::TraceText{"unknown id ", id.text()}));
    }
    // Three frames in one window pass a learned ceiling of one, doubled.
    for (int i = 0; i < 3; ++i) {
      for (const can::CanId id : known) {
        monitor.on_frame(can::Frame(id, {}), sim::SimTime{2000ms + 1ms * i});
      }
    }
    for (const can::CanId id : known) {
      expected.push_back(
          "monitor.ids: " +
          std::string(sim::TraceText{"rate anomaly on ", id.text()}));
    }
    EXPECT_EQ(expected.front(), "monitor.ids: unknown id 0x0");
    EXPECT_EQ(expected.back(), "monitor.ids: rate anomaly on 0x1FFFFFFFx");

    ASSERT_EQ(monitor.alerts().size(), expected.size());
    EXPECT_EQ(trace.count_component("monitor.ids"), expected.size());
    EXPECT_EQ(tracetest::read_lines(trace, read), expected);
  }
}

TEST(Monitor, MinCeilingSuppressesJitterOnRareIds) {
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.window = 100ms;
  options.threshold_factor = 2.0;
  options.min_ceiling = 5;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  // Rare id: one frame per window during training.
  monitor.on_frame(can::make_frame(0x300, {}), sim::SimTime{0ms});
  monitor.start_detection();
  // Three frames in one window — above 2x the learned ceiling (1) but
  // below 2 x min_ceiling: no alert.
  for (int i = 0; i < 3; ++i) {
    monitor.on_frame(can::make_frame(0x300, {}), sim::SimTime{500ms + 1ms * i});
  }
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(Monitor, RetrainClearsTheOldBaseline) {
  // Regression: unknown ids seen during a DETECTION phase are registered
  // in the baseline (at ceiling 0) to rate-limit their alerts. A retrain
  // must drop them — otherwise every id that ever alerted is permanently
  // known, and the unknown-id detector goes mute for it after the first
  // retrain.
  sim::Scheduler sched;
  FrameRateMonitor monitor(sched);
  monitor.start_training();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{0ms});
  monitor.start_detection();
  monitor.on_frame(can::make_frame(0x666, {}), sim::SimTime{10ms});
  ASSERT_EQ(monitor.alerts().size(), 1u);

  monitor.start_training();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1000ms});
  monitor.start_detection();
  EXPECT_EQ(monitor.known_ids(), 1u);

  monitor.on_frame(can::make_frame(0x666, {}), sim::SimTime{2000ms});
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[1].kind, AlertKind::kUnknownId);
  EXPECT_EQ(monitor.alerts()[1].id.raw(), 0x666u);
}

TEST(Monitor, ThresholdBoundaryIsExclusive) {
  // The alert predicate is count > ceiling * factor, so landing EXACTLY
  // on the threshold is still legitimate; one more frame is not.
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.window = 100ms;
  options.threshold_factor = 4.0;
  options.min_ceiling = 3;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  // Learn a ceiling of exactly 5 (above min_ceiling, so it governs).
  for (int i = 0; i < 5; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1ms * i});
  }
  monitor.start_detection();
  ASSERT_EQ(monitor.ceiling(can::CanId::standard(0x100)), 5u);

  // 20 frames in one window: count == 5 * 4 — on the line, no alert.
  for (int i = 0; i < 20; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1000ms + 1ms * i});
  }
  EXPECT_TRUE(monitor.alerts().empty());

  // The 21st crosses it.
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1050ms});
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kRateExceeded);
  EXPECT_EQ(monitor.alerts()[0].observed, 21u);
  EXPECT_EQ(monitor.alerts()[0].ceiling, 5u);
}

TEST(Monitor, WindowBoundaryResetsTheCount) {
  // Threshold-level traffic split across adjacent windows must not alert:
  // the counter belongs to the window, not to a sliding total.
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.window = 100ms;
  options.threshold_factor = 4.0;
  options.min_ceiling = 3;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  for (int i = 0; i < 5; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1ms * i});
  }
  monitor.start_detection();

  // 20 frames ending at the last instant of window [1000, 1100), then 20
  // starting at the first instant of window [1100, 1200): 40 frames in
  // 40ms of wall time, never more than the threshold per window.
  for (int i = 0; i < 20; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1080ms + 1ms * i});
  }
  for (int i = 0; i < 20; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1100ms + 1ms * i});
  }
  EXPECT_TRUE(monitor.alerts().empty());

  // The same 21-frame burst inside ONE window still alerts (the reset
  // must not have weakened detection).
  for (int i = 0; i < 21; ++i) {
    monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{1300ms + 1ms * i});
  }
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kRateExceeded);
}

TEST(Monitor, SustainedUnknownFloodAlertsPerWindowNotPerFrame) {
  sim::Scheduler sched;
  RateMonitorOptions options;
  options.window = 100ms;
  options.threshold_factor = 4.0;
  options.min_ceiling = 3;
  FrameRateMonitor monitor(sched, options);
  monitor.start_training();
  monitor.on_frame(can::make_frame(0x100, {}), sim::SimTime{0ms});
  monitor.start_detection();

  // 300 frames of one unknown id across three windows: one unknown-id
  // alert on first sight, then at most one rate alert per later window —
  // bounded, attributable, not 300 alerts.
  for (int i = 0; i < 300; ++i) {
    monitor.on_frame(can::make_frame(0x666, {}), sim::SimTime{1000ms + 1ms * i});
  }
  ASSERT_GE(monitor.alerts().size(), 2u);
  EXPECT_LE(monitor.alerts().size(), 4u);
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kUnknownId);
  for (std::size_t i = 1; i < monitor.alerts().size(); ++i) {
    EXPECT_EQ(monitor.alerts()[i].kind, AlertKind::kRateExceeded);
    EXPECT_EQ(monitor.alerts()[i].id.raw(), 0x666u);
  }
}

TEST(Monitor, VehicleIntegrationNoFalsePositives) {
  // Train on the real vehicle's traffic, then keep driving: a clean run
  // must produce zero alerts (the IDS must not cry wolf).
  sim::Scheduler sched;
  car::Vehicle vehicle(sched);
  FrameRateMonitor monitor(sched);
  can::Port& tap = vehicle.bus().attach("ids-tap");
  tap.set_sink(&monitor);

  monitor.start_training();
  sched.run_until(sched.now() + 3s);
  monitor.start_detection();
  sched.run_until(sched.now() + 3s);
  EXPECT_TRUE(monitor.alerts().empty())
      << "first alert kind: "
      << (monitor.alerts().empty()
              ? "-"
              : std::string(to_string(monitor.alerts()[0].kind)));
  EXPECT_GT(monitor.frames_observed(), 500u);
  EXPECT_GE(monitor.known_ids(), 8u);
}

TEST(Monitor, VehicleIntegrationDetectsInjection) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched);
  FrameRateMonitor monitor(sched);
  can::Port& tap = vehicle.bus().attach("ids-tap");
  tap.set_sink(&monitor);

  monitor.start_training();
  sched.run_until(sched.now() + 2s);
  monitor.start_detection();

  // An outside attacker injects ECU-disable commands: the id never appears
  // in normal traffic, so the unknown-id detector fires even though the
  // frames are policy-plausible elsewhere.
  attack::OutsideAttacker attacker(sched, vehicle.attach_attacker("mallory"));
  attacker.inject_repeated(
      car::command_frame(car::msg::kEcuCommand, car::op::kDisable), 10, 5ms);
  sched.run_until(sched.now() + 500ms);

  ASSERT_FALSE(monitor.alerts().empty());
  EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::kUnknownId);
  EXPECT_EQ(monitor.alerts()[0].id.raw(), car::msg::kEcuCommand);
}

TEST(Monitor, VehicleIntegrationDetectsFloodOnKnownId) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched);
  RateMonitorOptions options;
  options.threshold_factor = 5.0;
  FrameRateMonitor monitor(sched, options);
  can::Port& tap = vehicle.bus().attach("ids-tap");
  tap.set_sink(&monitor);

  monitor.start_training();
  sched.run_until(sched.now() + 2s);
  monitor.start_detection();

  // Flood the (legitimate, learned) speed-sensor id.
  attack::OutsideAttacker attacker(sched, vehicle.attach_attacker("mallory"));
  attacker.inject_repeated(car::command_frame(car::msg::kSensorSpeed, 0), 300,
                           1ms);
  sched.run_until(sched.now() + 500ms);

  bool rate_alert = false;
  for (const auto& alert : monitor.alerts()) {
    if (alert.kind == AlertKind::kRateExceeded &&
        alert.id.raw() == car::msg::kSensorSpeed) {
      rate_alert = true;
    }
  }
  EXPECT_TRUE(rate_alert);
}

// ------------------------------------------------------ deny-streak feed

TEST(DenyStreakMonitor, FlagsOnlyPersistentDenyStreaks) {
  DenyStreakOptions options;
  options.deny_threshold = 2;
  options.streak_ticks = 3;
  DenyStreakMonitor streaks(4, options);

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
  DenyStreakOptions options;
  options.deny_threshold = 1;
  options.streak_ticks = 2;
  DenyStreakMonitor streaks(8, options);
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
  EXPECT_THROW(DenyStreakMonitor(0), std::invalid_argument);
  DenyStreakOptions zero_threshold;
  zero_threshold.deny_threshold = 0;
  EXPECT_THROW(DenyStreakMonitor(4, zero_threshold), std::invalid_argument);
  DenyStreakOptions zero_streak;
  zero_streak.streak_ticks = 0;
  EXPECT_THROW(DenyStreakMonitor(4, zero_streak), std::invalid_argument);

  DenyStreakMonitor streaks(4);
  const std::uint32_t wrong_size[] = {1, 2};
  EXPECT_THROW(streaks.observe_tick(wrong_size), std::invalid_argument);
}

TEST(DenyStreakMonitor, ConsumesFleetEvaluatorTelemetry) {
  const core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  const std::size_t fleet_size = 20;
  car::FleetEvaluator fleet(policy.image(), car::default_fleet_checks(),
                            fleet_size);

  // Calibrate: normal-mode background denies, then wedge one vehicle
  // into fail-safe (strictly more denials) and watch it flag after three
  // consecutive sweeps.
  const std::uint32_t background = fleet.tick().vehicle_denied[0];
  fleet.set_mode(7, car::CarMode::kFailSafe);
  ASSERT_GT(fleet.tick().vehicle_denied[7], background)
      << "fixture assumption: fail-safe denies more than normal";

  DenyStreakOptions streak_options;
  streak_options.deny_threshold = background + 1;
  streak_options.streak_ticks = 3;
  DenyStreakMonitor streaks(fleet_size, streak_options);
  for (int i = 0; i < 3; ++i) {
    streaks.observe_tick(fleet.tick().vehicle_denied);
  }
  ASSERT_EQ(1u, streaks.flagged().size());
  EXPECT_EQ(7u, streaks.flagged()[0]);
}

}  // namespace
}  // namespace psme::monitor
