// Tests for traffic recording and replay (psme::can::recorder), including
// the end-to-end replay attack against the vehicle.
#include <gtest/gtest.h>

#include <limits>

#include "attack/attacker.h"
#include "can/recorder.h"
#include "car/vehicle.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

TEST(Recorder, CapturesWithTimestamps) {
  sim::Scheduler sched;
  Bus bus(sched);
  FrameRecorder recorder;
  bus.attach("tap").set_sink(&recorder);
  Controller sender(sched, bus.attach("tx"), "tx");

  sender.transmit(make_frame(0x100, {1}));
  sched.run();
  sched.run_until(sched.now() + 1ms);
  sender.transmit(make_frame(0x200, {2}));
  sched.run();

  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.records()[0].frame.id().raw(), 0x100u);
  EXPECT_LT(recorder.records()[0].at, recorder.records()[1].at);
}

TEST(Recorder, CapacityBoundsDropOldest) {
  sim::Scheduler sched;
  FrameRecorder recorder(3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    recorder.on_frame(make_frame(0x100 + i, {}), sim::SimTime{i * 1ms});
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 2u);
  EXPECT_EQ(recorder.records()[0].frame.id().raw(), 0x102u);
}

TEST(Recorder, QueriesFilterCorrectly) {
  sim::Scheduler sched;
  FrameRecorder recorder;
  recorder.on_frame(make_frame(0x100, {1}), sim::SimTime{1ms});
  recorder.on_frame(make_frame(0x200, {2}), sim::SimTime{2ms});
  recorder.on_frame(make_frame(0x100, {3}), sim::SimTime{3ms});

  EXPECT_EQ(recorder.filter_by_id(CanId::standard(0x100)).size(), 2u);
  EXPECT_EQ(recorder.between(sim::SimTime{2ms}, sim::SimTime{3ms}).size(), 2u);
  ASSERT_NE(recorder.find_first(CanId::standard(0x200)), nullptr);
  EXPECT_EQ(recorder.find_first(CanId::standard(0x200))->frame.byte0(), 2);
  EXPECT_EQ(recorder.find_first(CanId::standard(0x700)), nullptr);
}

TEST(Recorder, CsvExportShape) {
  sim::Scheduler sched;
  FrameRecorder recorder;
  recorder.on_frame(make_frame(0x1A0, {0xDE, 0xAD}), sim::SimTime{5ms});
  const std::string csv = recorder.to_csv();
  EXPECT_NE(csv.find("time_ns,id,extended,rtr,dlc,data"), std::string::npos);
  EXPECT_NE(csv.find("0x1a0"), std::string::npos);
  EXPECT_NE(csv.find("dead"), std::string::npos);
}

TEST(Recorder, ZeroCapacityRejected) {
  EXPECT_THROW(FrameRecorder(0), std::invalid_argument);
}

TEST(Replayer, PreservesSpacingAndSupportsSpeedup) {
  sim::Scheduler sched;
  std::vector<sim::SimTime> fire_times;
  Replayer replayer(sched, [&](const Frame&) {
    fire_times.push_back(sched.now());
    return true;
  });
  std::vector<RecordedFrame> records = {
      {sim::SimTime{100ms}, make_frame(0x1, {})},
      {sim::SimTime{150ms}, make_frame(0x2, {})},
      {sim::SimTime{250ms}, make_frame(0x3, {})},
  };
  EXPECT_EQ(replayer.replay(records), 3u);
  sched.run();
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[1] - fire_times[0], sim::SimDuration{50ms});
  EXPECT_EQ(fire_times[2] - fire_times[1], sim::SimDuration{100ms});
  EXPECT_EQ(replayer.transmitted(), 3u);

  // 2x speedup halves the spacing.
  fire_times.clear();
  replayer.replay(records, 2.0);
  sched.run();
  EXPECT_EQ(fire_times[1] - fire_times[0], sim::SimDuration{25ms});
  EXPECT_THROW(replayer.replay(records, 0.0), std::invalid_argument);

  // Rejected replays schedule nothing: a NaN speedup, a speedup that
  // stretches the offsets past the clock, and records out of time order.
  const std::size_t pending = sched.pending();
  EXPECT_THROW(
      replayer.replay(records, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(sched.pending(), pending);
  EXPECT_THROW(replayer.replay(records, 1e-300), std::invalid_argument);
  EXPECT_EQ(sched.pending(), pending);
  const std::vector<RecordedFrame> reversed(records.rbegin(), records.rend());
  EXPECT_THROW(replayer.replay(reversed), std::invalid_argument);
  EXPECT_EQ(sched.pending(), pending);
}

TEST(Replayer, CountsRefusals) {
  sim::Scheduler sched;
  Replayer replayer(sched, [](const Frame&) { return false; });
  replayer.replay_repeated(make_frame(0x1, {}), 4, 1ms);
  sched.run();
  EXPECT_EQ(replayer.refused(), 4u);
  EXPECT_EQ(replayer.transmitted(), 0u);
}

// --- the classic CAN replay attack, end to end --------------------------

TEST(ReplayAttack, RecordedUnlockReplayedLater) {
  // Phase 1: while the owner legitimately unlocks in the workshop
  // (remote-diagnostic mode), a rogue device records the frame.
  // Phase 2: back in normal driving mode, the device replays it.
  // Unprotected vehicle: doors unlock while moving. HPE vehicle: the
  // victim's mode-conditional reading filter drops the stale command.
  for (const car::Enforcement regime :
       {car::Enforcement::kNone, car::Enforcement::kHpe}) {
    sim::Scheduler sched;
    car::VehicleConfig config;
    config.enforcement = regime;
    car::Vehicle vehicle(sched, config);
    FrameRecorder recorder;
    vehicle.bus().attach("rogue-recorder").set_sink(&recorder);
    sched.run_until(sched.now() + 200ms);

    // Workshop session: legitimate remote unlock via connectivity (B14).
    vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
    sched.run_until(sched.now() + 100ms);
    vehicle.doors().set_locked(true);
    attack::inject_via(vehicle, "connectivity",
                       car::command_frame(car::msg::kLockCommand,
                                          car::op::kUnlock));
    sched.run_until(sched.now() + 100ms);
    ASSERT_FALSE(vehicle.doors().locked()) << car::to_string(regime);
    const auto* unlock =
        recorder.find_first(CanId::standard(car::msg::kLockCommand));
    ASSERT_NE(unlock, nullptr) << "rogue device must have captured the frame";

    // Back on the road, doors locked, vehicle moving.
    vehicle.set_mode(car::CarMode::kNormal);
    sched.run_until(sched.now() + 100ms);
    vehicle.doors().set_locked(true);

    // Replay through an attacker port.
    attack::OutsideAttacker rogue(sched, vehicle.attach_attacker("rogue"));
    Replayer replayer(sched, [&](const Frame& f) { return rogue.inject(f); });
    replayer.replay_repeated(unlock->frame, 10, 10ms);
    sched.run_until(sched.now() + 300ms);

    if (regime == car::Enforcement::kNone) {
      EXPECT_GT(vehicle.doors().unlocks_while_moving(), 0u)
          << "replay must succeed on the unprotected vehicle";
    } else {
      EXPECT_EQ(vehicle.doors().unlocks_while_moving(), 0u)
          << "mode-conditional read filter must drop the replayed frame";
      EXPECT_TRUE(vehicle.doors().locked());
    }
  }
}

}  // namespace
}  // namespace psme::can
