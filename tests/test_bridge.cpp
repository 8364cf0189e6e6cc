// Tests for the policy-filtering bridge (psme::hpe::Bridge) and the
// segmented vehicle topology (psme::car::SegmentedVehicle).
#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "car/segmented.h"
#include "hpe/bridge.h"

namespace psme {
namespace {

using namespace std::chrono_literals;

struct Tap final : can::FrameSink {
  void on_frame(const can::Frame& frame, sim::SimTime) override {
    ids.push_back(frame.id().raw());
  }
  std::vector<std::uint32_t> ids;
};

struct BridgeRig {
  explicit BridgeRig(hpe::BridgeConfig config) {
    bridge = std::make_unique<hpe::Bridge>(sched, bus_a, bus_b,
                                           std::move(config));
    bus_a.attach("a-tap").set_sink(&tap_a);
    bus_b.attach("b-tap").set_sink(&tap_b);
    sender_a = std::make_unique<can::Controller>(sched, bus_a.attach("sa"), "sa");
    sender_b = std::make_unique<can::Controller>(sched, bus_b.attach("sb"), "sb");
  }

  sim::Scheduler sched;
  can::Bus bus_a{sched};
  can::Bus bus_b{sched};
  std::unique_ptr<hpe::Bridge> bridge;
  Tap tap_a, tap_b;
  std::unique_ptr<can::Controller> sender_a, sender_b;
};

TEST(Bridge, ForwardsOnlyApprovedIds) {
  hpe::BridgeConfig config;
  config.default_lists.a_to_b.add(can::CanId::standard(0x100));
  BridgeRig rig(std::move(config));

  rig.sender_a->transmit(can::make_frame(0x100, {1}));  // approved
  rig.sender_a->transmit(can::make_frame(0x200, {2}));  // dropped
  rig.sched.run();

  ASSERT_EQ(rig.tap_b.ids.size(), 1u);
  EXPECT_EQ(rig.tap_b.ids[0], 0x100u);
  EXPECT_EQ(rig.bridge->stats().forwarded_a_to_b, 1u);
  EXPECT_EQ(rig.bridge->stats().dropped_a_to_b, 1u);
}

TEST(Bridge, DirectionsAreIndependent) {
  hpe::BridgeConfig config;
  config.default_lists.a_to_b.add(can::CanId::standard(0x100));
  config.default_lists.b_to_a.add(can::CanId::standard(0x300));
  BridgeRig rig(std::move(config));

  rig.sender_a->transmit(can::make_frame(0x300, {}));  // not approved a->b
  rig.sender_b->transmit(can::make_frame(0x300, {}));  // approved b->a
  rig.sched.run();

  // Bus B sees only sender_b's own frame (nothing forwarded from A);
  // bus A sees sender_a's original plus the frame forwarded from B.
  EXPECT_EQ(rig.tap_b.ids.size(), 1u);
  EXPECT_EQ(rig.tap_a.ids.size(), 2u);
  EXPECT_EQ(rig.bridge->stats().dropped_a_to_b, 1u);
  EXPECT_EQ(rig.bridge->stats().forwarded_b_to_a, 1u);
}

TEST(Bridge, NoForwardingLoop) {
  // Id approved in both directions: a frame from A appears once on B and
  // is NOT reflected back to A (the bridge never re-receives frames it
  // transmitted itself — CAN excludes the sender from delivery).
  hpe::BridgeConfig config;
  config.default_lists.a_to_b.add(can::CanId::standard(0x100));
  config.default_lists.b_to_a.add(can::CanId::standard(0x100));
  BridgeRig rig(std::move(config));

  rig.sender_a->transmit(can::make_frame(0x100, {7}));
  rig.sched.run();

  EXPECT_EQ(rig.tap_b.ids.size(), 1u);
  // Tap on A sees the original transmission only (1 frame), no echo.
  EXPECT_EQ(rig.tap_a.ids.size(), 1u);
  EXPECT_EQ(rig.bridge->stats().forwarded_a_to_b, 1u);
  EXPECT_EQ(rig.bridge->stats().forwarded_b_to_a, 0u);
}

TEST(Bridge, ModeFrameAlwaysForwardedAndSwitchesLists) {
  hpe::BridgeConfig config;
  config.mode_frame_id = 0x20;
  config.per_mode[0].a_to_b.add(can::CanId::standard(0x100));
  config.per_mode[2].a_to_b.add(can::CanId::standard(0x200));
  BridgeRig rig(std::move(config));

  auto step = [&](const can::Frame& f) {
    rig.sender_a->transmit(f);
    rig.sched.run();
  };
  step(can::make_frame(0x100, {}));      // mode 0: forwarded
  step(can::make_frame(0x200, {}));      // mode 0: dropped
  step(can::make_frame(0x20, {2}));      // mode change: always forwarded
  step(can::make_frame(0x200, {}));      // mode 2: forwarded
  step(can::make_frame(0x100, {}));      // mode 2: dropped

  EXPECT_EQ(rig.tap_b.ids,
            (std::vector<std::uint32_t>{0x100, 0x20, 0x200}));
  EXPECT_EQ(rig.bridge->current_mode(), 2);
}

TEST(SegmentedVehicle, NormalOperationAcrossSegments) {
  sim::Scheduler sched;
  car::SegmentedVehicle vehicle(sched);
  sched.run_until(sched.now() + 2s);

  // Control loop intact on the control bus.
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
  // Telematics side still sees sensor status through the gateway
  // (infotainment displays speed; tracking reports flow).
  EXPECT_EQ(vehicle.infotainment().displayed_speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
  EXPECT_GT(vehicle.gateway().stats().forwarded_b_to_a, 0u);
}

TEST(SegmentedVehicle, GatewayBlocksControlCommandsFromTelematics) {
  sim::Scheduler sched;
  car::SegmentedVehicle vehicle(sched);
  sched.run_until(sched.now() + 500ms);

  // A rogue device on the telematics segment (e.g. compromised head unit)
  // spoofs EPS-disable and alarm-disarm commands. Policy grants telematics
  // no write toward either in normal mode: the gateway drops the frames
  // and the control segment never sees them.
  attack::OutsideAttacker attacker(
      sched, vehicle.attach_telematics_attacker("rogue-dongle"));
  attacker.inject_repeated(
      car::command_frame(car::msg::kEpsCommand, car::op::kDisable), 10, 10ms);
  attacker.inject_repeated(
      car::command_frame(car::msg::kAlarmCommand, car::op::kDisarm), 10, 10ms);
  sched.run_until(sched.now() + 500ms);

  EXPECT_TRUE(vehicle.eps().active());
  EXPECT_GT(vehicle.gateway().stats().dropped_a_to_b, 15u);
}

TEST(SegmentedVehicle, PolicyAllowedTrafficCrossesInBothModes) {
  sim::Scheduler sched;
  car::SegmentedVehicle vehicle(sched);
  sched.run_until(sched.now() + 300ms);

  // Connectivity has RW toward the EV-ECU in normal mode (T03): the modem
  // can command the ECU across the gateway.
  attack::inject_via(vehicle.connectivity().controller(),
                     car::command_frame(car::msg::kEcuCommand, car::op::kDisable));
  sched.run_until(sched.now() + 200ms);
  EXPECT_FALSE(vehicle.ecu().active());

  // In remote-diagnostic mode the workshop can command the EPS (B12).
  attack::inject_via(vehicle.connectivity().controller(),
                     car::command_frame(car::msg::kEcuCommand, car::op::kEnable));
  vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 200ms);
  attack::inject_via(vehicle.connectivity().controller(),
                     car::command_frame(car::msg::kEpsCommand, car::op::kDisable));
  sched.run_until(sched.now() + 200ms);
  EXPECT_FALSE(vehicle.eps().active());
}

TEST(SegmentedVehicle, ModeChangeReachesBothSegments) {
  sim::Scheduler sched;
  car::SegmentedVehicle vehicle(sched);
  sched.run_until(sched.now() + 200ms);
  vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 200ms);
  EXPECT_EQ(vehicle.ecu().mode(), car::CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.connectivity().mode(), car::CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.gateway().current_mode(),
            static_cast<std::uint8_t>(car::CarMode::kRemoteDiagnostic));
}

TEST(GatewayLists, DeriveFromPolicy) {
  const auto policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  const auto normal = car::build_gateway_lists(
      compiler, car::SegmentedVehicle::telematics_nodes(),
      car::CarMode::kNormal);
  // Telematics may command the ECU in normal mode (T03 keeps RW)...
  EXPECT_TRUE(normal.a_to_b.contains(can::CanId::standard(car::msg::kEcuCommand)));
  // ...but not the EPS, the alarm, or the doors.
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kEpsCommand)));
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kAlarmCommand)));
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kLockCommand)));
  // Sensor status flows outward for the display.
  EXPECT_TRUE(normal.b_to_a.contains(can::CanId::standard(car::msg::kSensorSpeed)));

  const auto diag = car::build_gateway_lists(
      compiler, car::SegmentedVehicle::telematics_nodes(),
      car::CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(diag.a_to_b.contains(can::CanId::standard(car::msg::kEpsCommand)));
}

}  // namespace
}  // namespace psme
