// Tests for the policy-filtering bridge (psme::hpe::Bridge) and the
// segmented vehicle topology (a car::Vehicle built with
// Topology::kSegmented).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "car/vehicle.h"
#include "hpe/bridge.h"
#include "trace_reads.h"

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
  explicit BridgeRig(hpe::BridgeConfig config, sim::Trace* trace = nullptr) {
    bridge = std::make_unique<hpe::Bridge>(sched, bus_a, bus_b,
                                           std::move(config), "gateway", trace);
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

// A drop's entry is recorded deferred. Through each read that renders
// it, it reads as its pieces joined by sim::TraceText, in both
// directions, for standard and extended ids.
TEST(Bridge, DropEntriesReadAsTheirText) {
  const std::array ids = {can::CanId::standard(0x000),
                          can::CanId::standard(0x7FF),
                          can::CanId::extended(0x18DAF110),
                          can::CanId::extended(0x1FFFFFFF)};
  for (const tracetest::Read read : tracetest::kReads) {
    SCOPED_TRACE(tracetest::to_string(read));
    sim::Trace trace(sim::TraceLevel::kSecurity);
    hpe::BridgeConfig config;
    config.default_lists.a_to_b.add(can::CanId::standard(0x100));
    config.default_lists.b_to_a.add(can::CanId::standard(0x300));
    BridgeRig rig(std::move(config), &trace);

    std::vector<std::string> expected;
    for (const can::CanId id : ids) {
      for (const hpe::BridgeDirection direction :
           {hpe::BridgeDirection::kAToB, hpe::BridgeDirection::kBToA}) {
        can::Controller& sender = direction == hpe::BridgeDirection::kAToB
                                      ? *rig.sender_a
                                      : *rig.sender_b;
        sender.transmit(can::Frame(id, {}));
        rig.sched.run();
        expected.push_back("bridge.gateway: " +
                           std::string(sim::TraceText{
                               to_string(direction), " dropped ", id.text()}));
      }
    }
    EXPECT_EQ(expected[1], "bridge.gateway: b->a dropped 0x0");
    EXPECT_EQ(expected.back(), "bridge.gateway: b->a dropped 0x1FFFFFFFx");

    EXPECT_EQ(rig.bridge->stats().dropped_a_to_b, ids.size());
    EXPECT_EQ(rig.bridge->stats().dropped_b_to_a, ids.size());
    EXPECT_EQ(trace.count_component("bridge.gateway"), expected.size());
    EXPECT_EQ(tracetest::read_lines(trace, read), expected);
  }
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

  auto step = [&](can::Controller& sender, const can::Frame& f) {
    sender.transmit(f);
    rig.sched.run();
  };
  step(*rig.sender_a, can::make_frame(0x100, {}));  // mode 0: forwarded
  step(*rig.sender_a, can::make_frame(0x200, {}));  // mode 0: dropped
  step(*rig.sender_b, can::make_frame(0x20, {2}));  // mode change from B:
                                                    // always forwarded
  step(*rig.sender_a, can::make_frame(0x200, {}));  // mode 2: forwarded
  step(*rig.sender_a, can::make_frame(0x100, {}));  // mode 2: dropped

  EXPECT_EQ(rig.tap_b.ids,
            (std::vector<std::uint32_t>{0x100, 0x20, 0x200}));
  EXPECT_EQ(rig.tap_a.ids,
            (std::vector<std::uint32_t>{0x100, 0x200, 0x20, 0x200, 0x100}));
  EXPECT_EQ(rig.bridge->current_mode(), 2);
}

TEST(Bridge, ModeFrameFromSideASwitchesNothing) {
  // Bus B hosts the mode master. From side A a mode frame is an ordinary
  // frame: off the a->b list, it is dropped, counted and traced, and the
  // bridge keeps its mode and its lists.
  sim::Trace trace(sim::TraceLevel::kSecurity);
  hpe::BridgeConfig config;
  config.mode_frame_id = 0x20;
  config.per_mode[0].a_to_b.add(can::CanId::standard(0x100));
  config.per_mode[2].a_to_b.add(can::CanId::standard(0x200));
  BridgeRig rig(std::move(config), &trace);

  rig.sender_a->transmit(can::make_frame(0x20, {2}));
  rig.sched.run();
  rig.sender_a->transmit(can::make_frame(0x200, {}));  // mode 0: dropped
  rig.sched.run();

  EXPECT_EQ(rig.bridge->current_mode(), 0);
  EXPECT_EQ(rig.bridge->stats().mode_switches, 0u);
  EXPECT_EQ(rig.bridge->stats().dropped_a_to_b, 2u);
  EXPECT_EQ(rig.bridge->stats().forwarded_a_to_b, 0u);
  EXPECT_TRUE(rig.tap_b.ids.empty());
  EXPECT_EQ(trace.count_component("bridge.gateway"), 2u);
  EXPECT_EQ(trace.entries().front().message,
            std::string_view("a->b dropped 0x20"));
}

car::VehicleConfig segmented(std::uint64_t seed = 42) {
  car::VehicleConfig config;
  config.topology = car::Topology::kSegmented;
  config.seed = seed;
  return config;
}

std::vector<std::string> port_names(can::Bus& bus) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < bus.port_count(); ++i) {
    names.push_back(bus.port(i).name());
  }
  return names;
}

TEST(SegmentedVehicle, EachNodeSitsOnItsSegment) {
  sim::Scheduler sched;
  car::Vehicle flat(sched);
  EXPECT_EQ(flat.bridge(), nullptr);
  EXPECT_EQ(&flat.telematics_bus(), &flat.bus());

  // The gateway attaches first, then the mode master and the nodes in
  // order; an outside attacker joins the telematics bus.
  car::Vehicle vehicle(sched, segmented());
  (void)vehicle.attach_attacker("rogue");
  EXPECT_EQ(port_names(vehicle.telematics_bus()),
            (std::vector<std::string>{"gateway.a", "connectivity",
                                      "infotainment", "rogue"}));
  EXPECT_EQ(port_names(vehicle.bus()),
            (std::vector<std::string>{"gateway.b", "gateway", "ecu", "eps",
                                      "engine", "sensors", "doors",
                                      "safety"}));
  EXPECT_EQ(vehicle.telematics_bus().bit_rate(), can::kBitRate125k);
  EXPECT_EQ(vehicle.bus().bit_rate(), can::kBitRate500k);
}

TEST(SegmentedVehicle, NormalOperationAcrossSegments) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  sched.run_until(sched.now() + 2s);

  // Control loop intact on the control bus.
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
  // Telematics side still sees sensor status through the gateway
  // (infotainment displays speed; tracking reports flow).
  EXPECT_EQ(vehicle.infotainment().displayed_speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
  EXPECT_GT(vehicle.bridge()->stats().forwarded_b_to_a, 0u);
}

TEST(SegmentedVehicle, GatewayBlocksControlCommandsFromTelematics) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  sched.run_until(sched.now() + 500ms);

  // A rogue device on the telematics segment (e.g. compromised head unit)
  // spoofs EPS-disable and alarm-disarm commands. Policy grants telematics
  // no write toward either in normal mode: the gateway drops the frames
  // and the control segment never sees them.
  attack::OutsideAttacker attacker(sched,
                                   vehicle.attach_attacker("rogue-dongle"));
  attacker.inject_repeated(
      car::command_frame(car::msg::kEpsCommand, car::op::kDisable), 10, 10ms);
  attacker.inject_repeated(
      car::command_frame(car::msg::kAlarmCommand, car::op::kDisarm), 10, 10ms);
  sched.run_until(sched.now() + 500ms);

  EXPECT_TRUE(vehicle.eps().active());
  EXPECT_GT(vehicle.bridge()->stats().dropped_a_to_b, 15u);
}

TEST(SegmentedVehicle, PolicyAllowedTrafficCrossesInBothModes) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  sched.run_until(sched.now() + 300ms);

  // Connectivity has RW toward the EV-ECU in normal mode (T03): the modem
  // can command the ECU across the gateway.
  attack::inject_via(vehicle, "connectivity",
                     car::command_frame(car::msg::kEcuCommand, car::op::kDisable));
  sched.run_until(sched.now() + 200ms);
  EXPECT_FALSE(vehicle.ecu().active());

  // In remote-diagnostic mode the workshop can command the EPS (B12).
  attack::inject_via(vehicle, "connectivity",
                     car::command_frame(car::msg::kEcuCommand, car::op::kEnable));
  vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 200ms);
  attack::inject_via(vehicle, "connectivity",
                     car::command_frame(car::msg::kEpsCommand, car::op::kDisable));
  sched.run_until(sched.now() + 200ms);
  EXPECT_FALSE(vehicle.eps().active());
}

TEST(SegmentedVehicle, ModeChangeReachesBothSegments) {
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  sched.run_until(sched.now() + 200ms);
  vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 200ms);
  EXPECT_EQ(vehicle.ecu().mode(), car::CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.connectivity().mode(), car::CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.bridge()->current_mode(),
            static_cast<std::uint8_t>(car::CarMode::kRemoteDiagnostic));
}

can::Port& port_named(can::Bus& bus, std::string_view name) {
  for (std::size_t i = 0; i < bus.port_count(); ++i) {
    if (bus.port(i).name() == name) return bus.port(i);
  }
  throw std::out_of_range("no such port");
}

/// Counts the gateway's security-trace drops of `id` toward control.
std::size_t drops_toward_control(const sim::Trace& trace, std::uint32_t id) {
  const std::string message =
      "a->b dropped " + std::string(can::CanId::standard(id).text());
  std::size_t count = 0;
  for (const sim::TraceEntry& entry : trace.entries()) {
    count += entry.component == "bridge.gateway" && entry.message == message;
  }
  return count;
}

TEST(SegmentedVehicle, TelematicsModeFrameMovesNeitherGatewayNorControl) {
  // A telematics-side device forges one remote-diagnostic mode frame, then
  // five EPS-disable frames. The mode master sits on the control bus, so
  // the gateway takes the forged frame for an ordinary one and drops it:
  // the gateway, the ECU and the mode master stay in normal mode, and the
  // gateway drops all five EPS commands, as it does without the forgery.
  sim::Trace trace(sim::TraceLevel::kSecurity);
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented(), &trace);
  sched.run_until(sched.now() + 300ms);
  attack::OutsideAttacker rogue(sched, vehicle.attach_attacker("rogue"));
  rogue.inject(car::command_frame(
      car::msg::kModeChange,
      static_cast<std::uint8_t>(car::CarMode::kRemoteDiagnostic)));
  sched.run_until(sched.now() + 50ms);
  rogue.inject_repeated(
      car::command_frame(car::msg::kEpsCommand, car::op::kDisable), 5, 10ms);
  sched.run_until(sched.now() + 200ms);

  EXPECT_EQ(vehicle.bridge()->current_mode(),
            static_cast<std::uint8_t>(car::CarMode::kNormal));
  EXPECT_EQ(vehicle.bridge()->stats().mode_switches, 0u);
  EXPECT_EQ(vehicle.ecu().mode(), car::CarMode::kNormal);
  EXPECT_EQ(vehicle.mode(), car::CarMode::kNormal);
  EXPECT_TRUE(vehicle.eps().active());
  EXPECT_EQ(drops_toward_control(trace, car::msg::kModeChange), 1u);
  EXPECT_EQ(drops_toward_control(trace, car::msg::kEpsCommand), 5u);
}

TEST(SegmentedVehicle, GatewayCountsAsForwardedOnlyWhatItQueued) {
  // A control-side flood of the sensor-speed id, one frame every 300 us
  // for 2 s, outruns the 125 kbit/s telematics bus and fills the gateway's
  // queue toward it. Every frame counted as forwarded must reach the
  // telematics bus; the rest are counted as refused.
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  attack::OutsideAttacker flood(sched, vehicle.bus().attach("flood"));
  flood.inject_repeated(can::make_frame(car::msg::kSensorSpeed, {42}), 6667,
                        300us);
  sched.run_until(sched.now() + 2100ms);
  // Cut the gateway off the control bus and let its queue drain.
  port_named(vehicle.bus(), "gateway.b").disconnect();
  sched.run_until(sched.now() + 500ms);

  can::Bus& telematics = vehicle.telematics_bus();
  const std::size_t gateway = port_named(telematics, "gateway.a").index();
  std::uint64_t put_on_telematics = 0;
  for (std::uint32_t id = 0; id <= can::CanId::kMaxStandard; ++id) {
    put_on_telematics +=
        telematics.tx_attribution(can::CanId::standard(id))[gateway];
  }
  const hpe::BridgeStats& stats = vehicle.bridge()->stats();
  EXPECT_EQ(stats.forwarded_b_to_a, put_on_telematics);
  EXPECT_GT(stats.refused_b_to_a, 1000u);
  EXPECT_EQ(stats.refused_a_to_b, 0u);
}

TEST(SegmentedVehicle, FloodCannotHoldTheGatewayAgainstTheECall) {
  // The same control-side flood, with the airbag deployed at 1 s. The
  // fail-safe mode frame and the e-call outrank the flooded id, so each
  // pushes a queued sensor-speed frame out of the gateway's full queue
  // toward telematics instead of being refused: the modem reaches
  // fail-safe and places the call, as it does without the flood.
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  attack::OutsideAttacker flood(sched, vehicle.bus().attach("flood"));
  flood.inject_repeated(can::make_frame(car::msg::kSensorSpeed, {42}), 6667,
                        300us);
  sched.schedule_at(sim::SimTime{1s},
                    [&vehicle] { vehicle.safety().airbag_deployed(); });
  sched.run_until(sched.now() + 2100ms);

  EXPECT_EQ(vehicle.connectivity().mode(), car::CarMode::kFailSafe);
  EXPECT_EQ(vehicle.connectivity().ecalls_made(), 1u);
  EXPECT_GT(vehicle.bridge()->stats().refused_b_to_a, 1000u);
}

TEST(SegmentedVehicle, PolicyUpdateReprogramsTheGateway) {
  // v2 revokes the modem's normal-mode write on the EV-ECU, which v1
  // grants (T03). A forged v2 changes nothing; the signed one reprograms
  // the gateway, which then drops a telematics rogue's ECU command that
  // it forwarded under v1.
  core::PolicySet v2 = car::full_policy(car::connected_car_threat_model(), 2);
  v2.add_rule(core::PolicyRule{
      "T03.revoke", car::entry::kConnectivity, car::asset::kEvEcu,
      threat::Permission::kRead, {car::mode_id(car::CarMode::kNormal)}, 1000,
      "the modem no longer commands the EV-ECU"});
  const core::PolicySigner oem(0xFEED);
  const core::PolicySigner forger(0xBAD);
  const can::CanId ecu_command = can::CanId::standard(car::msg::kEcuCommand);
  const auto normal_a_to_b = [](const car::Vehicle& v) -> const auto& {
    return v.plan()
        .gateway_config()
        .per_mode.at(static_cast<std::uint8_t>(car::CarMode::kNormal))
        .a_to_b;
  };

  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented());
  sched.run_until(sched.now() + 300ms);
  attack::OutsideAttacker rogue(sched, vehicle.attach_attacker("rogue"));
  const auto command_ecu = [&](std::uint8_t opcode) {
    rogue.inject(car::command_frame(car::msg::kEcuCommand, opcode));
    sched.run_until(sched.now() + 100ms);
  };

  const car::VehiclePlan* v1_plan = &vehicle.plan();
  EXPECT_FALSE(vehicle.apply_policy_update(
      core::PolicyBundle{v2, forger.sign(v2), "forger"}, oem));
  EXPECT_EQ(&vehicle.plan(), v1_plan);
  EXPECT_EQ(vehicle.policy().version(), 1u);
  EXPECT_TRUE(normal_a_to_b(vehicle).contains(ecu_command));
  command_ecu(car::op::kDisable);
  EXPECT_FALSE(vehicle.ecu().active());
  command_ecu(car::op::kEnable);
  ASSERT_TRUE(vehicle.ecu().active());

  ASSERT_TRUE(vehicle.apply_policy_update(
      core::PolicyBundle{v2, oem.sign(v2), "oem"}, oem));
  EXPECT_EQ(vehicle.policy().version(), 2u);
  EXPECT_FALSE(normal_a_to_b(vehicle).contains(ecu_command));
  const std::uint64_t dropped = vehicle.bridge()->stats().dropped_a_to_b;
  command_ecu(car::op::kDisable);
  EXPECT_TRUE(vehicle.ecu().active());
  EXPECT_GT(vehicle.bridge()->stats().dropped_a_to_b, dropped);
}

/// FNV-1a over a segmented drive's observable state: both buses, every
/// gateway counter, every node's controller counters, the hazard counters,
/// and the trace's size and rendering.
class DriveHash {
 public:
  void add(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<std::uint8_t>(value >> shift));
    }
  }
  void add(const can::Bus& bus) {
    add(bus.frames_delivered());
    add(bus.frames_corrupted());
    add(bus.arbitration_rounds());
  }
  void add(const can::ControllerStats& c) {
    for (const std::uint64_t v :
         {c.tx_queued, c.tx_sent, c.tx_retransmits, c.tx_dropped, c.rx_seen,
          c.rx_accepted, c.rx_filtered, c.rx_overflow, c.rx_quarantined,
          c.rx_wire_denied}) {
      add(v);
    }
  }
  void add(const hpe::BridgeStats& s) {
    for (const std::uint64_t v :
         {s.forwarded_a_to_b, s.dropped_a_to_b, s.forwarded_b_to_a,
          s.dropped_b_to_a, s.mode_switches}) {
      add(v);
    }
  }
  void add(const sim::Trace& trace) {
    for (const char c : trace.render()) byte(static_cast<std::uint8_t>(c));
    add(trace.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(std::uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A seeded segmented drive with a legitimate mode cycle and command frames
// from the telematics side, some forwarded and some dropped. The hash was
// taken while the segmented topology was its own vehicle class: building
// it from a Vehicle plan must keep every simulated number. The drive sends
// no telematics-side mode frame and never fills the gateway's queues.
TEST(SegmentedGolden, DriveMatchesPinnedHash) {
  sim::Trace trace(sim::TraceLevel::kSecurity);
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented(20261016), &trace);
  vehicle.safety().set_armed(true);
  can::Controller& modem = vehicle.connectivity().controller();
  can::Controller& head_unit = vehicle.infotainment().controller();
  const auto at = [&sched](std::chrono::milliseconds when, auto action) {
    sched.schedule_at(sim::SimTime{when}, action);
  };
  using car::command_frame;
  namespace msg = car::msg;
  namespace op = car::op;
  // Normal mode: the modem may command the ECU (T03), nothing else.
  at(600ms, [&] { modem.transmit(command_frame(msg::kEcuCommand, op::kDisable)); });
  at(700ms, [&] { modem.transmit(command_frame(msg::kEpsCommand, op::kDisable)); });
  at(750ms, [&] { head_unit.transmit(command_frame(msg::kAlarmCommand, op::kDisarm)); });
  at(800ms, [&] { head_unit.transmit(command_frame(msg::kLockCommand, op::kUnlock)); });
  at(900ms, [&] { modem.transmit(command_frame(msg::kEcuCommand, op::kEnable)); });
  // The workshop session: EPS commands cross the gateway.
  at(1200ms, [&] { vehicle.set_mode(car::CarMode::kRemoteDiagnostic); });
  at(1500ms, [&] { modem.transmit(command_frame(msg::kEpsCommand, op::kDisable)); });
  at(1700ms, [&] { modem.transmit(command_frame(msg::kEpsCommand, op::kEnable)); });
  at(2000ms, [&] { vehicle.set_mode(car::CarMode::kNormal); });
  at(2300ms, [&] { modem.transmit(command_frame(msg::kEpsCommand, op::kDisable)); });
  at(2400ms, [&] { head_unit.transmit(command_frame(msg::kEngineCommand, op::kDisable)); });
  sched.run_until(sim::SimTime{3s});

  const hpe::BridgeStats& gateway = vehicle.bridge()->stats();
  DriveHash hash;
  hash.add(vehicle.bus());
  hash.add(vehicle.telematics_bus());
  hash.add(gateway);
  hash.add(vehicle.gateway().controller().stats());
  for (car::CarNode* node :
       std::initializer_list<car::CarNode*>{
           &vehicle.ecu(), &vehicle.eps(), &vehicle.engine(),
           &vehicle.sensors(), &vehicle.doors(), &vehicle.safety(),
           &vehicle.connectivity(), &vehicle.infotainment()}) {
    hash.add(node->controller().stats());
  }
  for (const car::ActuatorNode* node :
       std::initializer_list<const car::ActuatorNode*>{
           &vehicle.ecu(), &vehicle.eps(), &vehicle.engine()}) {
    hash.add(node->active() ? 1 : 0);
    hash.add(node->disable_events());
  }
  hash.add(vehicle.doors().unlocks_while_moving());
  hash.add(vehicle.safety().disarm_events());
  hash.add(trace);

  EXPECT_EQ(gateway.mode_switches, 2u);
  EXPECT_EQ(gateway.refused_a_to_b + gateway.refused_b_to_a, 0u);
  EXPECT_EQ(trace.size(), 86u);
  EXPECT_EQ(hash.value(), 0x2a30f00693a01261ULL);
}

TEST(GatewayLists, DeriveFromPolicy) {
  const auto policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  const auto normal = compiler.build_gateway_lists(car::CarMode::kNormal);
  // Telematics may command the ECU in normal mode (T03 keeps RW)...
  EXPECT_TRUE(normal.a_to_b.contains(can::CanId::standard(car::msg::kEcuCommand)));
  // ...but not the EPS, the alarm, or the doors.
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kEpsCommand)));
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kAlarmCommand)));
  EXPECT_FALSE(normal.a_to_b.contains(can::CanId::standard(car::msg::kLockCommand)));
  // Sensor status flows outward for the display.
  EXPECT_TRUE(normal.b_to_a.contains(can::CanId::standard(car::msg::kSensorSpeed)));

  const auto diag = compiler.build_gateway_lists(car::CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(diag.a_to_b.contains(can::CanId::standard(car::msg::kEpsCommand)));
}

}  // namespace
}  // namespace psme
