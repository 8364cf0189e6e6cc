// Failure-injection and edge-case tests: behaviour at the unhappy
// boundaries — bus-off recovery mid-attack, exhausted update channels,
// audit-log saturation, receiver overload, and monitor retraining.
#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "car/vehicle.h"
#include "core/update.h"
#include "monitor/anomaly.h"

namespace psme {
namespace {

using namespace std::chrono_literals;

TEST(FailureInjection, BusOffNodeRecoversAndResumesDuty) {
  // Drive a node into bus-off with sustained bus errors, then clear the
  // fault and reset: the node must resume periodic duties.
  sim::Scheduler sched;
  car::Vehicle vehicle(sched);
  sched.run_until(sched.now() + 200ms);
  const auto sent_before = vehicle.sensors().controller().stats().tx_sent;

  vehicle.bus().set_error_rate(1.0);
  vehicle.sensors().controller().set_retransmit_limit(1000);
  sched.run_until(sched.now() + 2s);
  EXPECT_EQ(vehicle.sensors().controller().error_state(),
            can::ErrorState::kBusOff);

  vehicle.bus().set_error_rate(0.0);
  vehicle.sensors().controller().reset_errors();
  sched.run_until(sched.now() + 1s);
  EXPECT_EQ(vehicle.sensors().controller().error_state(),
            can::ErrorState::kErrorActive);
  EXPECT_GT(vehicle.sensors().controller().stats().tx_sent, sent_before);
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
}

TEST(FailureInjection, AttackDuringVictimBusOffStillBlocked) {
  // The HPE write filter is in front of the bus: a blocked inside attack
  // stays blocked regardless of the victim's fault-confinement state.
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  car::Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 200ms);

  vehicle.bus().set_error_rate(0.3);
  attack::inject_via_repeated(
      sched, vehicle, "doors",
      car::command_frame(car::msg::kEcuCommand, car::op::kDisable), 30, 10ms);
  sched.run_until(sched.now() + 1s);
  EXPECT_TRUE(vehicle.ecu().active());
  EXPECT_EQ(vehicle.ecu().disable_events(), 0u);
}

TEST(FailureInjection, UpdateChannelTotalOutageThenRecovery) {
  sim::Scheduler sched;
  core::PolicySet set("fleet", 2);
  const core::PolicySigner signer(9);
  core::PolicyBundle bundle{set, signer.sign(set), "oem"};

  core::UpdateChannel channel(sched, 5ms, /*loss_rate=*/1.0, /*seed=*/2);
  channel.set_max_attempts(3);
  int deliveries = 0;
  channel.subscribe([&](const core::PolicyBundle&) { ++deliveries; });
  channel.publish(bundle);
  sched.run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(channel.lost(), 1u);

  // Outage clears; the OEM republishes and the fleet converges.
  channel.publish(bundle);
  // loss_rate is fixed per channel; emulate recovery with a new channel.
  core::UpdateChannel healthy(sched, 5ms, 0.0);
  healthy.subscribe([&](const core::PolicyBundle&) { ++deliveries; });
  healthy.publish(bundle);
  sched.run();
  EXPECT_GE(deliveries, 1);
}

TEST(FailureInjection, HpeAuditLogSaturatesGracefully) {
  sim::Scheduler sched;
  can::Bus bus(sched);
  can::Port& victim_port = bus.attach("victim");
  can::Port& peer_port = bus.attach("peer");
  hpe::HpeConfig config;  // empty lists: everything blocked
  hpe::HardwarePolicyEngine engine(victim_port, config, "victim");
  can::Controller ctrl(sched, engine, "victim");
  can::Controller peer(sched, peer_port, "peer");

  for (int i = 0; i < 1500; ++i) {
    peer.transmit(can::make_frame(0x100 + (i % 0x400), {}));
    if (i % 50 == 0) sched.run();
  }
  sched.run();
  // Counters keep counting past the audit capacity; the log is bounded.
  EXPECT_GT(engine.stats().read_blocked, 1024u);
  EXPECT_LE(engine.audit_log().size(), 1024u);
}

TEST(FailureInjection, ReceiverOverloadCountsOverflowsNotCrashes) {
  sim::Scheduler sched;
  can::Bus bus(sched);
  can::Port& rx_port = bus.attach("rx");
  can::Port& tx_port = bus.attach("tx");
  can::Controller rx(sched, rx_port, "rx");
  can::Controller tx(sched, tx_port, "tx");
  rx.set_rx_fifo_capacity(4);
  // No handler registered: frames pile into the FIFO.
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 8; ++i) tx.transmit(can::make_frame(0x123, {}));
    sched.run();
  }
  EXPECT_EQ(rx.rx_fifo_depth(), 4u);
  EXPECT_GT(rx.stats().rx_overflow, 50u);
  // Draining restores service.
  can::Frame f;
  while (rx.receive(f)) {
  }
  EXPECT_EQ(rx.rx_fifo_depth(), 0u);
}

TEST(FailureInjection, MonitorRetrainsAfterTopologyChange) {
  // A new legitimate id appears (e.g. retrofitted device): it alerts until
  // the operator retrains, after which it is part of the matrix.
  sim::Scheduler sched;
  monitor::FrameRateMonitor ids(sched);
  ids.start_training();
  for (int i = 0; i < 20; ++i) {
    ids.on_frame(can::make_frame(0x100, {}), sim::SimTime{10ms * i});
  }
  ids.start_detection();
  ids.on_frame(can::make_frame(0x321, {}), sim::SimTime{500ms});
  ASSERT_EQ(ids.alerts().size(), 1u);

  ids.start_training();
  for (int i = 0; i < 20; ++i) {
    ids.on_frame(can::make_frame(0x100, {}), sim::SimTime{1000ms + 10ms * i});
    ids.on_frame(can::make_frame(0x321, {}), sim::SimTime{1000ms + 10ms * i});
  }
  ids.start_detection();
  ids.on_frame(can::make_frame(0x321, {}), sim::SimTime{2000ms});
  EXPECT_EQ(ids.alerts().size(), 1u);  // no new alert
}

TEST(FailureInjection, GatewaySurvivesCrossSegmentFlood) {
  // A telematics-side flood of a forwardable id must not wedge the gateway
  // or starve the control loop (forwarded traffic arbitrates normally).
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.topology = car::Topology::kSegmented;
  car::Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 300ms);
  attack::OutsideAttacker rogue(sched, vehicle.attach_attacker("rogue"));
  // Flood the ECU command id (forwardable in normal mode via T03's RW).
  rogue.inject_repeated(
      car::command_frame(car::msg::kEcuCommand, car::op::kEnable), 300, 2ms);
  sched.run_until(sched.now() + 1s);
  // The control loop still runs and the gateway kept up.
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 5u);
  EXPECT_GT(vehicle.bridge()->stats().forwarded_a_to_b, 100u);
}

}  // namespace
}  // namespace psme
