#include "car/components.h"

#include <array>

namespace psme::car {

using namespace std::chrono_literals;

can::Frame command_frame(std::uint32_t id, std::uint8_t opcode,
                         std::uint8_t arg) {
  const std::array<std::uint8_t, 2> payload{opcode, arg};
  return can::Frame(can::CanId::standard(id),
                    std::span<const std::uint8_t>(payload));
}

CarNode::CarNode(sim::Scheduler& sched, can::Channel& channel,
                 std::string name, sim::Trace* trace, std::uint64_t seed)
    : can::Node(sched, channel, std::move(name), trace, seed) {}

void CarNode::enable_diagnostics(std::uint8_t address) {
  responder_.emplace(
      address,
      [this](std::uint8_t did) { return diag_read(did); },
      [this](std::uint8_t did, std::uint8_t value) {
        return diag_write(did, value);
      },
      [this] { diag_reset(); });
}

void CarNode::handle_frame(const can::Frame& frame, sim::SimTime at) {
  if (!frame.id().is_extended() && frame.id().raw() == msg::kModeChange &&
      frame.dlc() >= 1) {
    const auto new_mode = static_cast<CarMode>(frame.byte0());
    if (new_mode != mode_) {
      mode_ = new_mode;
      // Leaving the workshop drops any security-access unlock.
      if (responder_.has_value() && mode_ != CarMode::kRemoteDiagnostic) {
        responder_->relock();
      }
      on_mode_change(mode_);
    }
    return;
  }
  if (responder_.has_value() && mode_ == CarMode::kRemoteDiagnostic &&
      !frame.id().is_extended() && frame.id().raw() == msg::kDiagRequest) {
    if (auto response = responder_->handle(frame, rng())) {
      send(*response);
    }
    return;
  }
  on_message(frame, at);
}

ActuatorNode::ActuatorNode(sim::Scheduler& sched, can::Channel& channel,
                           std::string name, std::uint32_t command_id,
                           std::uint32_t status_id,
                           sim::SimDuration status_period,
                           sim::SimTime first_status, sim::Trace* trace,
                           std::uint64_t seed)
    : CarNode(sched, channel, std::move(name), trace, seed),
      command_id_(command_id),
      status_id_(status_id) {
  status_task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), first_status, status_period, [this] { broadcast_status(); },
      this->name() + ".status");
}

void ActuatorNode::on_message(const can::Frame& frame, sim::SimTime at) {
  if (frame.id().is_extended() || frame.id().raw() != command_id_) {
    on_other_message(frame, at);
    return;
  }
  switch (frame.byte0()) {
    case op::kDisable:
      if (active_) {
        active_ = false;
        ++disable_events_;
        trace(sim::TraceLevel::kSecurity, "actuator disabled by command");
      }
      break;
    case op::kEnable:
      active_ = true;
      break;
    case op::kSetValue:
      if (frame.dlc() >= 2) setpoint_ = frame.data()[1];
      break;
    default:
      break;
  }
}

void ActuatorNode::broadcast_status() {
  send(command_frame(status_id_, active_ ? 1 : 0, setpoint_));
}

std::optional<std::uint8_t> ActuatorNode::diag_read(std::uint8_t did) {
  switch (did) {
    case diag::kDidActive: return active_ ? 1 : 0;
    case diag::kDidSetpoint: return setpoint_;
    default: return std::nullopt;
  }
}

bool ActuatorNode::diag_write(std::uint8_t did, std::uint8_t value) {
  if (did != diag::kDidSetpoint) return false;
  setpoint_ = value;
  return true;
}

void ActuatorNode::diag_reset() { active_ = true; }

EvEcuNode::EvEcuNode(sim::Scheduler& sched, can::Channel& channel,
                     sim::Trace* trace, std::uint64_t seed)
    : ActuatorNode(sched, channel, "ecu", msg::kEcuCommand, msg::kEcuStatus,
                   100ms, sim::SimTime{1ms}, trace, seed) {
  // Torque demand loop toward the engine (legitimate base-policy write).
  torque_task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), sim::SimTime{5ms}, 50ms,
      [this] {
        if (active_ && mode() == CarMode::kNormal) {
          send(command_frame(msg::kEngineCommand, op::kSetValue, speed_));
        }
      },
      "ecu.torque");
}

void EvEcuNode::on_other_message(const can::Frame& frame, sim::SimTime /*at*/) {
  if (!frame.id().is_extended() && frame.id().raw() == msg::kSensorSpeed &&
      frame.dlc() >= 1) {
    speed_ = frame.byte0();
  }
}

void EvEcuNode::broadcast_status() {
  send(command_frame(msg::kEcuStatus, active_ ? 1 : 0, speed_));
}

EpsNode::EpsNode(sim::Scheduler& sched, can::Channel& channel,
                 sim::Trace* trace, std::uint64_t seed)
    : ActuatorNode(sched, channel, "eps", msg::kEpsCommand, msg::kEpsStatus,
                   100ms, sim::SimTime{2ms}, trace, seed) {}

EngineNode::EngineNode(sim::Scheduler& sched, can::Channel& channel,
                       sim::Trace* trace, std::uint64_t seed)
    : ActuatorNode(sched, channel, "engine", msg::kEngineCommand,
                   msg::kEngineStatus, 100ms, sim::SimTime{3ms}, trace, seed) {}

void EngineNode::on_message(const can::Frame& frame, sim::SimTime at) {
  if (!frame.id().is_extended() && frame.id().raw() == command_id_ &&
      frame.byte0() == op::kSetValue) {
    ++torque_commands_;
  }
  ActuatorNode::on_message(frame, at);
}

SensorNode::SensorNode(sim::Scheduler& sched, can::Channel& channel,
                       sim::Trace* trace, std::uint64_t seed)
    : CarNode(sched, channel, "sensors", trace, seed) {
  task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), sim::SimTime{4ms}, 20ms, [this] { broadcast(); },
      "sensors.broadcast");
}

void SensorNode::on_message(const can::Frame&, sim::SimTime) {}

void SensorNode::broadcast() {
  // Gentle noise around plausible driving values; deterministic per seed.
  const auto accel = static_cast<std::uint8_t>(10 + rng().uniform(0, 20));
  const auto brake = static_cast<std::uint8_t>(rng().uniform(0, 5));
  send(command_frame(msg::kSensorAccel, accel));
  send(command_frame(msg::kSensorBrake, brake));
  send(command_frame(msg::kSensorSpeed, speed_));
  if (rng().chance(0.1)) {
    send(command_frame(msg::kSensorProximity,
                       static_cast<std::uint8_t>(rng().uniform(50, 255))));
  }
}

DoorLockNode::DoorLockNode(sim::Scheduler& sched, can::Channel& channel,
                           sim::Trace* trace, std::uint64_t seed)
    : CarNode(sched, channel, "doors", trace, seed) {
  task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), sim::SimTime{6ms}, 200ms, [this] { broadcast_status(); },
      "doors.status");
}

void DoorLockNode::on_message(const can::Frame& frame, sim::SimTime /*at*/) {
  if (frame.id().is_extended()) return;
  switch (frame.id().raw()) {
    case msg::kLockCommand:
      if (frame.byte0() == op::kLock) {
        if (mode() == CarMode::kFailSafe) {
          // Hazard T14: locking during an accident traps occupants.
          ++locks_during_failsafe_;
          trace(sim::TraceLevel::kSecurity,
                "HAZARD: lock command during fail-safe");
        }
        if (!locked_) {
          locked_ = true;
          // Arm the alarm when locking (base-policy write B08).
          send(command_frame(msg::kAlarmCommand, op::kArm));
        }
      } else if (frame.byte0() == op::kUnlock) {
        if (speed_ > 5 && mode() == CarMode::kNormal) {
          // Hazard T13: unlock while the vehicle is in motion.
          ++unlocks_while_moving_;
          trace(sim::TraceLevel::kSecurity, "HAZARD: unlock while in motion");
        }
        locked_ = false;
      }
      break;
    case msg::kSensorSpeed:
      speed_ = frame.byte0();
      break;
    case msg::kFailSafeTrigger:
      // Crash response: release doors for rescue.
      locked_ = false;
      break;
    default:
      break;
  }
}

void DoorLockNode::broadcast_status() {
  send(command_frame(msg::kLockStatus, locked_ ? 1 : 0));
}

SafetyCriticalNode::SafetyCriticalNode(sim::Scheduler& sched,
                                       can::Channel& channel,
                                       sim::Trace* trace, std::uint64_t seed)
    : CarNode(sched, channel, "safety", trace, seed) {
  task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), sim::SimTime{7ms}, 200ms, [this] { broadcast_status(); },
      "safety.status");
}

void SafetyCriticalNode::on_message(const can::Frame& frame,
                                    sim::SimTime /*at*/) {
  if (frame.id().is_extended()) return;
  switch (frame.id().raw()) {
    case msg::kAlarmCommand:
      if (frame.byte0() == op::kArm) {
        armed_ = true;
      } else if (frame.byte0() == op::kDisarm) {
        if (armed_) {
          // Hazard T16: alarm disabled (theft enablement).
          ++disarm_events_;
          trace(sim::TraceLevel::kSecurity, "HAZARD: alarm disarmed");
        }
        armed_ = false;
      }
      break;
    case msg::kSensorAccel:
      if (frame.byte0() >= kCrashThreshold) trigger_failsafe();
      break;
    case msg::kAirbagEvent:
      trigger_failsafe();
      break;
    default:
      break;
  }
}

void SafetyCriticalNode::trigger_failsafe() {
  ++failsafe_triggers_;
  trace(sim::TraceLevel::kSecurity, "fail-safe triggered");
  send(command_frame(msg::kFailSafeTrigger, 1));
  send(command_frame(msg::kEmergencyCall, 1));
}

void SafetyCriticalNode::broadcast_status() {
  send(command_frame(msg::kAlarmStatus, armed_ ? 1 : 0));
}

ConnectivityNode::ConnectivityNode(sim::Scheduler& sched,
                                   can::Channel& channel, sim::Trace* trace,
                                   std::uint64_t seed)
    : CarNode(sched, channel, "connectivity", trace, seed) {
  task_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), sim::SimTime{8ms}, 500ms, [this] { report_tracking(); },
      "connectivity.tracking");
}

void ConnectivityNode::on_message(const can::Frame& frame, sim::SimTime /*at*/) {
  if (frame.id().is_extended()) return;
  switch (frame.id().raw()) {
    case msg::kModemCommand:
      if (frame.byte0() == op::kDisable) {
        if (modem_enabled_) {
          // Hazard T09/T10: fail-safe communications disabled.
          ++modem_disables_;
          trace(sim::TraceLevel::kSecurity, "HAZARD: modem disabled");
        }
        modem_enabled_ = false;
      } else if (frame.byte0() == op::kEnable) {
        modem_enabled_ = true;
      }
      break;
    case msg::kEmergencyCall:
      if (modem_enabled_) {
        ++ecalls_made_;
      } else {
        ++ecalls_failed_;
        trace(sim::TraceLevel::kError, "emergency call FAILED: modem down");
      }
      break;
    case msg::kFirmwareUpdate:
      if (mode() == CarMode::kRemoteDiagnostic) {
        // Legitimate provisioning path.
      } else {
        // Hazard T08: radio firmware modified outside diagnostics.
        firmware_ok_ = false;
        ++firmware_tampers_;
        trace(sim::TraceLevel::kSecurity, "HAZARD: firmware tampered");
      }
      break;
    default:
      break;
  }
}

void ConnectivityNode::report_tracking() {
  if (!modem_enabled_) return;
  ++tracking_reports_;
  send(command_frame(msg::kTrackingReport, 1));
}

InfotainmentNode::InfotainmentNode(sim::Scheduler& sched,
                                   can::Channel& channel, sim::Trace* trace,
                                   std::uint64_t seed)
    : CarNode(sched, channel, "infotainment", trace, seed) {}

void InfotainmentNode::on_message(const can::Frame& frame, sim::SimTime /*at*/) {
  if (frame.id().is_extended()) return;
  switch (frame.id().raw()) {
    case msg::kSensorSpeed:
      displayed_speed_ = frame.byte0();
      break;
    case msg::kIviCommand:
      if (frame.byte0() == op::kInstall) {
        ++installs_;
        // 0xEE marks the exploit payload used by attack scenarios (T11).
        if (frame.dlc() >= 2 && frame.data()[1] == 0xEE) {
          compromised_ = true;
          trace(sim::TraceLevel::kSecurity, "HAZARD: head unit compromised");
        }
      } else if (frame.byte0() == op::kDisplay && frame.dlc() >= 2) {
        // Hazard T12: car status values forced onto the display.
        displayed_speed_ = frame.data()[1];
        ++display_overrides_;
        trace(sim::TraceLevel::kSecurity, "HAZARD: display value overridden");
      }
      break;
    default:
      break;
  }
}

GatewayNode::GatewayNode(sim::Scheduler& sched, can::Channel& channel,
                         sim::Trace* trace, std::uint64_t seed)
    : CarNode(sched, channel, "gateway", trace, seed) {}

void GatewayNode::change_mode(CarMode new_mode) {
  if (new_mode == current_) return;
  current_ = new_mode;
  if (tracing(sim::TraceLevel::kInfo)) {
    trace(sim::TraceLevel::kInfo,
          sim::TraceText{"mode change -> ", to_string(new_mode)});
  }
  send(command_frame(msg::kModeChange, static_cast<std::uint8_t>(new_mode)));
  if (on_change_) on_change_(new_mode);
}

void GatewayNode::on_message(const can::Frame& frame, sim::SimTime /*at*/) {
  if (!frame.id().is_extended() && frame.id().raw() == msg::kFailSafeTrigger &&
      frame.byte0() == 1) {
    change_mode(CarMode::kFailSafe);
  }
}

}  // namespace psme::car
