#include "attack/attacker.h"

namespace psme::attack {

OutsideAttacker::OutsideAttacker(sim::Scheduler& sched, can::Channel& channel,
                                 std::string name, sim::Trace* trace)
    : can::Node(sched, channel, std::move(name), trace) {}

bool OutsideAttacker::inject(const can::Frame& frame) {
  ++injected_;
  return controller().transmit(frame);
}

void OutsideAttacker::inject_repeated(const can::Frame& frame,
                                      std::uint32_t count,
                                      sim::SimDuration period) {
  for (std::uint32_t i = 0; i < count; ++i) {
    scheduler().schedule_in(period * static_cast<std::int64_t>(i),
                            [this, frame] { inject(frame); },
                            "attack.inject");
  }
}

void OutsideAttacker::handle_frame(const can::Frame& /*frame*/,
                                   sim::SimTime /*at*/) {
  ++sniffed_;
}

bool compromise_firmware(car::Vehicle& vehicle, const std::string& node) {
  car::CarNode* victim = vehicle.node(node);
  if (victim == nullptr) return false;
  // Firmware-level access: the attacker reprograms the acceptance filter
  // to promiscuous mode. The HPE (if present) is a separate hardware block
  // and is unaffected — its set_config() would throw once locked.
  victim->controller().set_filters({});
  return true;
}

bool inject_via(car::Vehicle& vehicle, const std::string& node,
                const can::Frame& frame) {
  car::CarNode* origin = vehicle.node(node);
  if (origin == nullptr) return false;
  return origin->controller().transmit(frame);
}

void inject_via_repeated(sim::Scheduler& sched, car::Vehicle& vehicle,
                         const std::string& node, const can::Frame& frame,
                         std::uint32_t count, sim::SimDuration period) {
  for (std::uint32_t i = 0; i < count; ++i) {
    sched.schedule_in(period * static_cast<std::int64_t>(i),
                      [&vehicle, node, frame] {
                        inject_via(vehicle, node, frame);
                      },
                      "attack.inject-inside");
  }
}

}  // namespace psme::attack
