// psme::attack — attacker models.
//
// The paper distinguishes (Sec. V-B.2) attacks "launched by a compromised
// node" (inside) from attacks "launched by a malicious node introduced in
// the system" (outside). Both are modelled:
//
//  * OutsideAttacker — a rogue device attached to the bus through a raw,
//    unpoliced port. Nothing stops it transmitting; defence can only
//    happen at the victims' reading filters.
//  * compromise_firmware() — takes over an existing node's controller:
//    clears its software acceptance filters (promiscuous sniffing) —
//    exactly what the paper says software-layer attacks can do and
//    hardware engines cannot suffer.
//  * inject_via() — transmits frames *through a legitimate node's
//    controller*, i.e. through that node's HPE writing filter if present;
//    this is the inside-attack path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "can/node.h"
#include "car/vehicle.h"
#include "sim/event_queue.h"

namespace psme::attack {

/// Malicious node with full transmit freedom (its port has no HPE).
class OutsideAttacker final : public can::Node {
 public:
  OutsideAttacker(sim::Scheduler& sched, can::Channel& channel,
                  std::string name = "attacker", sim::Trace* trace = nullptr);

  /// Transmits one frame now.
  bool inject(const can::Frame& frame);

  /// Transmits `count` copies of `frame`, one every `period`, starting now.
  void inject_repeated(const can::Frame& frame, std::uint32_t count,
                       sim::SimDuration period);

  /// Every frame observed on the bus (promiscuous; used for sniffing
  /// scenarios and reconnaissance statistics).
  [[nodiscard]] std::uint64_t frames_sniffed() const noexcept {
    return sniffed_;
  }
  [[nodiscard]] std::uint64_t frames_injected() const noexcept {
    return injected_;
  }

 protected:
  void handle_frame(const can::Frame& frame, sim::SimTime at) override;

 private:
  std::uint64_t sniffed_ = 0;
  std::uint64_t injected_ = 0;
};

/// Rewrites a node's software acceptance filters (firmware compromise):
/// the node now receives everything, and — in the software-filter regime —
/// its policy enforcement is gone. Returns false if the node is unknown.
bool compromise_firmware(car::Vehicle& vehicle, const std::string& node);

/// Injects a frame through a legitimate node's transmit path (inside
/// attack). Returns false when the node is unknown or its controller/HPE
/// refused the frame.
bool inject_via(car::Vehicle& vehicle, const std::string& node,
                const can::Frame& frame);

/// Schedules `count` inside injections, one every `period`.
void inject_via_repeated(sim::Scheduler& sched, car::Vehicle& vehicle,
                         const std::string& node, const can::Frame& frame,
                         std::uint32_t count, sim::SimDuration period);

}  // namespace psme::attack
