// The connected-car case study end to end: boot the vehicle, watch normal
// operation, launch the paper's headline attack (spoofed CAN data
// disabling the EV-ECU while driving), and contrast the unprotected
// vehicle with one whose nodes carry hardware policy engines. The
// example prints a "(BUG)" line and exits 1 when the HPE vehicle loses
// its ECU to the attack.
//
// Build & run:  ./build/examples/example_connected_car
#include <cstdio>
#include <iostream>

#include "attack/attacker.h"
#include "car/vehicle.h"

using namespace psme;
using namespace std::chrono_literals;

namespace {

/// Returns false when the drill shows a fault: the enforcing regime
/// lost its ECU.
bool drive_and_attack(car::Enforcement regime) {
  std::printf("\n--- enforcement: %s ---\n",
              std::string(car::to_string(regime)).c_str());

  sim::Scheduler sched;
  sim::Trace trace(sim::TraceLevel::kSecurity);
  car::VehicleConfig config;
  config.enforcement = regime;
  car::Vehicle vehicle(sched, config, &trace);

  // Drive for a second of simulated time.
  sched.run_until(sched.now() + 1s);
  std::printf("t=%.0fms  cruising at %u m/s, ECU %s, %llu frames on the bus\n",
              sim::to_millis(sched.now()), vehicle.ecu().speed(),
              vehicle.ecu().active() ? "active" : "DISABLED",
              static_cast<unsigned long long>(vehicle.bus().frames_delivered()));

  // The T01 attack: the compromised door-lock node spoofs ECU-disable
  // commands while the car is moving.
  std::printf("t=%.0fms  door-lock node compromised; spoofing ECU disable\n",
              sim::to_millis(sched.now()));
  attack::inject_via_repeated(
      sched, vehicle, "doors",
      car::command_frame(car::msg::kEcuCommand, car::op::kDisable), 20, 10ms);
  sched.run_until(sched.now() + 500ms);

  const bool disabled = !vehicle.ecu().active();
  std::printf("t=%.0fms  ECU %s", sim::to_millis(sched.now()),
              disabled ? "DISABLED while driving — attack succeeded"
                       : "still active — attack blocked");
  if (const auto* engine = vehicle.hpe("doors")) {
    std::printf(" (door HPE blocked %llu writes)",
                static_cast<unsigned long long>(engine->stats().write_blocked));
  }
  std::printf("\n");
  bool ok = true;
  if (disabled && regime == car::Enforcement::kHpe) {
    std::printf("(BUG) the door HPE let the spoofed ECU disable through\n");
    ok = false;
  }

  // How much work did compiling this vehicle's enforcement actually
  // cost? The shared binding compiler memoises per (entry point, asset,
  // access, mode) SID key: every repeated question is a memo hit.
  const auto& binding = vehicle.binding().stats();
  std::printf("  binding compiler: %llu queries, %llu unique questions, "
              "%llu memo hits (%.0f%% of questions answered from the memo)\n",
              static_cast<unsigned long long>(binding.queries),
              static_cast<unsigned long long>(binding.unique_questions),
              static_cast<unsigned long long>(binding.memo_hits()),
              binding.queries == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(binding.memo_hits()) /
                        static_cast<double>(binding.queries));

  // Security-relevant trace lines recorded during the run.
  std::size_t shown = 0;
  trace.for_each("", [&](const sim::TraceEntry& e) {
    if (shown++ < 3) {
      std::printf("  trace: t=%.1fms [%s] %s: %s\n", sim::to_millis(e.at),
                  std::string(to_string(e.level)).c_str(),
                  std::string(e.component).c_str(),
                  std::string(e.message).c_str());
    }
  });
  return ok;
}

}  // namespace

int main() {
  std::cout << "=== Connected car under attack: spoofed ECU disablement "
               "(Table I row T01) ===\n";
  drive_and_attack(car::Enforcement::kNone);
  const bool ok = drive_and_attack(car::Enforcement::kHpe);
  std::cout << "\nThe same vehicle, the same attack: only the policy-"
               "enforcing variant keeps driving.\n";
  return ok ? 0 : 1;
}
