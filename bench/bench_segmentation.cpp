// Segmentation study — the paper's quoted traditional countermeasure
// ("CAN bus gateway: Limit components with CAN bus access") built as a
// *policy-derived* gateway and measured against the flat topology:
//   * attack-surface comparison: which control-domain command ids a rogue
//     device on the attacker-facing segment can reach, per mode;
//   * live attack drill: EPS/alarm spoofing from the telematics segment,
//     flat-no-enforcement vs segmented-gateway vs flat-HPE;
//   * functional parity: the control loop and the telematics services
//     still work across the gateway.
// Exits 1, with a "FAIL" line on stderr, when the segmented drill loses
// the EPS or the alarm, the gateway drops nothing, or control-loop or
// display parity fails.
#include <cstdio>
#include <iostream>

#include "attack/attacker.h"
#include "car/vehicle.h"
#include "report/table.h"

using namespace psme;
using namespace std::chrono_literals;

int main() {
  std::cout << "=== Network segmentation with a policy gateway ===\n\n";
  int failures = 0;
  const auto check = [&failures](bool ok, const char* fact) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", fact);
      ++failures;
    }
  };

  const auto policy = car::full_policy(car::connected_car_threat_model());
  car::VehicleConfig segmented_config;
  segmented_config.topology = car::Topology::kSegmented;

  // --- attack surface ------------------------------------------------------
  std::cout << "--- control-domain command ids reachable from the telematics "
               "segment ---\n";
  report::TextTable surface({"asset (control domain)", "normal",
                             "remote-diagnostic", "fail-safe"});
  std::size_t reachable[3] = {0, 0, 0};
  std::size_t total = 0;
  car::BindingCompiler binding(policy);
  for (const car::AssetBinding& asset : car::asset_bindings()) {
    if (asset.owner_node == "connectivity" ||
        asset.owner_node == "infotainment" || asset.command_ids.empty()) {
      continue;
    }
    std::vector<std::string> row{asset.asset_id};
    int column = 0;
    for (car::CarMode mode : car::kAllModes) {
      const auto lists = binding.build_gateway_lists(mode);
      bool any = false;
      for (const auto id : asset.command_ids) {
        any = any || lists.a_to_b.contains(can::CanId::standard(id));
      }
      row.push_back(any ? "reachable" : "-");
      if (any) ++reachable[column];
      ++column;
    }
    ++total;
    surface.add_row(row);
  }
  std::cout << surface.render();
  std::printf("\nsurface: %zu/%zu control assets commandable in normal mode, "
              "%zu in diagnostics, %zu in fail-safe\n(a flat unfiltered bus "
              "exposes all %zu in every mode).\n\n",
              reachable[0], total, reachable[1], reachable[2], total);

  // --- live drill ----------------------------------------------------------
  std::cout << "--- telematics-foothold attack drill (EPS disable + alarm "
               "disarm) ---\n";
  report::TextTable drill({"topology", "EPS survives", "alarm survives",
                           "frames dropped at gateway"});

  {  // flat, no enforcement
    sim::Scheduler sched;
    car::Vehicle flat(sched);
    sched.run_until(sched.now() + 300ms);
    flat.safety().set_armed(true);
    attack::OutsideAttacker rogue(sched, flat.attach_attacker("rogue"));
    rogue.inject_repeated(car::command_frame(car::msg::kEpsCommand,
                                             car::op::kDisable), 10, 10ms);
    rogue.inject_repeated(car::command_frame(car::msg::kAlarmCommand,
                                             car::op::kDisarm), 10, 10ms);
    sched.run_until(sched.now() + 300ms);
    drill.add("flat, no enforcement", flat.eps().active(),
              flat.safety().disarm_events() == 0, 0);
  }
  {  // segmented with the policy gateway
    sim::Scheduler sched;
    car::Vehicle segmented(sched, segmented_config);
    sched.run_until(sched.now() + 300ms);
    segmented.safety().set_armed(true);
    attack::OutsideAttacker rogue(sched, segmented.attach_attacker("rogue"));
    rogue.inject_repeated(car::command_frame(car::msg::kEpsCommand,
                                             car::op::kDisable), 10, 10ms);
    rogue.inject_repeated(car::command_frame(car::msg::kAlarmCommand,
                                             car::op::kDisarm), 10, 10ms);
    sched.run_until(sched.now() + 300ms);
    const std::uint64_t dropped = segmented.bridge()->stats().dropped_a_to_b;
    drill.add("segmented + policy gateway", segmented.eps().active(),
              segmented.safety().disarm_events() == 0, dropped);
    check(segmented.eps().active(), "the segmented drill lost the EPS");
    check(segmented.safety().disarm_events() == 0,
          "the segmented drill lost the alarm");
    check(dropped > 0, "the gateway dropped nothing");
  }
  {  // flat with HPEs (defence at every node instead of at the boundary)
    sim::Scheduler sched;
    car::VehicleConfig config;
    config.enforcement = car::Enforcement::kHpe;
    car::Vehicle guarded(sched, config);
    sched.run_until(sched.now() + 300ms);
    guarded.safety().set_armed(true);
    attack::OutsideAttacker rogue(sched, guarded.attach_attacker("rogue"));
    rogue.inject_repeated(car::command_frame(car::msg::kEpsCommand,
                                             car::op::kDisable), 10, 10ms);
    rogue.inject_repeated(car::command_frame(car::msg::kAlarmCommand,
                                             car::op::kDisarm), 10, 10ms);
    sched.run_until(sched.now() + 300ms);
    drill.add("flat + per-node HPE", guarded.eps().active(),
              guarded.safety().disarm_events() == 0, 0);
  }
  std::cout << drill.render();
  std::cout << "\nnote: the gateway stops *external* footholds at the "
               "boundary but cannot\npolice control-segment insiders; "
               "per-node HPEs and the gateway compose —\nthe paper's layered "
               "'additional layer of defence' argument.\n\n";

  // --- functional parity ---------------------------------------------------
  std::cout << "--- functional parity across the gateway ---\n";
  sim::Scheduler sched;
  car::Vehicle vehicle(sched, segmented_config);
  sched.run_until(sched.now() + 5s);
  const bool control_parity = vehicle.ecu().speed() == vehicle.sensors().speed();
  std::printf("control loop:      ecu speed == sensor speed: %s\n",
              control_parity ? "yes" : "NO");
  std::printf("display service:   infotainment shows %u (sensor: %u)\n",
              vehicle.infotainment().displayed_speed(),
              vehicle.sensors().speed());
  std::printf("tracking service:  %llu reports\n",
              static_cast<unsigned long long>(
                  vehicle.connectivity().tracking_reports()));
  const hpe::BridgeStats& gateway = vehicle.bridge()->stats();
  std::printf("gateway traffic:   %llu forwarded to telematics, %llu toward "
              "control, %llu dropped\n",
              static_cast<unsigned long long>(gateway.forwarded_b_to_a),
              static_cast<unsigned long long>(gateway.forwarded_a_to_b),
              static_cast<unsigned long long>(gateway.dropped_a_to_b +
                                              gateway.dropped_b_to_a));
  check(control_parity, "control-loop parity across the gateway");
  check(vehicle.infotainment().displayed_speed() == vehicle.sensors().speed(),
        "display parity across the gateway");
  return failures == 0 ? 0 : 1;
}
