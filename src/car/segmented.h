// psme::car — segmented vehicle network with a policy gateway.
//
// Production vehicles separate the externally-reachable telematics domain
// (infotainment, cellular modem) from the control domain (ECU, EPS,
// engine, locks, safety, sensors) and join them through a gateway — the
// countermeasure the paper quotes as "CAN bus gateway: Limit components
// with CAN bus access". SegmentedVehicle builds that topology with a
// psme::hpe::Bridge whose per-direction, per-mode forwarding lists are
// *derived from the same policy set* as the HPE filters:
//
//   telematics -> control : command ids of assets some telematics-hosted
//                           entry point may write in the current mode;
//   control -> telematics : status ids of assets some telematics-hosted
//                           entry point may read, plus structural frames.
//
// The control segment's attack surface toward a compromised telematics
// domain is thereby exactly the policy's write closure — measured by
// bench_segmentation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "can/bus.h"
#include "car/base_policy.h"
#include "car/components.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "hpe/bridge.h"

namespace psme::car {

/// Forwarding lists for the gateway in one mode, compiled through
/// `compiler` (shared memoisation with any other lists built from it).
/// `telematics_nodes` are the vehicle nodes on the telematics segment.
[[nodiscard]] hpe::BridgeLists build_gateway_lists(
    BindingCompiler& compiler,
    const std::vector<std::string>& telematics_nodes, CarMode mode);

/// Full gateway configuration across all modes (one shared compiler, so
/// the per-mode list builds reuse each other's policy verdicts).
[[nodiscard]] hpe::BridgeConfig build_gateway_config(
    const std::vector<std::string>& telematics_nodes,
    const core::PolicySet& policy);

struct SegmentedConfig {
  CarMode initial_mode = CarMode::kNormal;
  std::uint64_t seed = 42;
  std::uint64_t policy_version = 1;
};

/// Two-segment topology: control bus (gateway node, ECU, EPS, engine,
/// sensors, doors, safety) and telematics bus (connectivity,
/// infotainment), joined by the policy gateway. Node behaviour classes are
/// identical to the flat Vehicle — segmentation is purely topological.
class SegmentedVehicle {
 public:
  explicit SegmentedVehicle(sim::Scheduler& sched, SegmentedConfig config = {},
                            sim::Trace* trace = nullptr);

  SegmentedVehicle(const SegmentedVehicle&) = delete;
  SegmentedVehicle& operator=(const SegmentedVehicle&) = delete;

  [[nodiscard]] can::Bus& control_bus() noexcept { return control_bus_; }
  [[nodiscard]] can::Bus& telematics_bus() noexcept { return telematics_bus_; }
  [[nodiscard]] hpe::Bridge& gateway() noexcept { return *bridge_; }

  [[nodiscard]] GatewayNode& mode_master() noexcept { return *mode_master_; }
  [[nodiscard]] EvEcuNode& ecu() noexcept { return *ecu_; }
  [[nodiscard]] EpsNode& eps() noexcept { return *eps_; }
  [[nodiscard]] EngineNode& engine() noexcept { return *engine_; }
  [[nodiscard]] SensorNode& sensors() noexcept { return *sensors_; }
  [[nodiscard]] DoorLockNode& doors() noexcept { return *doors_; }
  [[nodiscard]] SafetyCriticalNode& safety() noexcept { return *safety_; }
  [[nodiscard]] ConnectivityNode& connectivity() noexcept { return *connectivity_; }
  [[nodiscard]] InfotainmentNode& infotainment() noexcept { return *infotainment_; }

  void set_mode(CarMode mode) { mode_master_->change_mode(mode); }
  [[nodiscard]] const core::PolicySet& policy() const noexcept { return policy_; }

  /// Attaches a rogue device to the *telematics* segment (the realistic
  /// remote-attacker foothold: a compromised head unit or dongle).
  [[nodiscard]] can::Port& attach_telematics_attacker(const std::string& name) {
    return telematics_bus_.attach(name);
  }

  /// The telematics-side node names.
  [[nodiscard]] static std::vector<std::string> telematics_nodes() {
    return {"connectivity", "infotainment"};
  }

 private:
  sim::Scheduler& sched_;
  can::Bus control_bus_;
  can::Bus telematics_bus_;
  core::PolicySet policy_;
  std::unique_ptr<hpe::Bridge> bridge_;

  std::unique_ptr<GatewayNode> mode_master_;
  std::unique_ptr<EvEcuNode> ecu_;
  std::unique_ptr<EpsNode> eps_;
  std::unique_ptr<EngineNode> engine_;
  std::unique_ptr<SensorNode> sensors_;
  std::unique_ptr<DoorLockNode> doors_;
  std::unique_ptr<SafetyCriticalNode> safety_;
  std::unique_ptr<ConnectivityNode> connectivity_;
  std::unique_ptr<InfotainmentNode> infotainment_;
};

}  // namespace psme::car
