// psme::car — assembling the connected car (paper Fig. 2 topology).
//
// A Vehicle wires its component nodes onto CAN in one of two topologies:
//
//  kFlat           — every node on one shared 500 kbit/s bus (Fig. 2);
//  kSegmented      — the telematics nodes (kTelematicsNodes) on a
//                    125 kbit/s bus, every other node on the control bus,
//                    joined by a policy gateway (hpe::Bridge) whose lists
//                    come from the same policy: the paper's quoted
//                    countermeasure "CAN bus gateway: Limit components with
//                    CAN bus access". An outside attacker attaches to the
//                    telematics bus, the realistic remote foothold.
//
// and installs the chosen enforcement regime at every node, whatever the
// topology:
//
//  kNone           — the de-facto state of legacy vehicles: broadcast bus,
//                    no policing (the paper's problem statement);
//  kSoftwareFilter — each controller's programmable acceptance filter is
//                    configured from the policy set (Fig. 3's "software
//                    based filter"); mode changes require the node firmware
//                    to reprogram filters, and a firmware compromise can
//                    simply rewrite them;
//  kHpe            — a HardwarePolicyEngine wraps every node's bus port
//                    (Fig. 4), with per-mode approved lists, autonomous
//                    mode snooping, and lockable configuration.
//
// What the regime enforces is compiled once, not per vehicle. A
// VehiclePlan holds the policy (threat model -> full_policy -> compiled
// image) and everything bound from it: every node's HPE configuration
// under kHpe, every node's receive filters in each mode under
// kSoftwareFilter, and the gateway's configuration on a segmented
// vehicle. It depends only on the plan key (policy version, topology,
// regime and, under kHpe, the three binding switches), so
// VehiclePlan::shared hands every vehicle with one key the same
// immutable plan. A build then wires the buses, the nodes, the engines
// and the gateway, and copies each one's configuration out of the plan;
// nothing shares its lists. An OTA update compiles a private plan from
// the bundle's policy through the same constructor and reprograms every
// engine and the gateway from it.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/bus.h"
#include "car/base_policy.h"
#include "car/components.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/update.h"
#include "hpe/bridge.h"
#include "hpe/hpe.h"

namespace psme::car {

enum class Enforcement : std::uint8_t {
  kNone,
  kSoftwareFilter,
  kHpe,
};

[[nodiscard]] std::string_view to_string(Enforcement e) noexcept;

enum class Topology : std::uint8_t {
  kFlat,
  kSegmented,
};

struct VehicleConfig {
  Enforcement enforcement = Enforcement::kNone;
  Topology topology = Topology::kFlat;
  CarMode initial_mode = CarMode::kNormal;
  double bus_error_rate = 0.0;
  /// Lock every HPE after provisioning (tamper resistance on).
  bool lock_hpes = true;
  /// Enable the fine-grained payload-rule extension on the HPEs.
  bool hpe_content_rules = false;
  /// Ablation switches (normally left on; see BindingOptions).
  bool hpe_writer_gate = true;
  bool hpe_mode_conditional = true;
  std::uint64_t seed = 42;
  std::uint64_t policy_version = 1;
};

/// The compiled enforcement of one plan key: the policy, the compiler
/// that answered its binding questions, per node either the HPE
/// configuration (kHpe) or the receive filters of each mode
/// (kSoftwareFilter), kNone binding nothing, and on a segmented topology
/// the gateway's configuration. Immutable once constructed, so any
/// number of vehicles on any threads read one plan without
/// synchronisation (DESIGN.md §3).
class VehiclePlan {
 public:
  /// Compiles `policy` for `enforcement` on `topology`: the policy's
  /// image first, then every node's HPE configuration (kHpe, bound with
  /// `options`) or every node's receive filters in every mode
  /// (kSoftwareFilter), then the gateway's lists (kSegmented).
  VehiclePlan(core::PolicySet policy, Enforcement enforcement,
              BindingOptions options, Topology topology);

  /// The plan for `config`'s key, compiled from
  /// full_policy(connected_car_threat_model(), config.policy_version) on
  /// the key's first call and shared by every later one. The key is the
  /// policy version, the topology and the regime, plus, under kHpe only,
  /// the content rules, writer gate and mode conditionality switches.
  /// Thread-safe: one process-wide memo behind a mutex, which keeps
  /// every plan.
  [[nodiscard]] static std::shared_ptr<const VehiclePlan> shared(
      const VehicleConfig& config);

  [[nodiscard]] const core::PolicySet& policy() const noexcept {
    return policy_;
  }
  /// The memoising compiler that bound this plan; its stats() count the
  /// questions the whole compile asked.
  [[nodiscard]] const BindingCompiler& binding() const noexcept {
    return binding_;
  }

  /// The node's HPE configuration. Throws std::out_of_range for an
  /// unknown node or a plan of another regime.
  [[nodiscard]] const hpe::HpeConfig& hpe_config(std::string_view node) const;

  /// The node's receive filters in `mode`. Throws std::out_of_range for
  /// an unknown node or a plan of another regime.
  [[nodiscard]] const std::vector<can::AcceptanceFilter>& rx_filters(
      std::string_view node, CarMode mode) const;

  /// The gateway's configuration. Throws std::out_of_range on a flat
  /// plan.
  [[nodiscard]] const hpe::BridgeConfig& gateway_config() const;

 private:
  core::PolicySet policy_;
  BindingCompiler binding_;  // after policy_: it compiles policy_'s image
  /// Indexed like the vehicle's node names; empty in other regimes.
  std::vector<hpe::HpeConfig> hpe_configs_;
  std::vector<std::array<std::vector<can::AcceptanceFilter>, 3>> rx_filters_;
  std::optional<hpe::BridgeConfig> gateway_config_;  // kSegmented only
};

class Vehicle {
 public:
  Vehicle(sim::Scheduler& sched, VehicleConfig config = {},
          sim::Trace* trace = nullptr);

  Vehicle(const Vehicle&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;

  // -- topology ----------------------------------------------------------
  /// The control bus: the vehicle's only bus when it is flat.
  [[nodiscard]] can::Bus& bus() noexcept { return bus_; }
  /// The bus the telematics nodes sit on: bus() when the vehicle is flat.
  [[nodiscard]] can::Bus& telematics_bus() noexcept {
    return telematics_bus_ != nullptr ? *telematics_bus_ : bus_;
  }
  /// The policy gateway between the segments; nullptr when flat.
  [[nodiscard]] hpe::Bridge* bridge() noexcept { return bridge_.get(); }
  /// The mode master.
  [[nodiscard]] GatewayNode& gateway() noexcept { return *gateway_; }
  [[nodiscard]] EvEcuNode& ecu() noexcept { return *ecu_; }
  [[nodiscard]] EpsNode& eps() noexcept { return *eps_; }
  [[nodiscard]] EngineNode& engine() noexcept { return *engine_; }
  [[nodiscard]] SensorNode& sensors() noexcept { return *sensors_; }
  [[nodiscard]] DoorLockNode& doors() noexcept { return *doors_; }
  [[nodiscard]] SafetyCriticalNode& safety() noexcept { return *safety_; }
  [[nodiscard]] ConnectivityNode& connectivity() noexcept { return *connectivity_; }
  [[nodiscard]] InfotainmentNode& infotainment() noexcept { return *infotainment_; }

  /// Component node by name ("ecu", "doors", ...); nullptr when unknown.
  [[nodiscard]] CarNode* node(const std::string& name) noexcept;

  /// All component node names (excluding the gateway).
  [[nodiscard]] std::vector<std::string> node_names() const;

  /// The HPE guarding a node, or nullptr (wrong regime / unknown node).
  [[nodiscard]] hpe::HardwarePolicyEngine* hpe(const std::string& name) noexcept;

  /// Attaches a raw, unpoliced port for an *outside* attacker node (a
  /// malicious device introduced into the vehicle network) to the
  /// telematics bus.
  [[nodiscard]] can::Port& attach_attacker(const std::string& name);

  // -- modes and policy ---------------------------------------------------
  void set_mode(CarMode mode);
  [[nodiscard]] CarMode mode() const noexcept { return gateway_->current_mode(); }

  /// The plan this vehicle enforces: the shared plan of its config's key
  /// until an accepted OTA update replaces it with a private one.
  [[nodiscard]] const VehiclePlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const core::PolicySet& policy() const noexcept {
    return plan_->policy();
  }
  [[nodiscard]] Enforcement enforcement() const noexcept {
    return config_.enforcement;
  }

  /// The plan's memoising binding compiler — its stats() show how many
  /// unique policy questions compiling the plan asked
  /// (examples/connected_car.cpp surfaces them).
  [[nodiscard]] const BindingCompiler& binding() const noexcept {
    return plan_->binding();
  }

  /// Applies an OTA policy update to every enforcement point, all or
  /// nothing. The bundle must be signed and, under kHpe, newer than
  /// every engine's policy_version() (otherwise newer than policy()).
  /// A refusal changes no engine, gateway, policy() or binding(); under
  /// kHpe the engines that refuse the bundle count a tamper attempt.
  /// Accepted, it compiles a private plan from the bundle's policy: with
  /// the HPE regime each engine takes its configuration through its own
  /// authenticated update path; with software filters the vehicle
  /// firmware reprograms them; a segmented vehicle's gateway takes the
  /// new lists in its current mode. Returns true when the update was
  /// applied.
  bool apply_policy_update(const core::PolicyBundle& bundle,
                           const core::PolicySigner& verifier);

  /// Sum of frames blocked by all HPEs (0 under other regimes).
  [[nodiscard]] std::uint64_t total_hpe_blocks() const noexcept;

 private:
  struct Station {
    can::Port* port = nullptr;
    std::unique_ptr<hpe::HardwarePolicyEngine> engine;  // kHpe regime only
  };

  /// Attaches a node to its segment and prepares the channel (port or
  /// HPE shim) it should use.
  can::Channel& make_channel(const std::string& name);

  void install_software_filters(CarMode mode);

  sim::Scheduler& sched_;
  VehicleConfig config_;
  sim::Trace* trace_;
  can::Bus bus_;
  std::shared_ptr<const VehiclePlan> plan_;
  std::unique_ptr<can::Bus> telematics_bus_;  // kSegmented only
  std::unique_ptr<hpe::Bridge> bridge_;       // kSegmented only
  std::map<std::string, Station> stations_;

  std::unique_ptr<GatewayNode> gateway_;
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
