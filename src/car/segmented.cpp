#include "car/segmented.h"

#include <algorithm>

namespace psme::car {

hpe::BridgeLists build_gateway_lists(
    BindingCompiler& compiler,
    const std::vector<std::string>& telematics_nodes, CarMode mode) {
  hpe::BridgeLists lists;

  // Structural frames cross in both directions so the segments share the
  // operational picture: fail-safe trigger toward telematics (e-call), and
  // nothing implicit toward control (mode frames are forwarded by the
  // bridge's snooping rule itself).
  lists.b_to_a.add(can::CanId::standard(msg::kFailSafeTrigger));
  lists.b_to_a.add(can::CanId::standard(msg::kEmergencyCall));

  for (const AssetBinding& asset : asset_bindings()) {
    const bool asset_on_telematics =
        std::find(telematics_nodes.begin(), telematics_nodes.end(),
                  asset.owner_node) != telematics_nodes.end();

    bool telematics_may_write = false;
    bool telematics_may_read = false;
    for (const auto& node : telematics_nodes) {
      telematics_may_write =
          telematics_may_write ||
          compiler.node_may(node, asset.asset_id, core::AccessType::kWrite, mode);
      telematics_may_read =
          telematics_may_read ||
          compiler.node_may(node, asset.asset_id, core::AccessType::kRead, mode);
    }

    if (asset_on_telematics) {
      // Commands from control-side writers toward a telematics asset, and
      // the asset's status back toward control-side readers. Control-side
      // legitimacy mirrors the flat topology's ∃-writer logic.
      for (const auto& binding : node_bindings()) {
        const bool on_telematics =
            std::find(telematics_nodes.begin(), telematics_nodes.end(),
                      binding.node) != telematics_nodes.end();
        if (on_telematics) continue;
        if (compiler.node_may(binding.node, asset.asset_id,
                              core::AccessType::kWrite, mode)) {
          for (const auto id : asset.command_ids) {
            lists.b_to_a.add(can::CanId::standard(id));
          }
        }
        if (compiler.node_may(binding.node, asset.asset_id,
                              core::AccessType::kRead, mode)) {
          for (const auto id : asset.status_ids) {
            lists.a_to_b.add(can::CanId::standard(id));
          }
        }
      }
      continue;
    }

    // Control-side asset: telematics may command it only when the policy
    // says so (a->b = telematics->control), and sees its status only with
    // a read grant (b->a).
    if (telematics_may_write) {
      for (const auto id : asset.command_ids) {
        lists.a_to_b.add(can::CanId::standard(id));
      }
    }
    if (telematics_may_read) {
      for (const auto id : asset.status_ids) {
        lists.b_to_a.add(can::CanId::standard(id));
      }
    }
  }
  return lists;
}

hpe::BridgeConfig build_gateway_config(
    const std::vector<std::string>& telematics_nodes,
    const core::PolicySet& policy) {
  BindingCompiler compiler(policy);
  hpe::BridgeConfig config;
  config.mode_frame_id = msg::kModeChange;
  for (CarMode mode : kAllModes) {
    config.per_mode[static_cast<std::uint8_t>(mode)] =
        build_gateway_lists(compiler, telematics_nodes, mode);
  }
  config.default_lists =
      build_gateway_lists(compiler, telematics_nodes, CarMode::kNormal);
  return config;
}

SegmentedVehicle::SegmentedVehicle(sim::Scheduler& sched,
                                   SegmentedConfig config, sim::Trace* trace)
    : sched_(sched),
      control_bus_(sched, can::kBitRate500k, trace, config.seed),
      telematics_bus_(sched, can::kBitRate125k, trace, config.seed ^ 0x7),
      policy_(full_policy(connected_car_threat_model(), config.policy_version)) {
  // Telematics bus is the attacker-facing segment (a = telematics); the
  // bridge forwards a->b toward the control bus.
  bridge_ = std::make_unique<hpe::Bridge>(
      sched_, telematics_bus_, control_bus_,
      build_gateway_config(telematics_nodes(), policy_), "gateway", trace);

  std::uint64_t salt = 0x40;
  // Control segment.
  mode_master_ = std::make_unique<GatewayNode>(
      sched_, control_bus_.attach("mode-master"), trace, config.seed ^ salt++);
  ecu_ = std::make_unique<EvEcuNode>(sched_, control_bus_.attach("ecu"), trace,
                                     config.seed ^ salt++);
  eps_ = std::make_unique<EpsNode>(sched_, control_bus_.attach("eps"), trace,
                                   config.seed ^ salt++);
  engine_ = std::make_unique<EngineNode>(sched_, control_bus_.attach("engine"),
                                         trace, config.seed ^ salt++);
  sensors_ = std::make_unique<SensorNode>(
      sched_, control_bus_.attach("sensors"), trace, config.seed ^ salt++);
  doors_ = std::make_unique<DoorLockNode>(
      sched_, control_bus_.attach("doors"), trace, config.seed ^ salt++);
  safety_ = std::make_unique<SafetyCriticalNode>(
      sched_, control_bus_.attach("safety"), trace, config.seed ^ salt++);
  // Telematics segment.
  connectivity_ = std::make_unique<ConnectivityNode>(
      sched_, telematics_bus_.attach("connectivity"), trace,
      config.seed ^ salt++);
  infotainment_ = std::make_unique<InfotainmentNode>(
      sched_, telematics_bus_.attach("infotainment"), trace,
      config.seed ^ salt++);

  if (config.initial_mode != CarMode::kNormal) {
    mode_master_->change_mode(config.initial_mode);
  }
}

}  // namespace psme::car
