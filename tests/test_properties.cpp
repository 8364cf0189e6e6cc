// Cross-cutting property tests: invariants that must hold for every node,
// mode and random workload — the safety net under the binding and
// enforcement machinery.
#include <gtest/gtest.h>

#include <algorithm>

#include "car/base_policy.h"
#include "car/policy_binding.h"
#include "car/table1.h"

namespace psme {
namespace {

const core::PolicySet& car_policy() {
  static const core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  return policy;
}

struct NodeMode {
  std::string node;
  car::CarMode mode;
};

class BindingInvariants : public ::testing::TestWithParam<NodeMode> {};

TEST_P(BindingInvariants, WriteListHoldsOnlyOwnStatusOrGrantedCommands) {
  const auto [node, mode] = GetParam();
  car::BindingCompiler compiler(car_policy());
  const auto lists = compiler.build_lists(node, mode);
  for (const car::AssetBinding& asset : car::asset_bindings()) {
    const bool owns = asset.owner_node == node;
    for (const auto id : asset.status_ids) {
      EXPECT_EQ(lists.write.contains(can::CanId::standard(id)), owns)
          << node << " status 0x" << std::hex << id;
    }
    for (const auto id : asset.command_ids) {
      const bool granted = compiler.node_may(node, asset.asset_id,
                                             core::AccessType::kWrite, mode);
      EXPECT_EQ(lists.write.contains(can::CanId::standard(id)),
                !owns && granted)
          << node << " command 0x" << std::hex << id;
    }
  }
}

TEST_P(BindingInvariants, ReadListNeverExceedsPolicyGrants) {
  const auto [node, mode] = GetParam();
  car::BindingCompiler compiler(car_policy());
  const auto lists = compiler.build_lists(node, mode);
  // Structural ids every node receives regardless of policy.
  const auto structural = [](std::uint32_t id) {
    return id == car::msg::kModeChange || id == car::msg::kFailSafeTrigger ||
           id == car::msg::kDiagRequest || id == car::msg::kDiagResponse;
  };
  for (const car::AssetBinding& asset : car::asset_bindings()) {
    const bool owns = asset.owner_node == node;
    if (owns) continue;
    for (const auto id : asset.status_ids) {
      if (structural(id)) continue;
      if (lists.read.contains(can::CanId::standard(id))) {
        EXPECT_TRUE(compiler.node_may(node, asset.asset_id,
                                      core::AccessType::kRead, mode))
            << node << " reads 0x" << std::hex << id << " without a grant";
      }
    }
  }
}

TEST_P(BindingInvariants, SoftwareFiltersEquivalentToHpeReadList) {
  const auto [node, mode] = GetParam();
  car::BindingCompiler compiler(car_policy());
  const auto lists = compiler.build_lists(node, mode);
  const auto filters = compiler.build_rx_filters(node, mode);
  // Every filter's id is on the read list and vice versa (for the car's
  // known id universe, which build_rx_filters enumerates).
  for (const auto& filter : filters) {
    EXPECT_TRUE(lists.read.contains(can::CanId::standard(filter.value)));
  }
  // Count equivalence: the filter set is exactly the accepted known ids.
  std::size_t accepted = 0;
  for (const car::AssetBinding& asset : car::asset_bindings()) {
    for (const auto id : asset.status_ids) {
      if (lists.read.contains(can::CanId::standard(id))) ++accepted;
    }
    for (const auto id : asset.command_ids) {
      if (lists.read.contains(can::CanId::standard(id))) ++accepted;
    }
  }
  // Plus structural ids (mode change, fail-safe trigger, diag, emergency).
  EXPECT_GE(filters.size(), accepted);
}

std::vector<NodeMode> all_node_modes() {
  std::vector<NodeMode> cases;
  for (const auto& binding : car::node_bindings()) {
    for (car::CarMode mode : car::kAllModes) {
      cases.push_back(NodeMode{binding.node, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllNodesAllModes, BindingInvariants, ::testing::ValuesIn(all_node_modes()),
    [](const ::testing::TestParamInfo<NodeMode>& info) {
      std::string name = info.param.node + "_" +
                         std::string(car::to_string(info.param.mode));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Gateway-list property: the telematics->control forwarding set never
// contains a command id the policy denies to every telematics entry point.
class GatewayProperty : public ::testing::TestWithParam<car::CarMode> {};

TEST_P(GatewayProperty, ForwardingNeverExceedsPolicy) {
  const car::CarMode mode = GetParam();
  car::BindingCompiler compiler(car_policy());
  const auto lists = compiler.build_gateway_lists(mode);
  for (const car::AssetBinding& asset : car::asset_bindings()) {
    const bool telematics_asset =
        asset.owner_node == "connectivity" || asset.owner_node == "infotainment";
    if (telematics_asset) continue;
    bool granted = false;
    for (const std::string_view node : car::kTelematicsNodes) {
      granted = granted || compiler.node_may(std::string(node), asset.asset_id,
                                             core::AccessType::kWrite, mode);
    }
    for (const auto id : asset.command_ids) {
      EXPECT_EQ(lists.a_to_b.contains(can::CanId::standard(id)), granted)
          << asset.asset_id << " in " << car::to_string(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GatewayProperty,
                         ::testing::ValuesIn(std::vector<car::CarMode>(
                             std::begin(car::kAllModes),
                             std::end(car::kAllModes))));

}  // namespace
}  // namespace psme
