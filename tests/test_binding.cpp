// Tests for the policy -> CAN-filter binding (psme::car::policy_binding):
// the translation from Table I rules into per-node approved lists.
#include <gtest/gtest.h>

#include "car/base_policy.h"
#include "car/policy_binding.h"
#include "car/table1.h"

namespace psme::car {
namespace {

using can::CanId;

class BindingFixture : public ::testing::Test {
 protected:
  const core::PolicySet policy_ = full_policy(connected_car_threat_model());
  BindingCompiler compiler_{policy_};
};

TEST_F(BindingFixture, NodeMayMirrorsPolicyDecisions) {
  EXPECT_FALSE(compiler_.node_may("doors", asset::kEvEcu,
                                  core::AccessType::kWrite, CarMode::kNormal));
  EXPECT_TRUE(compiler_.node_may("doors", asset::kEvEcu,
                                 core::AccessType::kWrite, CarMode::kFailSafe));
  EXPECT_TRUE(compiler_.node_may("connectivity", asset::kEvEcu,
                                 core::AccessType::kWrite, CarMode::kNormal));
  EXPECT_FALSE(compiler_.node_may("connectivity", asset::kEvEcu,
                                  core::AccessType::kWrite,
                                  CarMode::kFailSafe));
  // Multi-entry-point node: safety hosts the emergency interface, which
  // T09 leaves RW toward connectivity in fail-safe.
  EXPECT_TRUE(compiler_.node_may("safety", asset::kConnectivity,
                                 core::AccessType::kWrite, CarMode::kFailSafe));
}

TEST_F(BindingFixture, AnyoneMayWriteReflectsModeGating) {
  // The ECU is commandable in normal mode (Table I row T03 deliberately
  // keeps connectivity RW for the remote-tracking function) and in
  // fail-safe (safety/door subsystems).
  EXPECT_TRUE(compiler_.anyone_may_write(asset::kEvEcu, CarMode::kNormal));
  EXPECT_TRUE(compiler_.anyone_may_write(asset::kEvEcu, CarMode::kFailSafe));
  // Engine has a legitimate commander (the ECU) in normal mode.
  EXPECT_TRUE(compiler_.anyone_may_write(asset::kEngine, CarMode::kNormal));
  // EPS has none outside remote diagnostics (T05 "Any node" -> R).
  EXPECT_FALSE(compiler_.anyone_may_write(asset::kEps, CarMode::kNormal));
  EXPECT_TRUE(compiler_.anyone_may_write(asset::kEps,
                                         CarMode::kRemoteDiagnostic));
  // Door locks have no normal-mode commander (T13), only fail-safe (T14/B04)
  // and workshop (B14).
  EXPECT_FALSE(compiler_.anyone_may_write(asset::kDoorLocks, CarMode::kNormal));
  EXPECT_TRUE(compiler_.anyone_may_write(asset::kDoorLocks,
                                         CarMode::kFailSafe));
}

TEST_F(BindingFixture, VictimReadListTracksLegitimateCommanders) {
  // The victim-side consequence of the ∃-writer rule: a command id is only
  // readable in modes where some entry point may legitimately issue it.
  // EPS: no commander in normal mode (T05), so its own command id is
  // dropped by its reading filter; in remote diagnostics it reappears.
  const auto eps_normal = compiler_.build_lists("eps", CarMode::kNormal);
  EXPECT_FALSE(eps_normal.read.contains(CanId::standard(msg::kEpsCommand)));
  const auto eps_diag =
      compiler_.build_lists("eps", CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(eps_diag.read.contains(CanId::standard(msg::kEpsCommand)));

  // Doors: same pattern between normal and fail-safe.
  const auto doors_normal = compiler_.build_lists("doors", CarMode::kNormal);
  EXPECT_FALSE(doors_normal.read.contains(CanId::standard(msg::kLockCommand)));
  const auto doors_failsafe =
      compiler_.build_lists("doors", CarMode::kFailSafe);
  EXPECT_TRUE(doors_failsafe.read.contains(CanId::standard(msg::kLockCommand)));

  // ECU: readable in both (T03 keeps a normal-mode commander).
  const auto ecu_normal = compiler_.build_lists("ecu", CarMode::kNormal);
  EXPECT_TRUE(ecu_normal.read.contains(CanId::standard(msg::kEcuCommand)));
}

TEST_F(BindingFixture, OwnersAlwaysWriteTheirStatus) {
  for (CarMode mode : kAllModes) {
    const auto lists = compiler_.build_lists("ecu", mode);
    EXPECT_TRUE(lists.write.contains(CanId::standard(msg::kEcuStatus)))
        << to_string(mode);
  }
  const auto sensor_lists = compiler_.build_lists("sensors", CarMode::kNormal);
  EXPECT_TRUE(sensor_lists.write.contains(CanId::standard(msg::kSensorSpeed)));
  EXPECT_TRUE(sensor_lists.write.contains(CanId::standard(msg::kSensorAccel)));
}

TEST_F(BindingFixture, SensorsCannotWriteCommandIds) {
  const auto lists = compiler_.build_lists("sensors", CarMode::kNormal);
  EXPECT_FALSE(lists.write.contains(CanId::standard(msg::kEcuCommand)));
  EXPECT_FALSE(lists.write.contains(CanId::standard(msg::kEngineCommand)));
  EXPECT_FALSE(lists.write.contains(CanId::standard(msg::kAlarmCommand)));
  EXPECT_FALSE(lists.write.contains(CanId::standard(msg::kModemCommand)));
}

TEST_F(BindingFixture, EveryNodeHearsModeChanges) {
  for (const auto& name : {"ecu", "eps", "engine", "sensors", "doors",
                           "safety", "connectivity", "infotainment"}) {
    for (CarMode mode : kAllModes) {
      const auto lists = compiler_.build_lists(name, mode);
      EXPECT_TRUE(lists.read.contains(CanId::standard(msg::kModeChange)))
          << name << " in " << to_string(mode);
      EXPECT_TRUE(lists.read.contains(CanId::standard(msg::kFailSafeTrigger)))
          << name;
    }
  }
}

TEST_F(BindingFixture, EcuTorquePathIsOpen) {
  const auto ecu = compiler_.build_lists("ecu", CarMode::kNormal);
  EXPECT_TRUE(ecu.write.contains(CanId::standard(msg::kEngineCommand)));
  const auto engine = compiler_.build_lists("engine", CarMode::kNormal);
  EXPECT_TRUE(engine.read.contains(CanId::standard(msg::kEngineCommand)));
}

TEST_F(BindingFixture, EveryoneReadsSensorBroadcasts) {
  for (const auto& name : {"ecu", "doors", "safety", "infotainment"}) {
    const auto lists = compiler_.build_lists(name, CarMode::kNormal);
    EXPECT_TRUE(lists.read.contains(CanId::standard(msg::kSensorSpeed))) << name;
  }
}

TEST_F(BindingFixture, DiagnosticsOnlyInRemoteDiagnosticMode) {
  const auto normal = compiler_.build_lists("connectivity", CarMode::kNormal);
  EXPECT_FALSE(normal.write.contains(CanId::standard(msg::kDiagRequest)));
  const auto diag =
      compiler_.build_lists("connectivity", CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(diag.write.contains(CanId::standard(msg::kDiagRequest)));
  const auto node_diag =
      compiler_.build_lists("ecu", CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(node_diag.read.contains(CanId::standard(msg::kDiagRequest)));
  EXPECT_TRUE(node_diag.write.contains(CanId::standard(msg::kDiagResponse)));
}

TEST_F(BindingFixture, ContentRulesOnlyWhenEnabled) {
  const auto plain = compiler_.build_lists("doors", CarMode::kFailSafe);
  EXPECT_TRUE(plain.content_rules.empty());
  BindingOptions with_rules;
  with_rules.content_rules = true;
  const auto extended = BindingCompiler(policy_, with_rules)
                            .build_lists("doors", CarMode::kFailSafe);
  ASSERT_FALSE(extended.content_rules.empty());
  // The rule pins fail-safe lock commands to the UNLOCK opcode.
  const auto& rule = extended.content_rules.front();
  EXPECT_EQ(rule.id, msg::kLockCommand);
  EXPECT_EQ(rule.min, op::kUnlock);
  EXPECT_EQ(rule.max, op::kUnlock);
}

TEST_F(BindingFixture, HpeConfigHasAllModesAndSnooping) {
  const auto config = compiler_.build_hpe_config("ecu");
  EXPECT_EQ(config.per_mode.size(), 3u);
  ASSERT_TRUE(config.mode_frame_id.has_value());
  EXPECT_EQ(*config.mode_frame_id, msg::kModeChange);
}

TEST_F(BindingFixture, RxFiltersMatchReadList) {
  const auto filters = compiler_.build_rx_filters("ecu", CarMode::kNormal);
  const auto lists = compiler_.build_lists("ecu", CarMode::kNormal);
  ASSERT_FALSE(filters.empty());
  for (const auto& f : filters) {
    EXPECT_TRUE(lists.read.contains(CanId::standard(f.value)))
        << "filter id 0x" << std::hex << f.value;
  }
  // Spot check: the lock command id is absent from the doors node's
  // normal-mode filter set (no legitimate commander in that mode).
  const auto door_filters =
      compiler_.build_rx_filters("doors", CarMode::kNormal);
  for (const auto& f : door_filters) EXPECT_NE(f.value, msg::kLockCommand);
}

}  // namespace
}  // namespace psme::car
