// Unit tests for the threat-model -> policy compiler (psme::core).
#include <gtest/gtest.h>

#include "car/table1.h"
#include "core/policy_compiler.h"

namespace psme::core {
namespace {

using threat::Permission;

threat::ThreatModel small_model(Permission first = Permission::kRead,
                                Permission second = Permission::kReadWrite,
                                bool same_pair = false) {
  threat::ThreatModelBuilder builder("small");
  builder.add_asset({threat::AssetId{"vault"}, "Vault", "", threat::Criticality::kSafety});
  builder.add_asset({threat::AssetId{"door"}, "Door", "", threat::Criticality::kOperational});
  builder.add_entry_point({threat::EntryPointId{"net"}, "Network", "", true});
  builder.add_entry_point({threat::EntryPointId{"usb"}, "USB", "", false});
  builder.add_mode({threat::ModeId{"normal"}, "Normal", ""});

  threat::Threat t1;
  t1.id = threat::ThreatId{"X1"};
  t1.title = "first";
  t1.asset = threat::AssetId{"vault"};
  t1.entry_points = {threat::EntryPointId{"net"}};
  t1.modes = {threat::ModeId{"normal"}};
  t1.stride = threat::StrideSet::parse("ST");
  t1.dread = threat::DreadScore(9, 9, 9, 9, 9);  // critical
  t1.recommended_policy = first;
  builder.add_threat(t1);

  threat::Threat t2;
  t2.id = threat::ThreatId{"X2"};
  t2.title = "second";
  t2.asset = same_pair ? threat::AssetId{"vault"} : threat::AssetId{"door"};
  t2.entry_points = {threat::EntryPointId{same_pair ? "net" : "usb"}};
  t2.modes = {threat::ModeId{"normal"}};
  t2.stride = threat::StrideSet::parse("D");
  t2.dread = threat::DreadScore(2, 2, 2, 2, 2);  // low
  t2.recommended_policy = second;
  builder.add_threat(t2);
  return builder.build();
}

TEST(Compiler, OneRulePerThreatEntryPoint) {
  const PolicySet set = PolicyCompiler().compile(small_model());
  EXPECT_EQ(set.size(), 2u);
  AccessRequest req;
  req.subject = "net";
  req.object = "vault";
  req.access = AccessType::kRead;
  req.mode = threat::ModeId{"normal"};
  EXPECT_TRUE(set.evaluate(req).allowed);
  req.access = AccessType::kWrite;
  EXPECT_FALSE(set.evaluate(req).allowed);
}

TEST(Compiler, BandWeightsMonotone) {
  EXPECT_LT(PolicyCompiler::band_weight(threat::RiskBand::kLow),
            PolicyCompiler::band_weight(threat::RiskBand::kMedium));
  EXPECT_LT(PolicyCompiler::band_weight(threat::RiskBand::kMedium),
            PolicyCompiler::band_weight(threat::RiskBand::kHigh));
  EXPECT_LT(PolicyCompiler::band_weight(threat::RiskBand::kHigh),
            PolicyCompiler::band_weight(threat::RiskBand::kCritical));
}

TEST(Compiler, RiskierThreatGetsHigherPriority) {
  const PolicySet set = PolicyCompiler().compile(small_model());
  int critical_prio = -1, low_prio = -1;
  for (const auto& rule : set.rules()) {
    if (rule.rationale.find("X1") != std::string::npos) critical_prio = rule.priority;
    if (rule.rationale.find("X2") != std::string::npos) low_prio = rule.priority;
  }
  ASSERT_GE(critical_prio, 0);
  ASSERT_GE(low_prio, 0);
  EXPECT_GT(critical_prio, low_prio);
}

TEST(Compiler, OverlappingThreatsIntersectToMostRestrictive) {
  // Both threats constrain (net, vault) in overlapping modes: R ∩ RW = R.
  const PolicySet set = PolicyCompiler().compile(
      small_model(Permission::kRead, Permission::kReadWrite, /*same_pair=*/true));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.rules()[0].permission, Permission::kRead);
  // The merged rule cites both threats.
  EXPECT_NE(set.rules()[0].rationale.find("X1"), std::string::npos);
  EXPECT_NE(set.rules()[0].rationale.find("X2"), std::string::npos);
}

TEST(Compiler, ConflictingRWBecomesNone) {
  const PolicySet set = PolicyCompiler().compile(
      small_model(Permission::kRead, Permission::kWrite, /*same_pair=*/true));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.rules()[0].permission, Permission::kNone);
}

TEST(Compiler, OptionsArePropagated) {
  CompilerOptions options;
  options.name = "custom";
  options.version = 42;
  options.default_allow = true;
  options.base_priority = 100;
  const PolicySet set = PolicyCompiler(options).compile(small_model());
  EXPECT_EQ(set.name(), "custom");
  EXPECT_EQ(set.version(), 42u);
  EXPECT_TRUE(set.default_allow());
  for (const auto& rule : set.rules()) EXPECT_GE(rule.priority, 100);
}

TEST(Compiler, IdempotentOnSameModel) {
  const auto model = small_model();
  const PolicySet a = PolicyCompiler().compile(model);
  const PolicySet b = PolicyCompiler().compile(model);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Compiler, AnyEntryPointBecomesWildcard) {
  threat::ThreatModelBuilder builder("wild");
  builder.add_asset({threat::AssetId{"eps"}, "EPS", "", threat::Criticality::kSafety});
  builder.add_entry_point({threat::EntryPointId{"any"}, "Any node", "", false});
  threat::Threat t;
  t.id = threat::ThreatId{"W1"};
  t.title = "any-node attack";
  t.asset = threat::AssetId{"eps"};
  t.entry_points = {threat::EntryPointId{"any"}};
  t.stride = threat::StrideSet::parse("S");
  t.dread = threat::DreadScore(5, 5, 5, 5, 5);
  t.recommended_policy = Permission::kRead;
  builder.add_threat(t);
  const PolicySet set = PolicyCompiler().compile(builder.build());
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.rules()[0].subject, "*");

  AccessRequest req;
  req.subject = "literally-anything";
  req.object = "eps";
  req.access = AccessType::kWrite;
  EXPECT_FALSE(set.evaluate(req).allowed);
}

TEST(Compiler, Table1ProducesExpectedRuleCount) {
  // Sixteen threats; T01 has 2 entry points, T02 1, T03+T04 merge into the
  // connectivity/ev-ecu rule... — rather than hard-coding the arithmetic,
  // assert structural invariants: every threat is cited by some rule, and
  // every rule's permission is at least as restrictive as each cited row.
  const auto model = car::connected_car_threat_model();
  const PolicySet set = PolicyCompiler().compile(model);
  EXPECT_GT(set.size(), 10u);
  for (const auto& threat : model.threats()) {
    bool cited = false;
    for (const auto& rule : set.rules()) {
      if (rule.rationale.find(threat.id.value) != std::string::npos) {
        cited = true;
        // Restrictiveness: rule.permission ⊆ threat.recommended_policy.
        EXPECT_EQ(intersect(rule.permission, threat.recommended_policy),
                  rule.permission)
            << "rule " << rule.id << " is broader than " << threat.id.value;
      }
    }
    EXPECT_TRUE(cited) << "threat " << threat.id.value << " uncovered";
  }
}

}  // namespace
}  // namespace psme::core
