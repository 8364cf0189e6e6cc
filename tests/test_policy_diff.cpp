// Tests for the policy diff (psme::core::policy_diff).
#include <gtest/gtest.h>

#include "car/base_policy.h"
#include "car/ids.h"
#include "car/table1.h"
#include "core/policy_diff.h"

namespace psme {
namespace {

core::PolicySet base_set() {
  core::PolicySet set("s", 1);
  core::PolicyRule a;
  a.id = "a";
  a.subject = "x";
  a.object = "y";
  a.permission = threat::Permission::kRead;
  set.add_rule(a);
  core::PolicyRule b = a;
  b.id = "b";
  b.permission = threat::Permission::kReadWrite;
  set.add_rule(b);
  return set;
}

TEST(PolicyDiff, EmptyForIdenticalSets) {
  const auto diff = core::diff_policies(base_set(), base_set());
  EXPECT_TRUE(diff.empty());
  EXPECT_FALSE(diff.widens_access());
  EXPECT_NE(diff.render().find("no changes"), std::string::npos);
}

TEST(PolicyDiff, DetectsAddedGrantAsWidening) {
  auto after = base_set();
  core::PolicyRule extra;
  extra.id = "c";
  extra.subject = "z";
  extra.object = "y";
  extra.permission = threat::Permission::kWrite;
  after.add_rule(extra);
  const auto diff = core::diff_policies(base_set(), after);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, core::RuleChangeKind::kAdded);
  EXPECT_TRUE(diff.widens_access());
}

TEST(PolicyDiff, AddedExplicitDenyIsNotWidening) {
  auto after = base_set();
  core::PolicyRule deny;
  deny.id = "d";
  deny.subject = "z";
  deny.object = "y";
  deny.permission = threat::Permission::kNone;
  after.add_rule(deny);
  const auto diff = core::diff_policies(base_set(), after);
  EXPECT_FALSE(diff.widens_access());
}

TEST(PolicyDiff, PermissionNarrowingIsNotWidening) {
  auto after = base_set();
  after.remove_rule("b");
  core::PolicyRule b;
  b.id = "b";
  b.subject = "x";
  b.object = "y";
  b.permission = threat::Permission::kRead;  // RW -> R
  after.add_rule(b);
  const auto diff = core::diff_policies(base_set(), after);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, core::RuleChangeKind::kPermissionChanged);
  EXPECT_FALSE(diff.changes[0].widening);
}

TEST(PolicyDiff, PermissionWideningFlagged) {
  auto after = base_set();
  after.remove_rule("a");
  core::PolicyRule a;
  a.id = "a";
  a.subject = "x";
  a.object = "y";
  a.permission = threat::Permission::kReadWrite;  // R -> RW
  after.add_rule(a);
  const auto diff = core::diff_policies(base_set(), after);
  EXPECT_TRUE(diff.widens_access());
}

TEST(PolicyDiff, RemovedGrantUnderDefaultDenyIsNarrowing) {
  auto after = base_set();
  after.remove_rule("b");
  const auto diff = core::diff_policies(base_set(), after);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, core::RuleChangeKind::kRemoved);
  EXPECT_FALSE(diff.widens_access());
}

TEST(PolicyDiff, DefaultFlipToAllowIsWidening) {
  auto after = base_set();
  after.set_default_allow(true);
  const auto diff = core::diff_policies(base_set(), after);
  EXPECT_TRUE(diff.default_changed);
  EXPECT_TRUE(diff.widens_access());
  EXPECT_NE(diff.render().find("ALLOW"), std::string::npos);
}

TEST(PolicyDiff, ModeScopeBroadeningFlagged) {
  auto before = base_set();
  before.remove_rule("a");
  core::PolicyRule a;
  a.id = "a";
  a.subject = "x";
  a.object = "y";
  a.permission = threat::Permission::kRead;
  a.modes = {threat::ModeId{"normal"}};
  before.add_rule(a);

  auto after = base_set();  // rule "a" has no mode condition here
  const auto diff = core::diff_policies(before, after);
  ASSERT_FALSE(diff.changes.empty());
  EXPECT_EQ(diff.changes[0].kind, core::RuleChangeKind::kConditionChanged);
  EXPECT_TRUE(diff.changes[0].widening);
}

TEST(PolicyDiff, RealUpdateReviewExample) {
  // The v1 -> v2 car policy update used in the OTA drill narrows (same
  // rules, bumped version): the release gate must stay quiet.
  const auto v1 = car::full_policy(car::connected_car_threat_model(), 1);
  const auto v2 = car::full_policy(car::connected_car_threat_model(), 2);
  const auto diff = core::diff_policies(v1, v2);
  EXPECT_TRUE(diff.empty());

  // A malicious downgrade that strips a Table I restriction trips it.
  auto evil = v2;
  evil.remove_rule("T05/*");
  core::PolicyRule open;
  open.id = "totally-fine";
  open.subject = "*";
  open.object = car::asset::kEps;
  open.permission = threat::Permission::kReadWrite;
  open.priority = 50;
  evil.add_rule(open);
  const auto evil_diff = core::diff_policies(v2, evil);
  EXPECT_TRUE(evil_diff.widens_access());
}

}  // namespace
}  // namespace psme
