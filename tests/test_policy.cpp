// Unit tests for the policy core (psme::core): rules, sets, evaluation
// precedence, fingerprinting.
#include <gtest/gtest.h>

#include "core/policy.h"
#include "core/policy_compiler.h"

namespace psme::core {
namespace {

PolicyRule rule(std::string id, std::string subject, std::string object,
                Permission permission, int priority = 0,
                std::vector<threat::ModeId> modes = {}) {
  PolicyRule r;
  r.id = std::move(id);
  r.subject = std::move(subject);
  r.object = std::move(object);
  r.permission = permission;
  r.priority = priority;
  r.modes = std::move(modes);
  return r;
}

AccessRequest request(std::string subject, std::string object, AccessType access,
                      std::string mode = {}) {
  AccessRequest req;
  req.subject = std::move(subject);
  req.object = std::move(object);
  req.access = access;
  req.mode = threat::ModeId{std::move(mode)};
  return req;
}

TEST(PolicyRule, ExactAndWildcardMatching) {
  const PolicyRule r = rule("r1", "alice", "vault", Permission::kRead);
  EXPECT_TRUE(r.matches(request("alice", "vault", AccessType::kRead)));
  EXPECT_FALSE(r.matches(request("bob", "vault", AccessType::kRead)));
  EXPECT_FALSE(r.matches(request("alice", "safe", AccessType::kRead)));

  const PolicyRule w = rule("r2", "*", "vault", Permission::kRead);
  EXPECT_TRUE(w.matches(request("anyone", "vault", AccessType::kWrite)));
}

TEST(PolicyRule, ModeConditionality) {
  const PolicyRule r = rule("r", "a", "o", Permission::kRead, 0,
                            {threat::ModeId{"normal"}});
  EXPECT_TRUE(r.matches(request("a", "o", AccessType::kRead, "normal")));
  EXPECT_FALSE(r.matches(request("a", "o", AccessType::kRead, "fail-safe")));
  // Mode-less request: the engine cannot know the mode, rule applies.
  EXPECT_TRUE(r.matches(request("a", "o", AccessType::kRead)));
}

TEST(PolicyRule, Specificity) {
  EXPECT_EQ(rule("a", "*", "*", Permission::kRead).specificity(), 0);
  EXPECT_EQ(rule("b", "s", "*", Permission::kRead).specificity(), 1);
  EXPECT_EQ(rule("c", "s", "o", Permission::kRead).specificity(), 2);
}

TEST(PolicySet, DefaultDeny) {
  PolicySet set("t", 1);
  const Decision d = set.evaluate(request("x", "y", AccessType::kRead));
  EXPECT_FALSE(d.allowed);
  EXPECT_TRUE(d.rule_id.empty());
}

TEST(PolicySet, DefaultAllowOptIn) {
  PolicySet set("t", 1);
  set.set_default_allow(true);
  EXPECT_TRUE(set.evaluate(request("x", "y", AccessType::kRead)).allowed);
}

TEST(PolicySet, PermissionGatesAccessType) {
  PolicySet set("t", 1);
  set.add_rule(rule("r", "a", "o", Permission::kRead));
  EXPECT_TRUE(set.evaluate(request("a", "o", AccessType::kRead)).allowed);
  EXPECT_FALSE(set.evaluate(request("a", "o", AccessType::kWrite)).allowed);
}

TEST(PolicySet, ExplicitDenyRule) {
  PolicySet set("t", 1);
  set.set_default_allow(true);
  set.add_rule(rule("deny", "mallory", "vault", Permission::kNone, 5));
  EXPECT_FALSE(set.evaluate(request("mallory", "vault", AccessType::kRead)).allowed);
  EXPECT_TRUE(set.evaluate(request("alice", "vault", AccessType::kRead)).allowed);
}

TEST(PolicySet, HigherPriorityWins) {
  PolicySet set("t", 1);
  set.add_rule(rule("grant", "a", "o", Permission::kReadWrite, 0));
  set.add_rule(rule("restrict", "a", "o", Permission::kRead, 10));
  EXPECT_FALSE(set.evaluate(request("a", "o", AccessType::kWrite)).allowed);
  const Decision d = set.evaluate(request("a", "o", AccessType::kRead));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.rule_id, "restrict");
}

TEST(PolicySet, SpecificityBreaksPriorityTies) {
  PolicySet set("t", 1);
  set.add_rule(rule("wild", "*", "o", Permission::kReadWrite, 5));
  set.add_rule(rule("exact", "a", "o", Permission::kRead, 5));
  EXPECT_EQ(set.evaluate(request("a", "o", AccessType::kRead)).rule_id, "exact");
  EXPECT_EQ(set.evaluate(request("b", "o", AccessType::kRead)).rule_id, "wild");
}

TEST(PolicySet, FirstRuleWinsFullTies) {
  PolicySet set("t", 1);
  set.add_rule(rule("first", "a", "o", Permission::kRead, 5));
  set.add_rule(rule("second", "a", "o", Permission::kWrite, 5));
  EXPECT_EQ(set.evaluate(request("a", "o", AccessType::kRead)).rule_id, "first");
}

TEST(PolicySet, DuplicateRuleIdRejected) {
  PolicySet set("t", 1);
  set.add_rule(rule("r", "a", "o", Permission::kRead));
  EXPECT_THROW(set.add_rule(rule("r", "b", "o", Permission::kRead)),
               std::invalid_argument);
}

TEST(PolicySet, EmptyRuleIdRejected) {
  PolicySet set("t", 1);
  EXPECT_THROW(set.add_rule(rule("", "a", "o", Permission::kRead)),
               std::invalid_argument);
}

TEST(PolicySet, RemoveRule) {
  PolicySet set("t", 1);
  set.add_rule(rule("r", "a", "o", Permission::kRead));
  EXPECT_TRUE(set.remove_rule("r"));
  EXPECT_FALSE(set.remove_rule("r"));
  EXPECT_FALSE(set.evaluate(request("a", "o", AccessType::kRead)).allowed);
}

TEST(PolicySet, MergeBringsRulesAcross) {
  PolicySet a("a", 1), b("b", 1);
  a.add_rule(rule("r1", "s", "o", Permission::kRead));
  b.add_rule(rule("r2", "s", "p", Permission::kWrite));
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.evaluate(request("s", "p", AccessType::kWrite)).allowed);
}

TEST(PolicySet, MergeCollisionThrows) {
  PolicySet a("a", 1), b("b", 1);
  a.add_rule(rule("r", "s", "o", Permission::kRead));
  // A fresh rule ahead of the colliding one: a failed merge must not
  // leave it behind.
  b.add_rule(rule("fresh", "s", "q", Permission::kRead));
  b.add_rule(rule("r", "s", "p", Permission::kWrite));
  const std::uint64_t before = a.fingerprint();
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.fingerprint(), before);
}

TEST(PolicySet, FingerprintStableAndSensitive) {
  PolicySet a("x", 1), b("x", 1);
  a.add_rule(rule("r", "s", "o", Permission::kRead));
  b.add_rule(rule("r", "s", "o", Permission::kRead));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  PolicySet c("x", 2);  // different version
  c.add_rule(rule("r", "s", "o", Permission::kRead));
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  PolicySet d("x", 1);  // different permission
  d.add_rule(rule("r", "s", "o", Permission::kWrite));
  EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(PolicySet, SerializeListsEveryRule) {
  PolicySet set("demo", 3);
  set.add_rule(rule("r1", "s", "o", Permission::kRead));
  set.add_rule(rule("r2", "*", "o", Permission::kNone, 7,
                    {threat::ModeId{"normal"}}));
  const std::string text = set.serialize();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("v3"), std::string::npos);
  EXPECT_NE(text.find("r1"), std::string::npos);
  EXPECT_NE(text.find("r2"), std::string::npos);
  EXPECT_NE(text.find("normal"), std::string::npos);
}

TEST(Intersect, MostRestrictiveWins) {
  EXPECT_EQ(intersect(Permission::kRead, Permission::kReadWrite), Permission::kRead);
  EXPECT_EQ(intersect(Permission::kRead, Permission::kWrite), Permission::kNone);
  EXPECT_EQ(intersect(Permission::kReadWrite, Permission::kReadWrite),
            Permission::kReadWrite);
  EXPECT_EQ(intersect(Permission::kNone, Permission::kReadWrite), Permission::kNone);
}

TEST(AccessRequest, ToStringIsReadable) {
  const auto req = request("ep.sensors", "ev-ecu", AccessType::kWrite, "normal");
  const std::string s = req.to_string();
  EXPECT_NE(s.find("ep.sensors"), std::string::npos);
  EXPECT_NE(s.find("write"), std::string::npos);
  EXPECT_NE(s.find("normal"), std::string::npos);
}

}  // namespace
}  // namespace psme::core
