// Unit and property tests for the SELinux-style MAC engine (psme::mac).
#include <gtest/gtest.h>

#include <memory>

#include "mac/avc.h"
#include "mac/context.h"
#include "mac/mac_engine.h"
#include "mac/te_policy.h"
#include "sim/rng.h"

namespace psme::mac {
namespace {

TEST(SecurityContext, ParseThreeAndFourPart) {
  const auto c3 = SecurityContext::parse("system:object:ecu_t");
  EXPECT_EQ(c3.user(), "system");
  EXPECT_EQ(c3.type(), "ecu_t");
  EXPECT_EQ(c3.level(), "s0");
  const auto c4 = SecurityContext::parse("u:r:browser_t:s2");
  EXPECT_EQ(c4.level(), "s2");
  EXPECT_EQ(c4.to_string(), "u:r:browser_t:s2");
}

TEST(SecurityContext, ParseRejectsMalformed) {
  EXPECT_THROW(SecurityContext::parse("onlyuser"), std::invalid_argument);
  EXPECT_THROW(SecurityContext::parse("a:b"), std::invalid_argument);
  EXPECT_THROW(SecurityContext::parse("a:b:c:d:e"), std::invalid_argument);
  EXPECT_THROW(SecurityContext("", "r", "t"), std::invalid_argument);
}

PolicyDbBuilder base_builder() {
  PolicyDbBuilder b;
  b.add_class("asset", {"read", "write"});
  b.add_type("browser_t").add_type("installer_t").add_type("system_ui_t");
  return b;
}

TEST(TePolicy, AllowGrantsExactly) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const PolicyDb db = b.build();
  EXPECT_TRUE(db.allowed("browser_t", "system_ui_t", "asset", "read"));
  EXPECT_FALSE(db.allowed("browser_t", "system_ui_t", "asset", "write"));
  EXPECT_FALSE(db.allowed("installer_t", "system_ui_t", "asset", "read"));
  EXPECT_FALSE(db.allowed("browser_t", "system_ui_t", "nosuch", "read"));
}

TEST(TePolicy, AttributeExpandsToMembers) {
  auto b = base_builder();
  b.add_attribute("apps", {"browser_t", "installer_t"});
  b.allow({"apps", "system_ui_t", "asset", {"read"}});
  const PolicyDb db = b.build();
  EXPECT_TRUE(db.allowed("browser_t", "system_ui_t", "asset", "read"));
  EXPECT_TRUE(db.allowed("installer_t", "system_ui_t", "asset", "read"));
  EXPECT_FALSE(db.allowed("system_ui_t", "system_ui_t", "asset", "read"));
}

TEST(TePolicy, NeverallowViolationFailsBuild) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"write"}});
  b.neverallow({"browser_t", "system_ui_t", "asset", {"write"}});
  EXPECT_THROW((void)b.build(), std::logic_error);
}

TEST(TePolicy, NeverallowOnAttributeCatchesMembers) {
  auto b = base_builder();
  b.add_attribute("apps", {"browser_t", "installer_t"});
  b.allow({"installer_t", "system_ui_t", "asset", {"write"}});
  b.neverallow({"apps", "system_ui_t", "asset", {"write"}});
  EXPECT_THROW((void)b.build(), std::logic_error);
}

TEST(TePolicy, NonOverlappingNeverallowPasses) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  b.neverallow({"browser_t", "system_ui_t", "asset", {"write"}});
  EXPECT_NO_THROW((void)b.build());
}

TEST(TePolicy, ValidationErrors) {
  auto b = base_builder();
  EXPECT_THROW(b.allow({"ghost_t", "browser_t", "asset", {"read"}}),
               std::invalid_argument);
  EXPECT_THROW(b.allow({"browser_t", "ghost_t", "asset", {"read"}}),
               std::invalid_argument);
  EXPECT_THROW(b.allow({"browser_t", "browser_t", "ghost", {"read"}}),
               std::invalid_argument);
  EXPECT_THROW(b.allow({"browser_t", "browser_t", "asset", {"fly"}}),
               std::invalid_argument);
  EXPECT_THROW(b.allow({"browser_t", "browser_t", "asset", {}}),
               std::invalid_argument);
}

TEST(TePolicy, DuplicateDeclarationsRejected) {
  PolicyDbBuilder b;
  b.add_class("asset", {"read"});
  EXPECT_THROW(b.add_class("asset", {"read"}), std::invalid_argument);
  b.add_type("t1");
  EXPECT_THROW(b.add_attribute("t1", {}), std::invalid_argument);
  b.add_attribute("attr", {});
  EXPECT_THROW(b.add_type("attr"), std::invalid_argument);
}

TEST(Avc, CachesAndCounts) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const PolicyDb db = b.build(1);
  Avc avc(16);
  EXPECT_TRUE(avc.allowed(db, "browser_t", "system_ui_t", "asset", "read"));
  EXPECT_EQ(avc.stats().misses, 1u);
  EXPECT_TRUE(avc.allowed(db, "browser_t", "system_ui_t", "asset", "read"));
  EXPECT_EQ(avc.stats().hits, 1u);
  EXPECT_NEAR(avc.stats().hit_ratio(), 0.5, 1e-9);
}

TEST(Avc, SeqnoChangeFlushes) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const PolicyDb db1 = b.build(1);
  Avc avc(16);
  (void)avc.allowed(db1, "browser_t", "system_ui_t", "asset", "read");
  EXPECT_EQ(avc.size(), 1u);

  // Same rules, new seqno: cache must revalidate.
  const PolicyDb db2 = b.build(2);
  (void)avc.allowed(db2, "browser_t", "system_ui_t", "asset", "read");
  EXPECT_EQ(avc.stats().flushes, 1u);
  EXPECT_EQ(avc.stats().misses, 2u);
}

TEST(Avc, EvictsLruAtCapacity) {
  auto b = base_builder();
  const PolicyDb db = b.build(1);
  Avc avc(2);
  (void)avc.query(db, "a", "x", "asset");
  (void)avc.query(db, "b", "x", "asset");
  (void)avc.query(db, "a", "x", "asset");  // refresh "a"
  (void)avc.query(db, "c", "x", "asset");  // evicts "b"
  EXPECT_EQ(avc.stats().evictions, 1u);
  (void)avc.query(db, "a", "x", "asset");
  EXPECT_EQ(avc.stats().hits, 2u);  // "a" twice
}

TEST(Avc, ZeroCapacityRejected) {
  EXPECT_THROW(Avc(0), std::invalid_argument);
}

PolicyDb make_db(std::shared_ptr<SidTable> sids) {
  PolicyDbBuilder builder;
  builder.add_class("asset", {"read", "write"});
  builder.add_type("app_t");
  builder.add_type("asset_t");
  builder.allow({"app_t", "asset_t", "asset", {"read"}});
  return builder.build(1, std::move(sids));
}

TEST(AvcAllowed, EmptyRequiredSetIsDenied) {
  auto sids = std::make_shared<SidTable>();
  const PolicyDb db = make_db(sids);
  const Sid app = sids->find("app_t");
  const Sid asset = sids->find("asset_t");
  const Sid cls = db.find_class(std::string_view("asset"))->sid;

  Avc avc(64);
  // The pair has a real grant...
  EXPECT_NE(0u, avc.query(db, app, asset, cls));
  // ...but an EMPTY required set is a malformed query and is rejected,
  // never trivially satisfied (header contract; matches PolicyDb).
  EXPECT_FALSE(avc.allowed(db, app, asset, cls, 0));
  EXPECT_FALSE(db.allowed(app, asset, cls, 0));
  // An unknown permission name takes the same deny path in the shim.
  EXPECT_FALSE(avc.allowed(db, "app_t", "asset_t", "asset", "no_such_perm"));
}

// Property: for random rule sets and random queries, AVC-mediated answers
// equal direct database answers.
class AvcConsistencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AvcConsistencyProperty, CacheNeverChangesAnswers) {
  sim::Rng rng(GetParam());
  const std::vector<std::string> types = {"t0", "t1", "t2", "t3", "t4"};
  PolicyDbBuilder b;
  b.add_class("asset", {"read", "write"});
  for (const auto& t : types) b.add_type(t);
  for (int i = 0; i < 12; ++i) {
    const auto& src = types[rng.uniform(0, types.size() - 1)];
    const auto& tgt = types[rng.uniform(0, types.size() - 1)];
    b.allow({src, tgt, "asset",
             {rng.chance(0.5) ? std::string("read") : std::string("write")}});
  }
  const PolicyDb db = b.build(1);
  Avc avc(4);  // deliberately small: forces evictions mid-stream
  for (int i = 0; i < 500; ++i) {
    const auto& src = types[rng.uniform(0, types.size() - 1)];
    const auto& tgt = types[rng.uniform(0, types.size() - 1)];
    const std::string perm = rng.chance(0.5) ? "read" : "write";
    EXPECT_EQ(avc.allowed(db, src, tgt, "asset", perm),
              db.allowed(src, tgt, "asset", perm));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvcConsistencyProperty,
                         ::testing::Values(1, 5, 9, 40, 77, 2024));

PolicyModule browser_module() {
  PolicyModule m;
  m.name = "infotainment";
  m.types = {"browser_t", "installer_t", "system_ui_t"};
  m.allows.push_back({"browser_t", "system_ui_t", "asset", {"read"}});
  m.allows.push_back({"installer_t", "system_ui_t", "asset", {"read", "write"}});
  m.neverallows.push_back({"browser_t", "system_ui_t", "asset", {"write"}});
  return m;
}

TEST(MacEngine, DeniesEverythingByDefault) {
  MacEngine engine;
  core::AccessRequest req;
  req.subject = "browser";
  req.object = "ui";
  req.access = core::AccessType::kRead;
  EXPECT_FALSE(engine.evaluate(req).allowed);
}

TEST(MacEngine, ModuleGrantsAfterLabelling) {
  MacEngine engine;
  engine.load_module(browser_module());
  engine.label("browser", SecurityContext("u", "r", "browser_t"));
  engine.label("installer", SecurityContext("u", "r", "installer_t"));
  engine.label("ui", SecurityContext("u", "obj", "system_ui_t"));

  core::AccessRequest read{"browser", "ui", core::AccessType::kRead, {}};
  core::AccessRequest write{"browser", "ui", core::AccessType::kWrite, {}};
  core::AccessRequest inst_write{"installer", "ui", core::AccessType::kWrite, {}};
  EXPECT_TRUE(engine.evaluate(read).allowed);
  EXPECT_FALSE(engine.evaluate(write).allowed);   // browser confined
  EXPECT_TRUE(engine.evaluate(inst_write).allowed);
}

TEST(MacEngine, UnlabelledEntitiesUseDefaultContext) {
  MacEngine engine;
  engine.load_module(browser_module());
  core::AccessRequest req{"mystery", "ui", core::AccessType::kRead, {}};
  EXPECT_FALSE(engine.evaluate(req).allowed);  // unlabeled_t has no grants
}

TEST(MacEngine, LoadRejectsBadModuleAtomically) {
  MacEngine engine;
  engine.load_module(browser_module());
  const auto seq_before = engine.policy_seqno();

  PolicyModule bad;
  bad.name = "bad";
  bad.types = {"evil_t"};
  bad.allows.push_back({"evil_t", "ghost_t", "asset", {"read"}});  // unknown tgt
  EXPECT_THROW(engine.load_module(bad), std::invalid_argument);
  // Previous module still effective; engine rebuilt to a working state.
  EXPECT_EQ(engine.loaded_modules().size(), 1u);
  EXPECT_GT(engine.policy_seqno(), seq_before);
  EXPECT_TRUE(engine.allowed("installer_t", "system_ui_t", "write"));
}

TEST(MacEngine, NeverallowBlocksWideningUpdate) {
  MacEngine engine;
  engine.load_module(browser_module());
  // A later module tries to widen browser_t to write: neverallow rejects.
  PolicyModule widen;
  widen.name = "widen";
  widen.allows.push_back({"browser_t", "system_ui_t", "asset", {"write"}});
  EXPECT_THROW(engine.load_module(widen), std::logic_error);
  EXPECT_FALSE(engine.allowed("browser_t", "system_ui_t", "write"));
}

TEST(MacEngine, UnloadModuleRemovesGrants) {
  MacEngine engine;
  engine.load_module(browser_module());
  EXPECT_TRUE(engine.allowed("browser_t", "system_ui_t", "read"));
  EXPECT_TRUE(engine.unload_module("infotainment"));
  EXPECT_FALSE(engine.allowed("browser_t", "system_ui_t", "read"));
  EXPECT_FALSE(engine.unload_module("infotainment"));
}

TEST(MacEngine, DuplicateModuleRejected) {
  MacEngine engine;
  engine.load_module(browser_module());
  EXPECT_THROW(engine.load_module(browser_module()), std::invalid_argument);
}

TEST(MacEngine, PermissiveModeLogsButAllows) {
  MacEngine engine;
  engine.set_permissive(true);
  core::AccessRequest req{"x", "y", core::AccessType::kWrite, {}};
  EXPECT_TRUE(engine.evaluate(req).allowed);
  EXPECT_EQ(engine.permissive_denials(), 1u);
  engine.set_permissive(false);
  EXPECT_FALSE(engine.evaluate(req).allowed);
}

TEST(MacEngine, AvcStatsAccumulate) {
  MacEngine engine;
  engine.load_module(browser_module());
  engine.label("browser", SecurityContext("u", "r", "browser_t"));
  engine.label("ui", SecurityContext("u", "obj", "system_ui_t"));
  core::AccessRequest req{"browser", "ui", core::AccessType::kRead, {}};
  for (int i = 0; i < 10; ++i) (void)engine.evaluate(req);
  EXPECT_GT(engine.avc_stats().hits, 7u);
}

}  // namespace
}  // namespace psme::mac
