// Tests for the SID-interned enforcement core: the SidTable interner, the
// SID-keyed PolicyDb/AVC pair, the pre-indexed PolicySet lookup, the
// memoising BindingCompiler, and the MacEngine regression guarantees
// (decisions byte-identical to the string-oracle path; zero heap
// allocations on the cached hot path).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "car/policy_binding.h"
#include "car/base_policy.h"
#include "car/table1.h"
#include "core/policy.h"
#include "mac/avc.h"
#include "mac/mac_engine.h"
#include "mac/sid_table.h"
#include "mac/te_policy.h"
#include "sim/rng.h"

// -- global allocation counter (for the zero-allocation hot-path test) ----
//
// Counts every plain operator new in this binary. gtest and the fixtures
// allocate freely; the hot-path test only inspects the delta across a
// tight evaluate() loop.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psme {
namespace {

using mac::kNullSid;
using mac::Sid;
using mac::SidTable;

// ---------------------------------------------------------------- SidTable

TEST(SidTable, InternIsDenseAndStable) {
  SidTable table;
  const Sid a = table.intern("ecu_t");
  const Sid b = table.intern("eps_t");
  const Sid c = table.intern("engine_t");
  EXPECT_EQ(a, 1u);  // dense, starting at 1
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(table.intern("eps_t"), b);  // idempotent
  EXPECT_EQ(table.size(), 3u);
}

TEST(SidTable, RoundTripsNames) {
  SidTable table;
  const std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
  std::vector<Sid> sids;
  for (const auto& n : names) sids.push_back(table.intern(n));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.name_of(sids[i]), names[i]);
    EXPECT_EQ(table.find(names[i]), sids[i]);
  }
}

TEST(SidTable, UnknownNamesAndSids) {
  SidTable table;
  (void)table.intern("known");
  EXPECT_EQ(table.find("unknown"), kNullSid);
  EXPECT_FALSE(table.contains(kNullSid));
  EXPECT_FALSE(table.contains(2u));
  EXPECT_THROW((void)table.name_of(kNullSid), std::out_of_range);
  EXPECT_THROW((void)table.name_of(99u), std::out_of_range);
}

TEST(SidTable, PackedKeyIsInjectiveOverFields) {
  // Distinct triples must produce distinct packed keys (field isolation).
  EXPECT_NE(mac::pack_av_key(1, 2, 3), mac::pack_av_key(2, 1, 3));
  EXPECT_NE(mac::pack_av_key(1, 2, 3), mac::pack_av_key(1, 3, 2));
  EXPECT_NE(mac::pack_av_key(mac::kMaxTypeSid, 1, 1),
            mac::pack_av_key(1, mac::kMaxTypeSid, 1));
  // A valid triple never packs to the empty-slot sentinel 0.
  EXPECT_NE(mac::pack_av_key(1, 1, 1), 0u);
}

// ---------------------------------------------------- PolicyDb in SID space

mac::PolicyDbBuilder base_builder() {
  mac::PolicyDbBuilder b;
  b.add_class("asset", {"read", "write"});
  b.add_type("browser_t").add_type("installer_t").add_type("system_ui_t");
  return b;
}

TEST(SidPolicyDb, SidLookupMatchesStringLookup) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  b.allow({"installer_t", "system_ui_t", "asset", {"read", "write"}});
  const mac::PolicyDb db = b.build();

  const SidTable& sids = db.sids();
  const Sid browser = sids.find("browser_t");
  const Sid ui = sids.find("system_ui_t");
  const Sid asset = db.find_class(std::string_view("asset"))->sid;
  ASSERT_NE(browser, kNullSid);
  ASSERT_NE(ui, kNullSid);
  ASSERT_NE(asset, kNullSid);

  EXPECT_EQ(db.lookup(browser, ui, asset), db.lookup("browser_t", "system_ui_t", "asset"));
  EXPECT_EQ(db.lookup(browser, ui, asset), 1u);  // read = bit 0
  EXPECT_TRUE(db.allowed(browser, ui, asset, 1u));
  EXPECT_FALSE(db.allowed(browser, ui, asset, 2u));
  EXPECT_EQ(db.lookup(kNullSid, ui, asset), 0u);
}

TEST(SidPolicyDb, AttributeExpansionResolvesToSidsAtBuildTime) {
  auto b = base_builder();
  b.add_attribute("apps", {"browser_t", "installer_t"});
  b.allow({"apps", "system_ui_t", "asset", {"read"}});
  const mac::PolicyDb db = b.build();
  // Expansion happened at compile time: two concrete entries, and the
  // attribute name itself resolves to nothing at lookup time.
  EXPECT_EQ(db.rule_count(), 2u);
  EXPECT_TRUE(db.allowed("browser_t", "system_ui_t", "asset", "read"));
  EXPECT_TRUE(db.allowed("installer_t", "system_ui_t", "asset", "read"));
  EXPECT_FALSE(db.allowed("apps", "system_ui_t", "asset", "read"));
}

TEST(SidPolicyDb, SharedInternerKeepsSidsStableAcrossRebuilds) {
  auto sids = std::make_shared<SidTable>();
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const mac::PolicyDb db1 = b.build(1, sids);
  const Sid browser = sids->find("browser_t");

  auto b2 = base_builder();
  b2.add_type("extra_t");
  b2.allow({"extra_t", "system_ui_t", "asset", {"write"}});
  const mac::PolicyDb db2 = b2.build(2, sids);
  EXPECT_EQ(sids->find("browser_t"), browser);  // unchanged by the rebuild
  EXPECT_EQ(db1.sid_table().get(), db2.sid_table().get());
}

TEST(SidPolicyDbBuilder, RejectsDuplicateDeclarations) {
  mac::PolicyDbBuilder b;
  b.add_class("asset", {"read"});
  EXPECT_THROW(b.add_class("asset", {"read"}), std::invalid_argument);
  b.add_type("t1");
  EXPECT_THROW(b.add_type("t1"), std::invalid_argument);
  b.add_attribute("attr", {});
  EXPECT_THROW(b.add_attribute("attr", {}), std::invalid_argument);
}

TEST(SidPolicyDbBuilder, RejectsPermissionOverflowAndDuplicates) {
  mac::PolicyDbBuilder b;
  std::vector<std::string> too_many;
  for (int i = 0; i < 33; ++i) too_many.push_back("p" + std::to_string(i));
  EXPECT_THROW(b.add_class("wide", too_many), std::invalid_argument);
  EXPECT_THROW(b.add_class("dup", {"read", "read"}), std::invalid_argument);
  // Exactly 32 permissions is legal and bit 31 is addressable.
  std::vector<std::string> exactly;
  for (int i = 0; i < 32; ++i) exactly.push_back("p" + std::to_string(i));
  b.add_class("exact", exactly);
  b.add_type("a").add_type("x");
  b.allow({"a", "x", "exact", {"p31"}});
  const mac::PolicyDb db = b.build();
  EXPECT_TRUE(db.allowed("a", "x", "exact", "p31"));
  EXPECT_EQ(db.lookup("a", "x", "exact"), 0x80000000u);
}

// -------------------------------------------------------- AVC in SID space

TEST(SidAvc, SidQueriesCacheAndCount) {
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const mac::PolicyDb db = b.build(1);
  const Sid browser = db.sids().find("browser_t");
  const Sid ui = db.sids().find("system_ui_t");
  const Sid asset = db.find_class(std::string_view("asset"))->sid;

  mac::Avc avc(16);
  EXPECT_EQ(avc.query(db, browser, ui, asset), 1u);
  EXPECT_EQ(avc.stats().misses, 1u);
  EXPECT_EQ(avc.query(db, browser, ui, asset), 1u);
  EXPECT_EQ(avc.stats().hits, 1u);
  EXPECT_EQ(avc.size(), 1u);
  EXPECT_TRUE(avc.allowed(db, browser, ui, asset, 1u));
  EXPECT_FALSE(avc.allowed(db, browser, ui, asset, 2u));
}

TEST(SidAvc, EvictsInExactLruOrder) {
  const mac::PolicyDb db = base_builder().build(1);
  auto& sids = *db.sid_table();
  const Sid cls = db.find_class(std::string_view("asset"))->sid;
  const Sid x = sids.intern("x");
  const Sid a = sids.intern("a"), b = sids.intern("b"), c = sids.intern("c"),
            d = sids.intern("d");

  mac::Avc avc(3);
  (void)avc.query(db, a, x, cls);
  (void)avc.query(db, b, x, cls);
  (void)avc.query(db, c, x, cls);   // cache: c b a (MRU..LRU)
  (void)avc.query(db, a, x, cls);   // refresh a -> a c b
  EXPECT_EQ(avc.stats().hits, 1u);
  (void)avc.query(db, d, x, cls);   // evicts b (the LRU)
  EXPECT_EQ(avc.stats().evictions, 1u);

  // a, c, d still resident; b gone. Hits confirm residency without
  // disturbing relative order checks below.
  (void)avc.query(db, a, x, cls);
  (void)avc.query(db, c, x, cls);
  (void)avc.query(db, d, x, cls);
  EXPECT_EQ(avc.stats().hits, 4u);
  (void)avc.query(db, b, x, cls);   // miss: b was the one evicted
  EXPECT_EQ(avc.stats().misses, 5u);
  EXPECT_EQ(avc.stats().evictions, 2u);  // b's return evicted a (LRU now)
  (void)avc.query(db, a, x, cls);
  EXPECT_EQ(avc.stats().misses, 6u);
}

TEST(SidAvc, FlushesOnSeqnoChangeOnly) {
  auto sids = std::make_shared<SidTable>();
  auto b = base_builder();
  b.allow({"browser_t", "system_ui_t", "asset", {"read"}});
  const mac::PolicyDb db1 = b.build(1, sids);
  const mac::PolicyDb db2 = b.build(2, sids);
  const Sid browser = sids->find("browser_t");
  const Sid ui = sids->find("system_ui_t");
  const Sid cls = db1.find_class(std::string_view("asset"))->sid;

  mac::Avc avc(16);
  (void)avc.query(db1, browser, ui, cls);
  (void)avc.query(db1, browser, ui, cls);
  EXPECT_EQ(avc.stats().flushes, 0u);
  EXPECT_EQ(avc.size(), 1u);

  (void)avc.query(db2, browser, ui, cls);  // seqno changed: flush first
  EXPECT_EQ(avc.stats().flushes, 1u);
  EXPECT_EQ(avc.stats().misses, 2u);
  EXPECT_EQ(avc.size(), 1u);

  avc.flush();
  EXPECT_EQ(avc.stats().flushes, 2u);
  EXPECT_EQ(avc.size(), 0u);
}

TEST(SidAvc, SidAndStringPathsAgreeUnderRandomWorkload) {
  sim::Rng rng(2024);
  const std::vector<std::string> types = {"t0", "t1", "t2", "t3", "t4"};
  mac::PolicyDbBuilder b;
  b.add_class("asset", {"read", "write"});
  for (const auto& t : types) b.add_type(t);
  for (int i = 0; i < 12; ++i) {
    b.allow({types[rng.uniform(0, types.size() - 1)],
             types[rng.uniform(0, types.size() - 1)],
             "asset",
             {rng.chance(0.5) ? std::string("read") : std::string("write")}});
  }
  const mac::PolicyDb db = b.build(1);
  const Sid cls = db.find_class(std::string_view("asset"))->sid;

  mac::Avc sid_avc(4);
  mac::Avc str_avc(4);
  for (int i = 0; i < 500; ++i) {
    const auto& src = types[rng.uniform(0, types.size() - 1)];
    const auto& tgt = types[rng.uniform(0, types.size() - 1)];
    const mac::AccessVector via_sid =
        sid_avc.query(db, db.sids().find(src), db.sids().find(tgt), cls);
    const mac::AccessVector via_str = str_avc.query(db, src, tgt, "asset");
    EXPECT_EQ(via_sid, via_str) << src << " -> " << tgt;
    EXPECT_EQ(via_sid, db.lookup(src, tgt, "asset"));
  }
}

// ------------------------------------------------- PolicySet rule indexing

TEST(PolicySetIndex, IncrementalAddAfterEvaluate) {
  core::PolicySet set("s", 1);
  core::PolicyRule r1;
  r1.id = "base";
  r1.subject = "a";
  r1.object = "o";
  r1.permission = threat::Permission::kRead;
  set.add_rule(r1);

  core::AccessRequest req{"a", "o", core::AccessType::kRead, {}};
  EXPECT_TRUE(set.evaluate(req).allowed);  // builds the index

  core::PolicyRule r2;  // higher-priority deny, added post-index
  r2.id = "deny";
  r2.subject = "a";
  r2.object = "o";
  r2.permission = threat::Permission::kNone;
  r2.priority = 5;
  set.add_rule(r2);
  EXPECT_FALSE(set.evaluate(req).allowed);

  EXPECT_TRUE(set.remove_rule("deny"));  // invalidates; next evaluate rebuilds
  EXPECT_TRUE(set.evaluate(req).allowed);
}

TEST(PolicySetIndex, IndexedEvaluateMatchesLinearScanUnderFuzz) {
  sim::Rng rng(77);
  const std::vector<std::string> subjects = {"*", "a", "b", "c", "d"};
  const std::vector<std::string> objects = {"*", "x", "y", "z"};
  core::PolicySet set("fuzz", 1);
  for (int i = 0; i < 40; ++i) {
    core::PolicyRule rule;
    rule.id = "r" + std::to_string(i);
    rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    rule.object = objects[rng.uniform(0, objects.size() - 1)];
    rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
    rule.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
    set.add_rule(std::move(rule));
  }

  // Reference: the former linear scan, reimplemented here.
  const auto linear = [&](const core::AccessRequest& req) {
    const core::PolicyRule* best = nullptr;
    for (const auto& rule : set.rules()) {
      if (!rule.matches(req)) continue;
      if (best == nullptr || rule.priority > best->priority ||
          (rule.priority == best->priority &&
           rule.specificity() > best->specificity())) {
        best = &rule;
      }
    }
    return best;
  };

  for (int probe = 0; probe < 400; ++probe) {
    core::AccessRequest req;
    req.subject = subjects[rng.uniform(1, subjects.size() - 1)];
    req.object = objects[rng.uniform(1, objects.size() - 1)];
    req.access = rng.chance(0.5) ? core::AccessType::kRead
                                 : core::AccessType::kWrite;
    const auto decision = set.evaluate(req);
    const core::PolicyRule* expected = linear(req);
    if (expected == nullptr) {
      EXPECT_TRUE(decision.rule_id.empty());
    } else {
      EXPECT_EQ(decision.rule_id, expected->id) << req.to_string();
      EXPECT_EQ(decision.allowed,
                core::permits(expected->permission, req.access));
    }
  }
}

// -------------------------------------------------------- BindingCompiler

TEST(BindingCompiler, MemoisedVerdictsMatchFreshCompilers) {
  const core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  for (const auto& binding : car::node_bindings()) {
    for (car::CarMode mode : car::kAllModes) {
      for (const auto& asset : car::asset_bindings()) {
        for (const auto access :
             {core::AccessType::kRead, core::AccessType::kWrite}) {
          EXPECT_EQ(compiler.node_may(binding.node, asset.asset_id, access, mode),
                    car::BindingCompiler(policy).node_may(
                        binding.node, asset.asset_id, access, mode))
              << binding.node << " " << asset.asset_id;
        }
      }
    }
  }
  // A second sweep re-asks every question; the memo must absorb all of it.
  const std::uint64_t evaluations_after_first_pass =
      compiler.stats().policy_evaluations;
  for (const auto& binding : car::node_bindings()) {
    for (car::CarMode mode : car::kAllModes) {
      for (const auto& asset : car::asset_bindings()) {
        (void)compiler.node_may(binding.node, asset.asset_id,
                                core::AccessType::kWrite, mode);
      }
    }
  }
  EXPECT_EQ(compiler.stats().policy_evaluations, evaluations_after_first_pass);
  EXPECT_GT(compiler.stats().memo_hits(), 0u);
}

TEST(BindingCompiler, SharedCompilerBuildsIdenticalHpeConfigs) {
  const core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  for (const auto& binding : car::node_bindings()) {
    const hpe::HpeConfig shared = compiler.build_hpe_config(binding.node);
    const hpe::HpeConfig fresh =
        car::BindingCompiler(policy).build_hpe_config(binding.node);
    ASSERT_EQ(shared.per_mode.size(), fresh.per_mode.size());
    for (const auto& [mode, lists] : fresh.per_mode) {
      const auto it = shared.per_mode.find(mode);
      ASSERT_NE(it, shared.per_mode.end());
      EXPECT_EQ(it->second.read.to_string(), lists.read.to_string());
      EXPECT_EQ(it->second.write.to_string(), lists.write.to_string());
    }
    EXPECT_EQ(shared.default_lists.read.to_string(),
              fresh.default_lists.read.to_string());
  }
}

// ------------------------------------------------- MacEngine regression

/// Builds a MacEngine module from the paper's Table-1 rows: one TE type
/// per entity, one allow rule per (entry point, asset) grant.
mac::PolicyModule table1_module() {
  mac::PolicyModule module;
  module.name = "table1";
  std::set<std::string> types;
  auto type_of = [](const std::string& entity) { return entity + "_t"; };
  for (const auto& row : car::table1_rows()) {
    types.insert(type_of(row.asset));
    for (const auto& ep : row.entry_points) types.insert(type_of(ep));
  }
  module.types.assign(types.begin(), types.end());
  for (const auto& row : car::table1_rows()) {
    std::vector<std::string> perms;
    if (row.policy == "R" || row.policy == "RW") perms.push_back("read");
    if (row.policy == "W" || row.policy == "RW") perms.push_back("write");
    if (perms.empty()) continue;
    for (const auto& ep : row.entry_points) {
      module.allows.push_back(
          {type_of(ep), type_of(row.asset), "asset", perms});
    }
  }
  return module;
}

TEST(MacEngineRegression, DecisionsByteIdenticalToStringOracle) {
  mac::MacEngine engine;
  engine.load_module(table1_module());

  std::set<std::string> entities;
  for (const auto& row : car::table1_rows()) {
    entities.insert(row.asset);
    for (const auto& ep : row.entry_points) entities.insert(ep);
  }
  for (const auto& e : entities) {
    engine.label(e, mac::SecurityContext("sys", "r", e + "_t"));
  }
  entities.insert("never-labelled");  // exercises the default context

  // Byte-for-byte: the SID fast path must produce exactly the decision the
  // string-keyed oracle (direct PolicyDb lookup, no cache) would.
  for (int pass = 0; pass < 2; ++pass) {  // cold then hot AVC
    for (const auto& subject : entities) {
      for (const auto& object : entities) {
        for (const auto access :
             {core::AccessType::kRead, core::AccessType::kWrite}) {
          core::AccessRequest req{subject, object, access, {}};
          const core::Decision got = engine.evaluate(req);

          const std::string& src = engine.context_of(subject).type();
          const std::string& tgt = engine.context_of(object).type();
          const std::string perm(core::to_string(access));
          const bool expect_allow =
              engine.db().allowed(src, tgt, "asset", perm);
          EXPECT_EQ(got.allowed, expect_allow) << req.to_string();
          EXPECT_EQ(got.rule_id, "te");
          if (expect_allow) {
            EXPECT_EQ(got.reason, "avc: granted");
          } else {
            EXPECT_EQ(got.reason, "no allow rule " + src + " -> " + tgt +
                                      " : asset { " + perm + " }");
          }
        }
      }
    }
  }
  EXPECT_GT(engine.avc_stats().hits, 0u);
}

TEST(MacEngineRegression, CachedEvaluateAllocatesNothing) {
  mac::MacEngine engine;
  engine.load_module(table1_module());

  // Pick a pair Table 1 actually grants read on.
  const car::Table1Row* granted = nullptr;
  for (const auto& row : car::table1_rows()) {
    if ((row.policy == "R" || row.policy == "RW") && !row.entry_points.empty()) {
      granted = &row;
      break;
    }
  }
  ASSERT_NE(granted, nullptr);
  const std::string& subject = granted->entry_points.front();
  const std::string& object = granted->asset;
  engine.label(subject, mac::SecurityContext("sys", "r", subject + "_t"));
  engine.label(object, mac::SecurityContext("sys", "obj", object + "_t"));

  core::AccessRequest allowed_req{subject, object, core::AccessType::kRead, {}};
  ASSERT_TRUE(engine.evaluate(allowed_req).allowed);  // warm the AVC

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    const core::Decision d = engine.evaluate(allowed_req);
    ASSERT_TRUE(d.allowed);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "cached MacEngine::evaluate must not touch the heap";
}

TEST(MacEngineRegression, LabelSidSurvivesPolicyReload) {
  mac::MacEngine engine;
  engine.load_module(table1_module());
  engine.label("ep.connectivity",
               mac::SecurityContext("sys", "r", "ep.connectivity_t"));
  const Sid before = engine.type_sid_of("ep.connectivity");

  mac::PolicyModule extra;
  extra.name = "extra";
  extra.types = {"guest_t"};
  engine.load_module(extra);   // rebuild: new seqno, same interner
  EXPECT_EQ(engine.type_sid_of("ep.connectivity"), before);
  EXPECT_TRUE(engine.unload_module("extra"));
  EXPECT_EQ(engine.type_sid_of("ep.connectivity"), before);
}

}  // namespace
}  // namespace psme
