// Tests for the SID-native policy pipeline: CompiledPolicyImage parity
// with the legacy string evaluation (byte-identical Decisions against a
// linear-scan oracle), batched evaluation (shuffled batch == scalar per
// element, including deny/audit paths), the PolicyDb flat table against
// a rule oracle, the FleetEvaluator against the legacy string
// pipeline, and const evaluation of one built image from several
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "mac/batch_probe.h"
#include "mac/te_policy.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::AccessRequest;
using core::AccessType;
using core::CompiledPolicyImage;
using core::Decision;
using core::PolicySet;
using core::SidRequest;

// The legacy string-pipeline semantics, reimplemented as a full linear
// scan with the original tie-break (priority desc, specificity desc,
// first-added wins) and the original Decision text. Every SID-space path
// must be byte-identical to this.
Decision oracle(const PolicySet& set, const AccessRequest& request) {
  const core::PolicyRule* best = nullptr;
  for (const auto& rule : set.rules()) {
    if (!rule.matches(request)) continue;
    if (best == nullptr || rule.priority > best->priority ||
        (rule.priority == best->priority &&
         rule.specificity() > best->specificity())) {
      best = &rule;
    }
  }
  if (best == nullptr) {
    return set.default_allow()
               ? Decision::allow("", "no matching rule; default allow")
               : Decision::deny("", "no matching rule; default deny");
  }
  if (core::permits(best->permission, request.access)) {
    return Decision::allow(best->id, best->to_string());
  }
  return Decision::deny(
      best->id,
      "permission " + std::string(threat::to_string(best->permission)) +
          " does not include " + std::string(core::to_string(request.access)));
}

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  EXPECT_EQ(got.allowed, want.allowed) << context;
  EXPECT_EQ(got.rule_id, want.rule_id) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

PolicySet fuzz_policy_set(sim::Rng& rng, std::size_t rules) {
  const std::vector<std::string> subjects = {"*", "a", "b", "c", "d"};
  const std::vector<std::string> objects = {"*", "x", "y", "z"};
  const std::vector<std::string> modes = {"m1", "m2", "m3"};
  PolicySet set("fuzz", 1);
  for (std::size_t i = 0; i < rules; ++i) {
    core::PolicyRule rule;
    rule.id = "r" + std::to_string(i);
    rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    rule.object = objects[rng.uniform(0, objects.size() - 1)];
    rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
    rule.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
    for (const auto& mode : modes) {
      if (rng.chance(0.3)) rule.modes.push_back(threat::ModeId{mode});
    }
    set.add_rule(std::move(rule));
  }
  return set;
}

std::vector<AccessRequest> fuzz_requests(sim::Rng& rng, std::size_t count) {
  // Includes identities and modes no rule ever names (wildcard-only and
  // deny-default paths) — "zzz" never appears in any rule.
  const std::vector<std::string> subjects = {"a", "b", "c", "d", "zzz"};
  const std::vector<std::string> objects = {"x", "y", "z", "zzz"};
  const std::vector<std::string> modes = {"", "m1", "m2", "m3", "zzz"};
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest request;
    request.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    request.object = objects[rng.uniform(0, objects.size() - 1)];
    request.access =
        rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite;
    request.mode = threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

// ---------------------------------------- image vs string-oracle parity

TEST(PolicyImage, FromPolicySetByteIdenticalToOracleUnderFuzz) {
  sim::Rng rng(4242);
  for (int round = 0; round < 5; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 30);
    const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
    for (const AccessRequest& request : fuzz_requests(rng, 300)) {
      const Decision via_image = image.evaluate(image.resolve(request));
      const Decision via_set = set.evaluate(request);
      const Decision want = oracle(set, request);
      expect_same_decision(via_image, want, request.to_string());
      expect_same_decision(via_set, want, request.to_string());
    }
  }
}

TEST(PolicyImage, SidRequestOverloadMatchesStringShim) {
  const PolicySet set = car::full_policy(car::connected_car_threat_model());
  AccessRequest request{"ep.connectivity", "ev-ecu", AccessType::kWrite,
                        threat::ModeId{"remote-diagnostic"}};
  const SidRequest resolved = set.resolve(request);
  expect_same_decision(set.evaluate(resolved), set.evaluate(request),
                       request.to_string());
  EXPECT_TRUE(set.evaluate(resolved).allowed);  // B11 grants RW in diag mode
}

TEST(PolicyImage, DefaultAllowAndUnknownModeSemantics) {
  PolicySet set("edge", 1);
  set.set_default_allow(true);
  core::PolicyRule rule;
  rule.id = "only-m1";
  rule.subject = "a";
  rule.object = "x";
  rule.permission = threat::Permission::kNone;  // explicit deny
  rule.modes = {threat::ModeId{"m1"}};
  set.add_rule(rule);

  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  for (const char* mode : {"", "m1", "m2"}) {
    AccessRequest request{"a", "x", AccessType::kRead,
                          threat::ModeId{std::string(mode)}};
    expect_same_decision(image.evaluate(image.resolve(request)),
                         oracle(set, request), request.to_string());
  }
  // The mode-conditional deny applies to mode-less and m1 requests; the
  // unknown mode m2 falls through to default allow.
  EXPECT_FALSE(
      image
          .evaluate(image.resolve(
              {"a", "x", AccessType::kRead, threat::ModeId{"m1"}}))
          .allowed);
  EXPECT_TRUE(
      image
          .evaluate(image.resolve(
              {"a", "x", AccessType::kRead, threat::ModeId{"m2"}}))
          .allowed);
}

// ----------------------------------------- batched == scalar, shuffled

TEST(PolicyImageBatch, ShuffledBatchByteIdenticalToScalar) {
  sim::Rng rng(777);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);

  std::vector<SidRequest> requests;
  for (const AccessRequest& request : fuzz_requests(rng, 500)) {
    requests.push_back(image.resolve(request));
  }
  // Deterministic Fisher-Yates shuffle (no std::random_device; DESIGN §3).
  for (std::size_t i = requests.size() - 1; i > 0; --i) {
    std::swap(requests[i], requests[rng.uniform(0, i)]);
  }

  std::vector<Decision> out(requests.size());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "batch element " + std::to_string(i));
  }

  // Reusing the warm buffer must give the same answers (capacity reuse
  // must never leak previous contents).
  std::reverse(requests.begin(), requests.end());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "reversed batch element " + std::to_string(i));
  }

  std::vector<Decision> wrong_size(requests.size() - 1);
  EXPECT_THROW(image.evaluate_batch(requests, wrong_size),
               std::invalid_argument);
}

// ------------------------------------------ probe walk: batch parity

TEST(ProbeBackends, ShuffledBatchByteIdenticalAcrossAllBackends) {
  sim::Rng rng(4242);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);

  // Keep the string and SID forms co-shuffled so the batch output can be
  // checked against the linear-scan oracle directly.
  std::vector<AccessRequest> string_requests = fuzz_requests(rng, 500);
  for (std::size_t i = string_requests.size() - 1; i > 0; --i) {
    std::swap(string_requests[i], string_requests[rng.uniform(0, i)]);
  }
  std::vector<SidRequest> requests;
  requests.reserve(string_requests.size());
  for (const AccessRequest& request : string_requests) {
    requests.push_back(image.resolve(request));
  }

  std::vector<Decision> out(requests.size());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_decision(out[i], oracle(set, string_requests[i]),
                         "vs oracle, element " + std::to_string(i));
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "vs scalar evaluate, element " + std::to_string(i));
  }
}

TEST(PolicyDb, LookupMatchesRuleOracleAfterGrowth) {
  // A policy database large enough that the flat table grows several
  // times and carries real probe chains.
  mac::PolicyDbBuilder builder;
  builder.add_class("asset", {"read", "write"});
  std::vector<std::string> types;
  for (int t = 0; t < 24; ++t) {
    types.push_back("t" + std::to_string(t));
    builder.add_type(types.back());
  }
  std::vector<mac::TeRule> rules;
  sim::Rng rng(9090);
  for (int r = 0; r < 200; ++r) {
    mac::TeRule rule;
    rule.source = types[rng.uniform(0, types.size() - 1)];
    rule.target = types[rng.uniform(0, types.size() - 1)];
    rule.object_class = "asset";
    rule.permissions = {rng.chance(0.5) ? "read" : "write"};
    rules.push_back(rule);
    builder.allow(std::move(rule));
  }
  const mac::PolicyDb db = builder.build();
  const mac::ClassDef& asset = *db.find_class(std::string_view("asset"));
  // The oracle: every rule's permission bit OR-ed per (source, target).
  std::map<std::pair<mac::Sid, mac::Sid>, mac::AccessVector> oracle;
  for (const mac::TeRule& rule : rules) {
    oracle[{db.sids().find(rule.source), db.sids().find(rule.target)}] |=
        *asset.bit(rule.permissions[0]);
  }
  // One slot per distinct pair: merge OR-ed duplicates in place.
  EXPECT_EQ(db.rule_count(), oracle.size());

  // Key mix: real triples, unknown SIDs, null components (the guard
  // path), duplicates.
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    const mac::Sid source = static_cast<mac::Sid>(rng.uniform(0, 40));
    const mac::Sid target = static_cast<mac::Sid>(rng.uniform(0, 40));
    const mac::Sid key_cls = rng.chance(0.9) ? asset.sid : mac::kNullSid;
    keys.push_back(mac::pack_av_key(source, target, key_cls));
    if (rng.chance(0.2)) keys.push_back(keys.back());  // duplicate
  }

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const mac::AvKeyParts parts = mac::unpack_av_key(keys[i]);
    mac::AccessVector expected = 0;
    if (parts.source != mac::kNullSid && parts.target != mac::kNullSid &&
        parts.cls == asset.sid) {
      const auto it = oracle.find({parts.source, parts.target});
      if (it != oracle.end()) expected = it->second;
    }
    EXPECT_EQ(db.lookup(parts.source, parts.target, parts.cls), expected)
        << "key " << i;
  }
}

TEST(ProbeBackends, VerdictOnlyBatchMatchesDecisionBatchAcrossBackends) {
  sim::Rng rng(7171);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  std::vector<SidRequest> requests;
  for (const AccessRequest& request : fuzz_requests(rng, 700)) {
    requests.push_back(image.resolve(request));
  }
  std::vector<Decision> decisions(requests.size());
  std::vector<std::uint8_t> flags(requests.size());
  image.evaluate_batch(requests, decisions);
  image.evaluate_batch_allowed(requests, flags);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(flags[i] != 0, decisions[i].allowed) << "element " << i;
  }
  std::vector<std::uint8_t> wrong_size(requests.size() - 1);
  EXPECT_THROW(image.evaluate_batch_allowed(requests, wrong_size),
               std::invalid_argument);
}

TEST(ProbeBackends, ProbeDepthObserverCountsAtLeastTheFourProbeKeys) {
  sim::Rng rng(31337);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  for (const AccessRequest& request : fuzz_requests(rng, 100)) {
    // Four probe keys, each inspecting at least one slot; the cap is one
    // table revolution per key.
    const std::uint32_t depth = image.probe_depth(image.resolve(request));
    EXPECT_GE(depth, 4u);
  }
}

TEST(ProbeWalk, FindSlotContractOnHandBuiltTables) {
  // The walk returns the first slot in probe order whose key matches or
  // is empty, over at most one revolution.
  constexpr std::uint64_t kKey = 42;

  // A hit after wrap-around: the chain runs off the end of the table.
  const std::uint64_t wrapped[] = {kKey, 0, 7, 8};
  EXPECT_EQ(mac::probe::find_slot(wrapped, 3, kKey, 2), 0u);

  // The first empty slot ends the walk, even with the key further on.
  const std::uint64_t gap[] = {5, 0, kKey, 6};
  EXPECT_EQ(mac::probe::find_slot(gap, 3, kKey, 0), 1u);

  // A full table with no match answers `origin`; the caller re-reads the
  // slot, sees a different key and fails closed.
  const std::uint64_t full[] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t origin = 0; origin < 8; ++origin) {
    const std::size_t slot = mac::probe::find_slot(full, 7, kKey, origin);
    EXPECT_EQ(slot, origin);
    EXPECT_NE(full[slot], kKey);
  }

  // A one-slot table (mask 0): the origin is the whole table.
  const std::uint64_t hit[] = {kKey};
  const std::uint64_t miss[] = {9};
  const std::uint64_t empty[] = {0};
  EXPECT_EQ(mac::probe::find_slot(hit, 0, kKey, 0), 0u);
  EXPECT_EQ(mac::probe::find_slot(miss, 0, kKey, 0), 0u);
  EXPECT_EQ(mac::probe::find_slot(empty, 0, kKey, 0), 0u);
}

// --------------------------------------------------- fleet evaluation

TEST(FleetEvaluator, BatchedFleetByteIdenticalToStringPipeline) {
  const auto model = car::connected_car_threat_model();
  const PolicySet policy = car::full_policy(model);
  const CompiledPolicyImage& image = policy.image();

  // 43 vehicles x 192 checks: the 4096-request chunks end inside
  // vehicles 21 and 42, so deny attribution must carry the chunk offset.
  const std::vector<car::FleetCheck> checks = car::default_fleet_checks();
  const std::size_t per_vehicle = checks.size();
  ASSERT_EQ(per_vehicle, 192u);
  const std::size_t fleet_size = 43;
  car::FleetEvaluator fleet(image, checks, fleet_size);
  fleet.set_mode(1, car::CarMode::kRemoteDiagnostic);
  fleet.set_mode(2, car::CarMode::kFailSafe);
  fleet.set_mode(5, car::CarMode::kFailSafe);
  fleet.set_mode(21, car::CarMode::kFailSafe);
  fleet.set_mode(42, car::CarMode::kRemoteDiagnostic);

  std::size_t cursor = 0;
  std::vector<std::uint32_t> stream_denied(fleet_size, 0);
  const car::FleetTickStats stats =
      fleet.tick([&](std::span<const SidRequest> requests,
                     std::span<const Decision> decisions) {
        ASSERT_EQ(requests.size(), decisions.size());
        for (std::size_t i = 0; i < decisions.size(); ++i, ++cursor) {
          const std::size_t vehicle = cursor / per_vehicle;
          const car::FleetCheck& check = checks[cursor % per_vehicle];
          const AccessRequest request{check.subject, check.object,
                                      check.access,
                                      car::mode_id(fleet.mode(vehicle))};
          expect_same_decision(decisions[i], oracle(policy, request),
                               "vehicle " + std::to_string(vehicle) + ": " +
                                   request.to_string());
          if (!decisions[i].allowed) ++stream_denied[vehicle];
        }
      });
  EXPECT_EQ(cursor, fleet_size * per_vehicle);
  EXPECT_EQ(stats.decisions, cursor);
  EXPECT_EQ(stats.allowed + stats.denied, stats.decisions);
  EXPECT_GT(stats.allowed, 0u);
  EXPECT_GT(stats.denied, 0u);
  const std::vector<std::uint32_t> vehicle_denied(stats.vehicle_denied.begin(),
                                                  stats.vehicle_denied.end());
  EXPECT_EQ(vehicle_denied, stream_denied);

  // The counting path (verdict bytes, no sink) tallies the same sweep.
  const car::FleetTickStats counted = fleet.tick();
  EXPECT_EQ(counted.decisions, stats.decisions);
  EXPECT_EQ(counted.allowed, stats.allowed);
  EXPECT_EQ(counted.denied, stats.denied);
  EXPECT_EQ(std::vector<std::uint32_t>(counted.vehicle_denied.begin(),
                                       counted.vehicle_denied.end()),
            stream_denied);
}

TEST(FleetEvaluator, ThrowingSinkLeavesNoChunkQueued) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  car::FleetEvaluator fleet(policy.image(), car::default_fleet_checks(), 43);
  fleet.set_mode(21, car::CarMode::kFailSafe);
  const car::FleetTickStats first = fleet.tick();
  const std::vector<std::uint32_t> vehicle_denied(first.vehicle_denied.begin(),
                                                  first.vehicle_denied.end());

  // The sink throws on the first chunk; that chunk must not stay queued
  // ahead of the next tick's requests.
  const auto throwing_sink = [](std::span<const SidRequest>,
                                std::span<const Decision>) {
    throw std::runtime_error("sink failure");
  };
  EXPECT_THROW(fleet.tick(throwing_sink), std::runtime_error);

  const car::FleetTickStats next = fleet.tick();
  EXPECT_EQ(next.allowed, first.allowed);
  EXPECT_EQ(next.denied, first.denied);
  EXPECT_EQ(std::vector<std::uint32_t>(next.vehicle_denied.begin(),
                                       next.vehicle_denied.end()),
            vehicle_denied);
}

TEST(FleetEvaluator, ValidatesConstructionAndModeAccess) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const CompiledPolicyImage& image = policy.image();
  EXPECT_THROW(car::FleetEvaluator(image, car::default_fleet_checks(), 0),
               std::invalid_argument);
  EXPECT_THROW(car::FleetEvaluator(image, {}), std::invalid_argument);

  car::FleetEvaluator fleet(image, car::default_fleet_checks(), 2);
  EXPECT_EQ(fleet.mode(0), car::CarMode::kNormal);
  fleet.set_mode(1, car::CarMode::kFailSafe);
  EXPECT_EQ(fleet.mode(1), car::CarMode::kFailSafe);
  EXPECT_THROW(fleet.set_mode(2, car::CarMode::kNormal), std::out_of_range);
}

// ------------------------------------------------- concurrent evaluation

TEST(PolicySetConcurrency, ConstEvaluationOverBuiltImageIsMultiThreaded) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  // The image is compiled HERE, on this thread, before any reader
  // starts — the relaxed pin applies only to the compile.
  (void)policy.image();

  const AccessRequest request{"telematics_unit", "vehicle_can_data",
                              AccessType::kRead, {}};
  const Decision expected = policy.evaluate(request);

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const Decision decision = policy.evaluate(request);
        if (decision.allowed != expected.allowed ||
            decision.rule_id != expected.rule_id ||
            decision.reason != expected.reason) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0u, mismatches.load());
}

// ------------------------------------------- binding-compiler statistics

TEST(BindingCompilerStats, CountsUniqueQuestionsAndHits) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy.image());
  for (const auto& node : car::node_bindings()) {
    (void)compiler.build_hpe_config(node.node);
  }
  const car::BindingCompiler::Stats& stats = compiler.stats();
  EXPECT_GT(stats.queries, stats.policy_evaluations);
  EXPECT_EQ(stats.unique_questions, stats.policy_evaluations);
  EXPECT_EQ(stats.memo_hits(), stats.queries - stats.policy_evaluations);

  // Image-constructed and PolicySet-constructed compilers agree.
  car::BindingCompiler via_set(policy);
  for (const auto& node : car::node_bindings()) {
    for (car::CarMode mode : car::kAllModes) {
      EXPECT_EQ(compiler.build_lists(node.node, mode).read.to_string(),
                via_set.build_lists(node.node, mode).read.to_string());
    }
  }
}

TEST(BindingCompilerStats, SurvivesPolicySetMutationViaRetainedSnapshot) {
  PolicySet policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  const auto before =
      compiler.build_lists("doors", car::CarMode::kNormal).read.to_string();

  // Mutating the set drops its lazy image; the compiler must keep
  // answering (stale but well-defined) from the snapshot it retained.
  core::PolicyRule extra;
  extra.id = "post-hoc";
  extra.subject = "*";
  extra.object = "door-locks";
  extra.permission = threat::Permission::kNone;
  extra.priority = 1000;
  policy.add_rule(extra);

  EXPECT_EQ(compiler.build_lists("doors", car::CarMode::kNormal)
                .read.to_string(),
            before);
  // A compiler rebuilt against the mutated set sees the new rule.
  car::BindingCompiler rebuilt(policy);
  EXPECT_FALSE(rebuilt.anyone_may_write("door-locks", car::CarMode::kNormal));
}

}  // namespace
}  // namespace psme
