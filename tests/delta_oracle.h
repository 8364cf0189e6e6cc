// The differential oracle for the delta OTA channel: seeded random
// policy pairs (base, target) whose target was produced by adversarial
// mutation — rules added, removed, retargeted, permission-widened,
// priority-shuffled, mode-flipped, brand-new types and modes introduced
// — plus the request generator that probes them. The oracle contract
// (tests/test_policy_delta.cpp): compiling the target DIRECTLY against a
// prefix replica of the base's SID space and applying the binary delta
// to the base image must produce fingerprint-equal images with
// byte-identical decisions on every request, shuffled batches included.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "sim/rng.h"

namespace psme::deltatest {

/// One randomized differential case. Pools carry every name a request
/// generator should probe with — base names, target-only names, and
/// never-interned strangers.
struct DeltaCase {
  core::PolicySet base;
  core::PolicySet target;
  std::vector<std::string> subjects;
  std::vector<std::string> objects;
  std::vector<std::string> modes;
};

inline const std::vector<std::string>& base_subjects() {
  static const std::vector<std::string> pool = {
      "*", "ecu.brake", "ecu.engine", "ep.obd", "ep.tcu", "app.nav"};
  return pool;
}

inline const std::vector<std::string>& base_objects() {
  static const std::vector<std::string> pool = {"*", "asset.can", "asset.fw",
                                                "asset.keys", "asset.log"};
  return pool;
}

inline const std::vector<std::string>& base_modes() {
  static const std::vector<std::string> pool = {"normal", "diag", "failsafe"};
  return pool;
}

inline core::PolicyRule random_rule(sim::Rng& rng, std::string id,
                                    const std::vector<std::string>& subjects,
                                    const std::vector<std::string>& objects,
                                    const std::vector<std::string>& modes) {
  core::PolicyRule rule;
  rule.id = std::move(id);
  rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
  rule.object = objects[rng.uniform(0, objects.size() - 1)];
  rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
  rule.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
  for (const std::string& mode : modes) {
    if (rng.chance(0.3)) rule.modes.push_back(threat::ModeId{mode});
  }
  return rule;
}

/// Base policy plus a mutated target: every mutation class the OTA
/// channel must survive, applied with seeded randomness. Kept rules
/// preserve their base order (the realistic OEM edit), so copy runs,
/// patches, skips and inserts all appear.
inline DeltaCase random_case(sim::Rng& rng) {
  DeltaCase c;
  c.subjects = base_subjects();
  c.objects = base_objects();
  c.modes = base_modes();
  // Target-only identities: new types and new modes the base never
  // interned — the SID-prefix-extension path.
  const std::vector<std::string> new_subjects = {"ecu.new0", "app.new1"};
  const std::vector<std::string> new_objects = {"asset.new0", "asset.new1"};
  const std::vector<std::string> new_modes = {"valet", "track"};

  const bool default_allow = rng.chance(0.3);
  const std::size_t rules = 6 + rng.uniform(0, 22);
  c.base = core::PolicySet("fuzz-base", 1 + rng.uniform(0, 4));
  c.base.set_default_allow(default_allow);
  for (std::size_t i = 0; i < rules; ++i) {
    c.base.add_rule(random_rule(rng, "r" + std::to_string(i), c.subjects,
                                c.objects, c.modes));
  }

  c.target = core::PolicySet("fuzz-target", c.base.version() + 1);
  c.target.set_default_allow(rng.chance(0.1) ? !default_allow : default_allow);
  std::vector<std::string> target_subjects = c.subjects;
  std::vector<std::string> target_objects = c.objects;
  std::vector<std::string> target_modes = c.modes;
  for (const std::string& s : new_subjects) {
    if (rng.chance(0.4)) target_subjects.push_back(s);
  }
  for (const std::string& s : new_objects) {
    if (rng.chance(0.4)) target_objects.push_back(s);
  }
  for (const std::string& m : new_modes) {
    if (rng.chance(0.4)) target_modes.push_back(m);
  }

  std::size_t added = 0;
  for (const core::PolicyRule& rule : c.base.rules()) {
    if (rng.chance(0.15)) continue;  // removed
    core::PolicyRule kept = rule;
    if (rng.chance(0.25)) {  // mutated in place
      switch (rng.uniform(0, 4)) {
        case 0:
          kept.subject =
              target_subjects[rng.uniform(0, target_subjects.size() - 1)];
          break;
        case 1:
          kept.object =
              target_objects[rng.uniform(0, target_objects.size() - 1)];
          break;
        case 2:
          kept.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
          break;
        case 3:
          kept.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
          break;
        default: {  // mode flip: drop one or add one
          if (!kept.modes.empty() && rng.chance(0.5)) {
            kept.modes.erase(kept.modes.begin() +
                             static_cast<long>(
                                 rng.uniform(0, kept.modes.size() - 1)));
          } else {
            kept.modes.push_back(threat::ModeId{
                target_modes[rng.uniform(0, target_modes.size() - 1)]});
          }
          break;
        }
      }
    }
    c.target.add_rule(std::move(kept));
    // Occasionally splice a brand-new rule between kept ones, so inserts
    // land mid-sequence, not only at the tail.
    if (rng.chance(0.1)) {
      c.target.add_rule(random_rule(rng, "a" + std::to_string(added++),
                                    target_subjects, target_objects,
                                    target_modes));
    }
  }
  const std::size_t tail_adds = rng.uniform(0, 4);
  for (std::size_t i = 0; i < tail_adds; ++i) {
    c.target.add_rule(random_rule(rng, "a" + std::to_string(added++),
                                  target_subjects, target_objects,
                                  target_modes));
  }

  // The request pools probe base names, target-only names and strangers.
  c.subjects = target_subjects;
  c.subjects.push_back("stranger.subject");
  c.objects = target_objects;
  c.objects.push_back("stranger.object");
  c.modes = target_modes;
  c.modes.push_back("stranger-mode");
  c.modes.push_back("");  // the mode-independent request
  return c;
}

/// A seeded policy LINEAGE: `length` releases where each version is a
/// random_case-style mutation of its predecessor (rules dropped, edited
/// in place, spliced in; occasional brand-new generation-specific
/// identities) with strictly increasing versions. This is the fixture
/// the multi-release delta and campaign tests share: compile each set
/// against a prefix replica of its predecessor's image and a delta from
/// any release to any later one is anchor-valid by construction.
inline std::vector<core::PolicySet> random_lineage(sim::Rng& rng,
                                                   std::size_t length) {
  std::vector<core::PolicySet> lineage;
  lineage.reserve(length);
  std::vector<std::string> subjects = base_subjects();
  std::vector<std::string> objects = base_objects();
  std::vector<std::string> modes = base_modes();

  core::PolicySet current("lineage-v1", 1 + rng.uniform(0, 3));
  current.set_default_allow(rng.chance(0.3));
  const std::size_t rules = 8 + rng.uniform(0, 16);
  for (std::size_t i = 0; i < rules; ++i) {
    current.add_rule(
        random_rule(rng, "r" + std::to_string(i), subjects, objects, modes));
  }
  lineage.push_back(current);

  std::size_t added = 0;
  for (std::size_t gen = 1; gen < length; ++gen) {
    if (rng.chance(0.3)) {
      subjects.push_back("ecu.gen" + std::to_string(gen));
    }
    if (rng.chance(0.3)) {
      objects.push_back("asset.gen" + std::to_string(gen));
    }
    core::PolicySet next("lineage-v" + std::to_string(gen + 1),
                         current.version() + 1 + rng.uniform(0, 2));
    next.set_default_allow(rng.chance(0.05) ? !current.default_allow()
                                            : current.default_allow());
    for (const core::PolicyRule& rule : current.rules()) {
      if (rng.chance(0.10)) continue;  // retired this release
      core::PolicyRule kept = rule;
      if (rng.chance(0.20)) {
        switch (rng.uniform(0, 2)) {
          case 0:
            kept.permission =
                static_cast<threat::Permission>(rng.uniform(0, 3));
            break;
          case 1:
            kept.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
            break;
          default:
            kept.object = objects[rng.uniform(0, objects.size() - 1)];
            break;
        }
      }
      next.add_rule(std::move(kept));
      if (rng.chance(0.08)) {
        next.add_rule(random_rule(rng, "a" + std::to_string(added++),
                                  subjects, objects, modes));
      }
    }
    lineage.push_back(next);
    current = std::move(next);
  }
  return lineage;
}

/// The DIRECT compile of the target — the oracle the delta-applied image
/// must be byte-identical to: same rules, compiled against a prefix
/// replica of the base image's SID space (the OEM flow; the base image
/// and its interner stay untouched).
inline core::CompiledPolicyImage compile_target(
    const DeltaCase& c, const core::CompiledPolicyImage& base) {
  return core::CompiledPolicyImage::from_policy_set(
      c.target,
      core::replicate_sid_prefix(base.sids(), base.sids().size()));
}

inline std::vector<core::AccessRequest> random_requests(sim::Rng& rng,
                                                        const DeltaCase& c,
                                                        std::size_t count) {
  std::vector<core::AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::AccessRequest request;
    // Skip pool slot 0 ("*") for subjects/objects: requests name concrete
    // identities; wildcard matching is the RULE side's job.
    request.subject = c.subjects[rng.uniform(1, c.subjects.size() - 1)];
    request.object = c.objects[rng.uniform(1, c.objects.size() - 1)];
    request.access =
        rng.chance(0.5) ? core::AccessType::kRead : core::AccessType::kWrite;
    request.mode = threat::ModeId{c.modes[rng.uniform(0, c.modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace psme::deltatest
