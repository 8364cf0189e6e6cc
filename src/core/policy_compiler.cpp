#include "core/policy_compiler.h"

#include <algorithm>
#include <vector>

#include "mac/sid_table.h"

namespace psme::core {

int PolicyCompiler::band_weight(threat::RiskBand band) noexcept {
  switch (band) {
    case threat::RiskBand::kLow: return 0;
    case threat::RiskBand::kMedium: return 10;
    case threat::RiskBand::kHigh: return 20;
    case threat::RiskBand::kCritical: return 30;
  }
  return 0;
}

namespace {

/// One rule mid-derivation, already in SID space. Mode SIDs stay an
/// ordered list (not a mask) because merge order is observable: the
/// materialised rule text lists modes in first-cited order.
struct DerivedRule {
  std::string id;
  mac::Sid subject = mac::kNullSid;  // the wildcard SID encodes "*"
  mac::Sid object = mac::kNullSid;
  threat::Permission permission = threat::Permission::kNone;
  std::vector<mac::Sid> modes;  // empty = applies in every mode
  int priority = 0;
  std::string rationale;
};

/// True when the two mode lists can apply at the same instant: either list
/// empty means "all modes", otherwise they must share a mode.
bool modes_overlap(const std::vector<mac::Sid>& a,
                   const std::vector<mac::Sid>& b) {
  if (a.empty() || b.empty()) return true;
  return std::any_of(a.begin(), a.end(), [&](mac::Sid m) {
    return std::find(b.begin(), b.end(), m) != b.end();
  });
}

/// The SID-space derivation: interns every entity/mode name exactly once
/// and accumulates least-privilege-merged rules, then materialises them
/// as the string PolicySet compile() returns.
class Derivation {
 public:
  Derivation() : wildcard_(sids_.intern("*")) {}

  void emit_rules_for(const threat::Threat& threat,
                      const threat::ThreatModel& model, int base_priority) {
    const int priority =
        base_priority + PolicyCompiler::band_weight(threat.dread.band());
    const mac::Sid object = sids_.intern(threat.asset.value);
    std::vector<mac::Sid> threat_modes;
    threat_modes.reserve(threat.modes.size());
    for (const threat::ModeId& m : threat.modes) {
      threat_modes.push_back(sids_.intern(m.value));
    }

    for (const threat::EntryPointId& entry_point : threat.entry_points) {
      // The sentinel entry point "any" ("Any node" in the paper's Table I)
      // compiles to the wildcard subject.
      const bool any = entry_point.value == "any";
      const mac::Sid subject =
          any ? wildcard_ : sids_.intern(entry_point.value);

      // If a previously derived rule already constrains this pair in an
      // overlapping mode, tighten it in place instead of adding a
      // competitor: least privilege means every threat's constraint must
      // hold at once.
      DerivedRule* hit = nullptr;
      for (DerivedRule& rule : rules_) {
        if (rule.subject == subject && rule.object == object &&
            modes_overlap(rule.modes, threat_modes)) {
          hit = &rule;
          break;
        }
      }
      if (hit != nullptr) {
        hit->permission = intersect(hit->permission, threat.recommended_policy);
        hit->priority = std::max(hit->priority, priority);
        hit->rationale += "; " + threat.id.value;
        // Widen the mode condition to the union so both threats stay
        // covered; either side unconditional makes the merge unconditional.
        const bool either_all = hit->modes.empty() || threat_modes.empty();
        for (const mac::Sid m : threat_modes) {
          if (std::find(hit->modes.begin(), hit->modes.end(), m) ==
              hit->modes.end()) {
            hit->modes.push_back(m);
          }
        }
        if (either_all) hit->modes.clear();
        continue;
      }

      DerivedRule rule;
      rule.id = threat.id.value + "/" + (any ? "*" : entry_point.value);
      rule.subject = subject;
      rule.object = object;
      rule.permission = threat.recommended_policy;
      rule.modes = threat_modes;
      rule.priority = priority;
      rule.rationale = threat.id.value;
      const threat::Asset* asset = model.find_asset(threat.asset);
      if (asset != nullptr) rule.rationale += " (" + asset->name + ")";
      rules_.push_back(std::move(rule));
    }
  }

  /// Reconstructs the string form of one derived rule (reverse lookups
  /// happen here, once per compilation — never on a decision path).
  [[nodiscard]] PolicyRule materialize(const DerivedRule& derived) const {
    PolicyRule rule;
    rule.id = derived.id;
    rule.subject = sids_.name_of(derived.subject);  // wildcard SID -> "*"
    rule.object = sids_.name_of(derived.object);
    rule.permission = derived.permission;
    rule.modes.reserve(derived.modes.size());
    for (const mac::Sid m : derived.modes) {
      rule.modes.push_back(threat::ModeId{std::string(sids_.name_of(m))});
    }
    rule.priority = derived.priority;
    rule.rationale = derived.rationale;
    return rule;
  }

  [[nodiscard]] PolicySet to_policy_set(const std::string& name,
                                        std::uint64_t version,
                                        bool default_allow) const {
    PolicySet out(name, version);
    out.set_default_allow(default_allow);
    for (const DerivedRule& derived : rules_) {
      out.add_rule(materialize(derived));
    }
    return out;
  }

 private:
  mac::SidTable sids_;
  mac::Sid wildcard_;
  std::vector<DerivedRule> rules_;
};

}  // namespace

PolicySet PolicyCompiler::compile(const threat::ThreatModel& model) const {
  Derivation derivation;
  for (const auto& threat : model.threats()) {
    derivation.emit_rules_for(threat, model, options_.base_priority);
  }
  return derivation.to_policy_set(options_.name, options_.version,
                                  options_.default_allow);
}

}  // namespace psme::core
