// psme::core — compiling a threat model into an enforceable policy set.
//
// This is the bridge the paper adds to the traditional flow (Fig. 1): the
// "Determine countermeasure" step emits policies instead of (or alongside)
// guidelines. For every threat, each of its entry points is restricted at
// the threatened asset to the permission the threat analysis recommends
// (Table I's Policy column), conditioned on the modes the threat applies
// in, with rule priority derived from the DREAD risk band.
//
// The derivation itself runs in SID space: entity and mode names are
// interned once up front and the least-privilege merging (permission
// intersection, mode union, priority max) happens on integer identities.
// compile() materialises the result as string rules; the fleet-deployable
// form is CompiledPolicyImage::from_policy_set over that set (or over the
// set merged with base grants, car::full_policy).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/policy.h"
#include "threat/threat_model.h"

namespace psme::core {

struct CompilerOptions {
  /// Name given to the produced policy set.
  std::string name = "derived";
  /// Version stamped on the produced set.
  std::uint64_t version = 1;
  /// If true, accesses not covered by any derived rule are allowed —
  /// useful when policing only the assets that appear in the threat model.
  bool default_allow = false;
  /// Base priority; per-rule priority = base + DREAD band weight, so rules
  /// countering riskier threats dominate on conflict.
  int base_priority = 0;
};

class PolicyCompiler {
 public:
  explicit PolicyCompiler(CompilerOptions options = {})
      : options_(std::move(options)) {}

  /// Derives one rule per (threat, entry point). Where several threats
  /// constrain the same (entry point, asset) pair in overlapping modes, the
  /// most restrictive permission (set intersection) is kept — least
  /// privilege requires honouring every constraint simultaneously.
  [[nodiscard]] PolicySet compile(const threat::ThreatModel& model) const;

  /// Priority contribution of a DREAD band (exposed for tests).
  [[nodiscard]] static int band_weight(threat::RiskBand band) noexcept;

 private:
  CompilerOptions options_;
};

/// Intersection of two permissions (most restrictive combination):
/// R ∩ RW = R, R ∩ W = none, RW ∩ RW = RW, anything ∩ none = none.
[[nodiscard]] constexpr Permission intersect(Permission a, Permission b) noexcept {
  const auto bits = static_cast<std::uint8_t>(a) & static_cast<std::uint8_t>(b);
  return static_cast<Permission>(bits);
}

}  // namespace psme::core
