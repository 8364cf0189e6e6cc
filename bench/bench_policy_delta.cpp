// The delta OTA channel priced: what does shipping a policy change cost
// on the wire as a fingerprint-anchored binary delta versus resending
// the full sealed blob — and what does a vehicle pay to APPLY the delta
// versus loading that full blob?
//
// Three canonical fleet changes are measured against the deployed
// connected-car policy (Table-I rules + base grants):
//   1-rule     the post-deployment quarantine rule (the paper's OTA
//              response scenario) appended at top priority;
//   10-rule    a ten-rule lockdown wave, two brand-new entity names
//              among them (the SID-prefix-extension path);
//   mode-only  one existing rule's mode condition widened — no rule
//              added or removed, a single patch op on the wire.
// For each: delta bytes vs full-blob bytes (the channel payload a fleet
// of millions multiplies), plus — for the 1-rule update — apply time vs
// full-blob load time to the first adjudicated decision, median of 9
// batch means (an external scheduling spike lands in one batch, not the
// result). Parity is verified in-run: every applied image must
// fingerprint-equal the directly compiled target and answer the full
// workload byte-identically (and the differential harness in
// tests/test_policy_delta.cpp pins this across 220 random policy pairs).
// Acceptance: the 1-rule delta is <= 10% of the full blob.
//
// Rejection cost: a truncated and a payload-corrupted copy of the 1-rule
// delta are refused through car::FleetBoot::try_apply_delta_update, which
// decides them at the delta's header gate, and through
// PolicyDeltaReader::apply caught by the caller, the C++ throw the gate
// replaces on the OTA path. The run exits 1 unless the gate is at least
// 5x cheaper than the throw for both damages (a ratio within one run, so
// the host's speed cancels out).
// A JSON record of the run is printed for BENCH_policy_delta.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "host_note.h"

using namespace psme;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double since_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

[[nodiscard]] double median(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

[[nodiscard]] core::Decision first_decision(
    const core::CompiledPolicyImage& image) {
  core::AccessRequest request{"ep.connectivity", "connectivity",
                              core::AccessType::kWrite,
                              threat::ModeId{"normal"}};
  return image.evaluate(image.resolve(request));
}

core::PolicySet clone_rules(const core::PolicySet& source, std::string name,
                            std::uint64_t version) {
  core::PolicySet clone(std::move(name), version);
  clone.set_default_allow(source.default_allow());
  for (const core::PolicyRule& rule : source.rules()) clone.add_rule(rule);
  return clone;
}

core::PolicyRule lockdown_rule(std::string id, std::string subject) {
  core::PolicyRule rule;
  rule.id = std::move(id);
  rule.subject = std::move(subject);
  rule.object = "*";
  rule.permission = threat::Permission::kNone;
  rule.priority = 1000;
  return rule;
}

/// Full-workload byte parity between the applied image and the direct
/// compile — the bench refuses to price a wrong result.
[[nodiscard]] bool parity(const core::CompiledPolicyImage& applied,
                          const core::CompiledPolicyImage& direct) {
  if (applied.fingerprint() != direct.fingerprint()) return false;
  for (const car::FleetCheck& check : car::default_fleet_checks()) {
    for (const char* mode : {"", "normal", "remote-diagnostic", "fail-safe"}) {
      const core::AccessRequest request{check.subject, check.object,
                                        check.access, threat::ModeId{mode}};
      const core::Decision a = applied.evaluate(applied.resolve(request));
      const core::Decision b = direct.evaluate(direct.resolve(request));
      if (a.allowed != b.allowed || a.rule_id != b.rule_id ||
          a.reason != b.reason) {
        return false;
      }
    }
  }
  return true;
}

struct Variant {
  Variant(const char* name_in, core::CompiledPolicyImage target_in)
      : name(name_in), target(std::move(target_in)) {}

  const char* name;
  core::CompiledPolicyImage target;
  std::vector<std::byte> delta;
  std::vector<std::byte> target_blob;
  core::PolicyDeltaStats stats;
};

}  // namespace

int main() {
  std::printf("=== Delta OTA channel: (base fingerprint, edit script) vs "
              "full policy blob ===\n\n");

  const core::PolicySet v1 =
      car::full_policy(car::connected_car_threat_model(), 1);
  const core::CompiledPolicyImage& base = v1.image();
  const std::vector<std::byte> base_blob = core::PolicyBlobWriter::write(base);

  // -- the three canonical changes ---------------------------------------
  core::PolicySet one_rule = clone_rules(v1, "car", 2);
  one_rule.add_rule(car::quarantine_rule());

  core::PolicySet ten_rule = clone_rules(v1, "car", 2);
  for (int i = 0; i < 10; ++i) {
    // Two of the wave's subjects are brand-new identities, so the delta
    // must also carry a SID-prefix extension.
    const std::string subject =
        i < 8 ? (i % 2 == 0 ? "ep.obd" : "ep.connectivity")
              : "ep.aftermarket" + std::to_string(i - 8);
    ten_rule.add_rule(
        lockdown_rule("lockdown" + std::to_string(i), subject));
  }

  core::PolicySet mode_only("car", 2);
  mode_only.set_default_allow(v1.default_allow());
  bool widened = false;
  for (const core::PolicyRule& rule : v1.rules()) {
    core::PolicyRule copy = rule;
    if (!widened && !copy.modes.empty()) {
      copy.modes.push_back(threat::ModeId{"fail-safe"});
      widened = true;
    }
    mode_only.add_rule(std::move(copy));
  }

  bool parity_ok = widened;
  std::vector<Variant> variants;
  for (auto [name, set] :
       {std::pair<const char*, core::PolicySet*>{"1-rule", &one_rule},
        {"10-rule", &ten_rule},
        {"mode-only", &mode_only}}) {
    Variant variant(
        name, core::CompiledPolicyImage::from_policy_set(
                  *set, core::replicate_sid_prefix(base.sids(),
                                                   base.sids().size())));
    variant.delta =
        core::PolicyDeltaWriter::write(base, variant.target, &variant.stats);
    variant.target_blob = core::PolicyBlobWriter::write(variant.target);
    const core::CompiledPolicyImage applied =
        core::PolicyDeltaReader::apply(base, variant.delta);
    if (!parity(applied, variant.target)) parity_ok = false;
    variants.push_back(std::move(variant));
  }

  std::printf("base: %zu rules, %zu bytes as a full blob\n\n",
              base.size(), base_blob.size());
  std::printf("%-10s %12s %12s %9s   %s\n", "change", "delta bytes",
              "blob bytes", "ratio", "edit script");
  for (const Variant& variant : variants) {
    std::printf("%-10s %12zu %12zu %8.1f%%   %u copied / %u added / "
                "%u removed / %u changed\n",
                variant.name, variant.delta.size(),
                variant.target_blob.size(),
                100.0 * static_cast<double>(variant.delta.size()) /
                    static_cast<double>(variant.target_blob.size()),
                variant.stats.copied, variant.stats.added,
                variant.stats.removed, variant.stats.changed);
  }

  // -- apply vs full-blob load, to the first decision --------------------
  // Timed per iteration: validate + apply the 1-rule delta against the
  // resident base image, versus validate + load the target's full blob;
  // both end at the first adjudicated decision. Teardown stays outside
  // the timed window on both paths.
  const Variant& canonical = variants.front();
  const core::Decision want = first_decision(canonical.target);
  const int batches = 9;
  const int batch = 640;

  std::vector<double> apply_batches;
  for (int b = 0; b < batches; ++b) {
    double total_us = 0.0;
    for (int i = 0; i < batch; ++i) {
      const auto start = Clock::now();
      const core::CompiledPolicyImage image =
          core::PolicyDeltaReader::apply(base, canonical.delta);
      const core::Decision got = first_decision(image);
      total_us += since_us(start);
      if (got.allowed != want.allowed || got.rule_id != want.rule_id) {
        parity_ok = false;
      }
    }
    apply_batches.push_back(total_us / batch);
  }
  const double apply_us = median(apply_batches);

  std::vector<double> load_batches;
  for (int b = 0; b < batches; ++b) {
    double total_us = 0.0;
    for (int i = 0; i < batch; ++i) {
      const auto start = Clock::now();
      const core::CompiledPolicyImage image =
          core::PolicyBlobReader::load(canonical.target_blob);
      const core::Decision got = first_decision(image);
      total_us += since_us(start);
      if (got.allowed != want.allowed || got.rule_id != want.rule_id) {
        parity_ok = false;
      }
    }
    load_batches.push_back(total_us / batch);
  }
  const double load_us = median(load_batches);

  // -- rejection cost: the header gate vs the throw ----------------------
  // One clock pair per batch: a gate refusal costs tens of ns, about what
  // a clock read does.
  car::FleetBoot boot(base_blob, car::default_fleet_checks());
  const std::vector<std::byte> truncated(canonical.delta.begin(),
                                         canonical.delta.end() - 1);
  std::vector<std::byte> corrupted = canonical.delta;
  corrupted.back() ^= std::byte{0xFF};
  const int reject_batch = 2000;
  bool refused_ok = true;
  const auto reject_ns = [&](const auto& refuse) {
    std::vector<double> means;
    for (int b = 0; b < batches; ++b) {
      const auto start = Clock::now();
      for (int i = 0; i < reject_batch; ++i) {
        if (!refuse()) refused_ok = false;
      }
      means.push_back(since_us(start) * 1e3 / reject_batch);
    }
    return median(means);
  };
  const auto gate_ns = [&](std::span<const std::byte> damaged) {
    return reject_ns([&] {
      return boot.try_apply_delta_update(damaged) ==
             car::UpdateResult::kValidationFailed;
    });
  };
  const auto throw_ns = [&](std::span<const std::byte> damaged) {
    return reject_ns([&] {
      try {
        (void)core::PolicyDeltaReader::apply(base, damaged);
      } catch (const core::PolicyDeltaError&) {
        return true;
      }
      return false;
    });
  };
  const double gate_truncated_ns = gate_ns(truncated);
  const double throw_truncated_ns = throw_ns(truncated);
  const double gate_corrupted_ns = gate_ns(corrupted);
  const double throw_corrupted_ns = throw_ns(corrupted);
  const double gate_speedup =
      std::min(throw_truncated_ns / gate_truncated_ns,
               throw_corrupted_ns / gate_corrupted_ns);
  const bool gate_ok = refused_ok && gate_speedup >= 5.0;

  const double one_rule_ratio =
      static_cast<double>(canonical.delta.size()) /
      static_cast<double>(canonical.target_blob.size());
  std::printf("\ndelta apply         %9.1f us  (validate anchor -> replay "
              "edit script -> first decision)\n",
              apply_us);
  std::printf("full blob load      %9.1f us  (validate -> reconstruct -> "
              "first decision)\n",
              load_us);
  std::printf("\nrefusing a damaged 1-rule delta (ns):   header gate   "
              "throw\n");
  std::printf("  truncated by one byte             %9.1f %9.1f\n",
              gate_truncated_ns, throw_truncated_ns);
  std::printf("  last payload byte flipped         %9.1f %9.1f\n",
              gate_corrupted_ns, throw_corrupted_ns);
  std::printf("gate at least %.1fx cheaper than the throw (target >= 5x) — "
              "%s\n",
              gate_speedup, gate_ok ? "met" : "MISSED");
  std::printf("\n1-rule delta payload: %.1f%% of the full blob "
              "(target <= 10%%) — %s; decision parity: %s\n\n",
              100.0 * one_rule_ratio,
              one_rule_ratio <= 0.10 ? "met" : "MISSED",
              parity_ok ? "byte-identical" : "MISMATCH");

  // Machine-readable record (BENCH_policy_delta.json).
  std::printf("JSON: {\"bench\":\"policy_delta\",\"unit\":\"bytes|us\",");
  benchhost::print_host_json();
  std::printf(",\"base_blob_bytes\":%zu,\"variants\":[", base_blob.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& variant = variants[i];
    std::printf("%s{\"change\":\"%s\",\"delta_bytes\":%zu,"
                "\"blob_bytes\":%zu,\"ratio\":%.3f}",
                i == 0 ? "" : ",", variant.name, variant.delta.size(),
                variant.target_blob.size(),
                static_cast<double>(variant.delta.size()) /
                    static_cast<double>(variant.target_blob.size()));
  }
  std::printf("],\"apply_us\":%.1f,\"load_us\":%.1f,"
              "\"reject_gate_ns\":{\"truncated\":%.1f,\"corrupted\":%.1f},"
              "\"reject_throw_ns\":{\"truncated\":%.1f,\"corrupted\":%.1f},"
              "\"gate_speedup\":%.1f,\"gate_ok\":%s,\"parity\":%s}\n",
              apply_us, load_us, gate_truncated_ns, gate_corrupted_ns,
              throw_truncated_ns, throw_corrupted_ns, gate_speedup,
              gate_ok ? "true" : "false", parity_ok ? "true" : "false");

  // Exit status gates PARITY (like bench_policy_blob: wrong decisions are
  // a defect anywhere) and the rejection-cost ratio; byte counts are
  // asserted in tests/test_policy_delta.cpp and recorded here.
  return parity_ok && gate_ok ? 0 : 1;
}
