// psme::attack — the adversarial attack-campaign engine.
//
// Table I (attack/scenarios.h) pins the paper's sixteen threats as
// hand-written scenarios. This module goes past the table: a seeded,
// composable GENERATOR of adversarial traffic campaigns — a pure function
// of (seed, family, index, intensity), in the style of sim::FaultPlan —
// covering protocol-level attack families the threat table does not
// enumerate: OSEK-NM ring abuse (impersonation, forged sleep.ack,
// phantom-ring starvation into limp home), diagnostic-session hijack,
// bus floods and targeted frame storms, acceptance-filter probing, frame
// fuzzing, mode confusion, cross-segment lateral movement, and
// replayed/corrupted OTA artefacts fed to car::FleetBoot.
//
// Every generated attack runs under a DIFFERENTIAL ORACLE, extending the
// seeded-pair idiom of tests/delta_oracle.h: the same world is built
// twice from the scenario seed — once without the attack schedule
// (control), once with it — and every piece of evidence is the
// attack-run counter minus the control-run counter, so it is
// attributable to the attack by construction. The oracle contract
// (DESIGN.md §12): each scenario must end
//
//   * DENIED  — enforcement refused it (HPE blocks, acceptance filters,
//               quarantine drops, bridge drops, negative diagnostic
//               responses, NM sleep refusals, OTA artefact rejections);
//   * FLAGGED — detection saw it (monitor alerts, NM impersonation /
//               starvation counters, quarantine events); or
//   * OUT OF SCOPE — the family is explicitly catalogued as beyond the
//               modelled defences (out_of_scope_rationale() is non-null).
//
// A hazard with none of the three is a SILENT SUCCESS and fails the
// oracle; so does a scenario producing no evidence at all (the generator
// must actually engage the system). bench_attack_matrix turns
// oracle_passed() into a CI exit status.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.h"
#include "sim/time.h"

namespace psme::attack {

/// The generated attack families (all beyond the Table I rows).
enum class Family : std::uint8_t {
  kNmImpersonation,    // forged NM frames under a victim ring address
  kNmSleepAbuse,       // forged sleep.ack while the vehicle is active
  kNmLimpHomeForce,    // phantom ring starving real members of the token
  kDiagSessionHijack,  // UDS security-access abuse + unauthorised writes
  kBusFlood,           // high-priority unknown-id saturation (DoS)
  kTargetedFrameStorm, // spoofed high-rate storms on one legitimate id
  kFilterProbeSweep,   // id-space sweep probing acceptance filters
  kModeConfusion,      // forged mode-change broadcasts
  kFrameFuzz,          // seeded random frames across the id space
  kLateralMovement,    // telematics-segment foothold attacking control
  kOtaReplay,          // replayed stale policy blobs / deltas
  kOtaCorrupt,         // bit-flipped / truncated policy artefacts
};

inline constexpr std::array<Family, 12> kAllFamilies = {
    Family::kNmImpersonation,    Family::kNmSleepAbuse,
    Family::kNmLimpHomeForce,    Family::kDiagSessionHijack,
    Family::kBusFlood,           Family::kTargetedFrameStorm,
    Family::kFilterProbeSweep,   Family::kModeConfusion,
    Family::kFrameFuzz,          Family::kLateralMovement,
    Family::kOtaReplay,          Family::kOtaCorrupt,
};

[[nodiscard]] std::string_view to_string(Family family) noexcept;

/// The explicit out-of-policy-scope catalogue. Non-null ONLY for families
/// whose hazard the modelled defences cannot attribute: currently the
/// STEALTH variant of mode confusion (a single forged mode-change frame
/// is indistinguishable, at id granularity, from the gateway's own
/// broadcast — countering it needs sender authentication, which the
/// paper's HPE explicitly does not provide). The catalogue is test-pinned:
/// adding a family here must be a deliberate, reviewed decision.
[[nodiscard]] std::optional<std::string_view> out_of_scope_rationale(
    Family family) noexcept;

/// How one scenario resolved under the oracle.
enum class Verdict : std::uint8_t {
  kDenied,         // no hazard; enforcement-side evidence
  kFlagged,        // no hazard; detection-side evidence only
  kDetectedHazard, // hazard occurred but was flagged (or at least denied)
  kOutOfScope,     // hazard occurred; family is catalogued out of scope
  kSilentSuccess,  // hazard with no evidence and no catalogue entry: FAIL
  kNoEffect,       // no hazard, no evidence: generator failed to engage
};

[[nodiscard]] std::string_view to_string(Verdict verdict) noexcept;

/// Oracle failure = the campaign must not ship.
[[nodiscard]] constexpr bool verdict_is_failure(Verdict verdict) noexcept {
  return verdict == Verdict::kSilentSuccess || verdict == Verdict::kNoEffect;
}

struct CampaignOptions {
  std::uint64_t seed = 11;
  /// Scenario variants generated per family.
  std::uint32_t scenarios_per_family = 2;
  /// Scales the traffic volume of flood/storm/fuzz schedules (permille,
  /// 1000 = nominal). Integral so reports stay byte-stable.
  std::uint32_t intensity_permille = 1000;
  /// Run the car::QuarantineController response layer in bus worlds.
  bool quarantine = true;
};

/// One scheduled attack artefact: a frame injected `offset` after the
/// attack window opens.
struct AttackStep {
  sim::SimDuration offset{};
  can::Frame frame;
};

/// The pure generator: seeds and frame schedules as a function of
/// (campaign seed, family, index). No simulation state.
class CampaignPlan {
 public:
  explicit CampaignPlan(CampaignOptions options = {});

  [[nodiscard]] const CampaignOptions& options() const noexcept {
    return options_;
  }

  /// Per-scenario seed: sim::mix3(campaign seed, family salt, index).
  /// Recorded in every report — replaying a single scenario needs only
  /// this value.
  [[nodiscard]] std::uint64_t scenario_seed(Family family,
                                            std::uint32_t index) const noexcept;

  /// The attack traffic schedule, sorted by offset. Empty for the OTA
  /// families (their artefacts are blobs, not frames; the runner derives
  /// them from the same scenario seed).
  [[nodiscard]] std::vector<AttackStep> steps(Family family,
                                              std::uint32_t index) const;

 private:
  CampaignOptions options_;
};

/// One scenario's oracle outcome. All evidence fields are DELTAS
/// (attack run minus control run).
struct ScenarioReport {
  Family family = Family::kNmImpersonation;
  std::uint32_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t artefacts = 0;  // frames scheduled / OTA images offered
  bool hazard = false;
  std::uint64_t denied = 0;
  std::uint64_t flagged = 0;
  bool out_of_scope = false;
  Verdict verdict = Verdict::kNoEffect;
  std::uint64_t quarantine_blocks = 0;
  std::uint64_t quarantine_isolations = 0;
  std::uint64_t quarantine_escalations = 0;
  std::string note;  // family-specific observable, human-oriented
};

struct CampaignReport {
  std::uint64_t seed = 0;
  std::uint32_t scenarios_per_family = 0;
  std::vector<ScenarioReport> scenarios;

  [[nodiscard]] std::size_t count(Verdict verdict) const noexcept;
  /// True when no scenario ended kSilentSuccess or kNoEffect.
  [[nodiscard]] bool oracle_passed() const noexcept;
  /// Canonical serialisation — integers, booleans and fixed strings in a
  /// fixed order, so the same seed yields byte-identical reports across
  /// runs (the replay determinism contract, pinned by tests).
  [[nodiscard]] std::string to_json() const;
};

/// Builds the differential world pair for each scenario and applies the
/// oracle. Stateless between runs: every run() constructs fresh worlds,
/// so run() may be called from several threads at once.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  [[nodiscard]] const CampaignPlan& plan() const noexcept { return plan_; }

  /// Runs one scenario (control + attack worlds) and applies the oracle.
  /// A bus-world or lateral-movement scenario starts one thread, which
  /// runs the control world while the caller's thread runs the attack
  /// world; the report is byte-identical to running them one after the
  /// other (DESIGN.md §3). An exception from either world reaches the
  /// caller: the control world's through the future's get(), the attack
  /// world's once the future's destructor has waited for the control
  /// world, so run() never leaves while that world still runs.
  [[nodiscard]] ScenarioReport run(Family family, std::uint32_t index) const;

  /// Runs every family × scenarios_per_family, in enum order.
  [[nodiscard]] CampaignReport run_all() const;

 private:
  CampaignPlan plan_;
};

}  // namespace psme::attack
