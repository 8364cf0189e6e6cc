// The adversarial campaign engine under its own oracle: plan purity and
// replay determinism, the pinned out-of-scope catalogue, and per-family
// detection/denial properties at the three seeds CI pins
// (bench_attack_matrix uses the same trio).
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "attack/campaign.h"

namespace psme::attack {
namespace {

constexpr std::uint64_t kPinnedSeeds[] = {101, 202, 303};

// FNV-1a of run_all().to_json() at each pinned seed, taken while the
// control and attack worlds still ran one after the other: every world
// must simulate the same numbers whichever thread runs it.
constexpr std::uint64_t kPinnedReportHashes[] = {
    0xd24c5ab92fe89fc7ULL, 0xe52414ac0f5559e8ULL, 0x1a442a9ba96f52cdULL};

[[nodiscard]] std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] bool frames_equal(const can::Frame& a, const can::Frame& b) {
  if (a.id().raw() != b.id().raw() ||
      a.id().is_extended() != b.id().is_extended() || a.dlc() != b.dlc()) {
    return false;
  }
  for (std::uint8_t i = 0; i < a.dlc(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

TEST(CampaignPlan, ScenarioSeedsDistinctAndPinned) {
  CampaignOptions options;
  options.seed = 101;
  const CampaignPlan plan(options);

  std::set<std::uint64_t> seeds;
  for (const Family family : kAllFamilies) {
    for (std::uint32_t index = 0; index < 2; ++index) {
      seeds.insert(plan.scenario_seed(family, index));
    }
  }
  EXPECT_EQ(seeds.size(), kAllFamilies.size() * 2);

  // Cross-process replay pin: this exact value is also recorded in
  // BENCH_attack_matrix.json. If it moves, every recorded campaign seed
  // is invalidated — bump deliberately.
  EXPECT_EQ(plan.scenario_seed(Family::kNmImpersonation, 0),
            4500836222748331429ull);
}

TEST(CampaignPlan, StepsArePureSortedAndNonEmpty) {
  CampaignOptions options;
  options.seed = 202;
  const CampaignPlan plan(options);

  for (const Family family : kAllFamilies) {
    const std::vector<AttackStep> once = plan.steps(family, 1);
    const std::vector<AttackStep> twice = plan.steps(family, 1);

    if (family == Family::kOtaReplay || family == Family::kOtaCorrupt) {
      // OTA artefacts are blobs derived by the runner, not frames.
      EXPECT_TRUE(once.empty()) << to_string(family);
      continue;
    }
    EXPECT_FALSE(once.empty()) << to_string(family);
    ASSERT_EQ(once.size(), twice.size()) << to_string(family);
    for (std::size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(once[i].offset, twice[i].offset);
      EXPECT_TRUE(frames_equal(once[i].frame, twice[i].frame));
      if (i > 0) EXPECT_GE(once[i].offset, once[i - 1].offset);
    }
  }
}

TEST(CampaignPlan, IntensityScalesTrafficVolume) {
  CampaignOptions nominal;
  nominal.seed = 7;
  CampaignOptions half = nominal;
  half.intensity_permille = 500;

  const std::size_t full = CampaignPlan(nominal).steps(Family::kBusFlood, 0)
                               .size();
  const std::size_t reduced = CampaignPlan(half).steps(Family::kBusFlood, 0)
                                  .size();
  EXPECT_EQ(reduced * 2, full);
  EXPECT_GE(reduced, 1u);
}

TEST(CampaignOracle, OutOfScopeCatalogueIsPinned) {
  // The catalogue is a reviewed decision, not an emergent property:
  // exactly ONE family (the stealth mode-confusion variant's) carries a
  // rationale. Adding a family here must update this pin on purpose.
  for (const Family family : kAllFamilies) {
    EXPECT_EQ(out_of_scope_rationale(family).has_value(),
              family == Family::kModeConfusion)
        << to_string(family);
  }
  EXPECT_FALSE(out_of_scope_rationale(Family::kModeConfusion)->empty());
}

TEST(CampaignOracle, FailurePredicateCoversExactlySilentAndInert) {
  EXPECT_TRUE(verdict_is_failure(Verdict::kSilentSuccess));
  EXPECT_TRUE(verdict_is_failure(Verdict::kNoEffect));
  EXPECT_FALSE(verdict_is_failure(Verdict::kDenied));
  EXPECT_FALSE(verdict_is_failure(Verdict::kFlagged));
  EXPECT_FALSE(verdict_is_failure(Verdict::kDetectedHazard));
  EXPECT_FALSE(verdict_is_failure(Verdict::kOutOfScope));
}

/// The family-specific acceptance envelope. Wider than a single pinned
/// verdict on purpose: which of denial/detection lands first is a
/// legitimate function of the seed, but silent success or an inert
/// generator is never acceptable, and each family must produce the KIND
/// of evidence its defence layer owes.
void check_family_properties(const ScenarioReport& s) {
  SCOPED_TRACE(std::string(to_string(s.family)) + " idx " +
               std::to_string(s.index) + " seed " + std::to_string(s.seed));
  EXPECT_FALSE(verdict_is_failure(s.verdict));
  EXPECT_TRUE(s.denied > 0 || s.flagged > 0 || s.out_of_scope);
  EXPECT_GT(s.artefacts, 0u);

  const auto verdict_in = [&s](std::initializer_list<Verdict> allowed) {
    for (const Verdict v : allowed) {
      if (s.verdict == v) return true;
    }
    return false;
  };

  switch (s.family) {
    case Family::kNmImpersonation:
      // Victims re-assert (impersonations_detected) and the forged NM ids
      // die in the other stations' HPE read filters.
      EXPECT_GT(s.flagged, 0u);
      EXPECT_GT(s.denied, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kDetectedHazard}));
      break;
    case Family::kNmSleepAbuse:
      // Non-ready stations refuse the forged sleep.ack.
      EXPECT_GT(s.denied, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kDetectedHazard}));
      break;
    case Family::kNmLimpHomeForce:
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged,
                              Verdict::kDetectedHazard}));
      break;
    case Family::kDiagSessionHijack:
      // Sequence violations and locked writes earn negative responses;
      // no responder may end up unlocked without them.
      EXPECT_GT(s.denied, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kDetectedHazard}));
      break;
    case Family::kBusFlood:
      EXPECT_GT(s.denied, 0u);
      EXPECT_GT(s.flagged, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged,
                              Verdict::kDetectedHazard}));
      break;
    case Family::kTargetedFrameStorm:
      // The stormed id is legitimate, so detection must be rate-based.
      EXPECT_GT(s.flagged, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged,
                              Verdict::kDetectedHazard}));
      break;
    case Family::kFilterProbeSweep:
      // Every probe dies in filters AND trips the unknown-id detector.
      EXPECT_GT(s.denied, 0u);
      EXPECT_GT(s.flagged, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged}));
      break;
    case Family::kModeConfusion:
      if (s.index % 2 == 0) {
        // The stealth variant is the ONLY permitted out-of-scope outcome.
        EXPECT_EQ(s.verdict, Verdict::kOutOfScope);
        EXPECT_TRUE(s.out_of_scope);
        EXPECT_TRUE(s.hazard);
      } else {
        EXPECT_FALSE(s.out_of_scope);
        EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged,
                                Verdict::kDetectedHazard}));
      }
      break;
    case Family::kFrameFuzz:
      EXPECT_GT(s.denied, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kFlagged,
                              Verdict::kDetectedHazard}));
      break;
    case Family::kLateralMovement:
      // The segment gateway drops the control-domain spray.
      EXPECT_GT(s.denied, 0u);
      EXPECT_TRUE(verdict_in({Verdict::kDenied, Verdict::kDetectedHazard}));
      break;
    case Family::kOtaReplay:
    case Family::kOtaCorrupt:
      // Every adversarial artefact rejected, none applied.
      EXPECT_EQ(s.verdict, Verdict::kDenied);
      EXPECT_EQ(s.denied, s.artefacts);
      EXPECT_FALSE(s.hazard);
      break;
  }
}

TEST(CampaignOracle, PinnedSeedsNoSilentSuccess) {
  for (std::size_t s = 0; s < std::size(kPinnedSeeds); ++s) {
    const std::uint64_t seed = kPinnedSeeds[s];
    SCOPED_TRACE("campaign seed " + std::to_string(seed));
    CampaignOptions options;
    options.seed = seed;
    const CampaignRunner runner(options);
    const CampaignReport report = runner.run_all();

    EXPECT_EQ(fnv1a(report.to_json()), kPinnedReportHashes[s]);
    EXPECT_TRUE(report.oracle_passed());
    EXPECT_EQ(report.count(Verdict::kSilentSuccess), 0u);
    EXPECT_EQ(report.count(Verdict::kNoEffect), 0u);
    ASSERT_EQ(report.scenarios.size(), kAllFamilies.size() * 2);

    for (const ScenarioReport& scenario : report.scenarios) {
      check_family_properties(scenario);
      // The catalogue gate: out-of-scope may only ever be claimed by a
      // catalogued family.
      if (scenario.out_of_scope) {
        EXPECT_TRUE(out_of_scope_rationale(scenario.family).has_value());
      }
    }
  }
}

TEST(CampaignOracle, ReplayIsByteIdentical) {
  CampaignOptions options;
  options.seed = kPinnedSeeds[0];
  const CampaignRunner runner(options);
  const std::string first = runner.run_all().to_json();
  const std::string second = CampaignRunner(options).run_all().to_json();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"seed\":101"), std::string::npos);

  // Single-scenario replay: re-running one (family, index) cell stands
  // alone — exactly what a bug report based on a recorded seed needs.
  const ScenarioReport once = runner.run(Family::kNmImpersonation, 0);
  const ScenarioReport again = runner.run(Family::kNmImpersonation, 0);
  EXPECT_EQ(once.seed, again.seed);
  EXPECT_EQ(once.verdict, again.verdict);
  EXPECT_EQ(once.denied, again.denied);
  EXPECT_EQ(once.flagged, again.flagged);
  EXPECT_EQ(once.note, again.note);
}

TEST(CampaignOracle, DetectionHoldsWithoutQuarantine) {
  // The response layer off: the storm now lands (receivers adopt the
  // forged value) but detection must still catch it — degraded, never
  // silent.
  CampaignOptions options;
  options.seed = kPinnedSeeds[0];
  options.quarantine = false;
  const CampaignRunner runner(options);
  const ScenarioReport report =
      runner.run(Family::kTargetedFrameStorm, 0);
  EXPECT_FALSE(verdict_is_failure(report.verdict));
  EXPECT_GT(report.flagged, 0u);
  EXPECT_EQ(report.quarantine_isolations, 0u);
  EXPECT_EQ(report.quarantine_blocks, 0u);
}

}  // namespace
}  // namespace psme::attack
