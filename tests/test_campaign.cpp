// Fault-injection tests for fleet OTA campaigns (car/campaign.h).
//
// The fault model is sim/fault_plan.h — drops, truncations, byte
// corruption, stalls, dark vehicles, power loss between validate and
// commit — and every test here is deterministic from fixed seeds: the
// fault plan is a pure function of (seed, vehicle, attempt), so a
// failing seed replays bit-identically. Headline invariants:
//
//  * CONVERGENCE: a version-skewed fleet converges onto the target
//    under a mixed fault profile, with ZERO corrupt sealed stores —
//    injected damage may delay a vehicle, never corrupt it. Pinned at
//    three seeds plus one acceptance-scale (10^5-vehicle) run.
//  * POWER LOSS: a vehicle cut between validate and commit reboots on
//    its OLD sealed blob via FleetBoot — never a half-applied image.
//  * HALT + ROLLBACK: a poisoned (deny-storm) target trips the canary
//    wave's health gate; the campaign halts before wave two and rolls
//    the canary cohort back to the predecessor's content. A rerun
//    leaves the rolled-back vehicles, now past the target, alone.
//  * SHARED ARTEFACTS: a clean delivery hands back the server's own
//    buffer and damage builds a buffer of its own, so no fault reaches
//    the artefact the fleet is served; committed vehicles share the
//    server's sealed blob.
//  * GOLDEN: one hash over four whole campaigns (reports, every
//    vehicle's record and sealed-store bytes, injection counters), and
//    one per campaign whose vehicles fail out at a wave deadline.
//  * CALL ORDER: transport decisions depend on (vehicle, attempt), not
//    on the order of calls across vehicles — what lets a wave walk one
//    vehicle at a time.
//  * AUDIT: the post-campaign audit counts every vehicle whose sealed
//    store is missing, fails its probe, disagrees with the vehicle's
//    record or was never released — per vehicle, even where vehicles
//    share one bad store.
//  * TAXONOMY: FleetBoot::try_apply_* classifies rejections
//    (rollback-refused / validation-failed / fingerprint-mismatch /
//    anchor-mismatch) without string matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "car/campaign.h"
#include "car/fleet_boot.h"
#include "car/update_transport.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "sim/fault_plan.h"

namespace psme {
namespace {

using car::CampaignConfig;
using car::CampaignReport;
using car::CampaignServer;
using car::CampaignStatus;
using car::CampaignVehicle;
using car::FaultyTransport;
using car::FleetCheck;
using car::PerfectTransport;
using car::UpdateChannel;
using car::UpdateResult;
using car::VehicleState;
using core::CompiledPolicyImage;
using core::PolicyBlobReader;
using core::PolicyBlobWriter;
using core::PolicyDeltaWriter;
using core::PolicyRule;
using core::PolicySet;
using sim::FaultPlan;
using sim::FaultProfile;

PolicyRule allow_rule(std::string id, std::string subject, std::string object,
                      threat::Permission permission, int priority = 0) {
  PolicyRule rule;
  rule.id = std::move(id);
  rule.subject = std::move(subject);
  rule.object = std::move(object);
  rule.permission = permission;
  rule.priority = priority;
  return rule;
}

/// A handcrafted release lineage with fully controlled probe behaviour:
/// deny-by-default, a stable allow core, and one more generation rule
/// per release (so every delta is non-trivial). Every version
/// ALLOWS the whole health probe below — baseline probe denials are 0.
std::vector<PolicySet> fleet_lineage(std::size_t length) {
  std::vector<PolicySet> lineage;
  lineage.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    PolicySet set("fleet-v" + std::to_string(i + 1), i + 1);
    set.set_default_allow(false);
    set.add_rule(allow_rule("obd-log", "ep.obd", "asset.log",
                            threat::Permission::kRead));
    set.add_rule(allow_rule("tcu-fw", "ep.tcu", "asset.fw",
                            threat::Permission::kReadWrite));
    for (std::size_t gen = 0; gen <= i; ++gen) {
      set.add_rule(allow_rule("gen" + std::to_string(gen), "ecu.brake",
                              "asset.gen" + std::to_string(gen),
                              threat::Permission::kRead));
    }
    lineage.push_back(std::move(set));
  }
  return lineage;
}

/// A poisoned target: the predecessor's successor version whose content
/// denies everything (an explicit deny-all at top priority) — the
/// deny-storm policy the canary gate must catch.
PolicySet deny_storm_after(const PolicySet& prev) {
  PolicySet storm("deny-storm", prev.version() + 1);
  storm.set_default_allow(false);
  storm.add_rule(allow_rule("storm", "*", "*", threat::Permission::kNone,
                            /*priority=*/100));
  return storm;
}

std::vector<FleetCheck> probe_checks() {
  return {
      {"ep.obd", "asset.log", core::AccessType::kRead},
      {"ep.tcu", "asset.fw", core::AccessType::kWrite},
      {"ecu.brake", "asset.gen0", core::AccessType::kRead},
  };
}

CampaignConfig test_config() {
  CampaignConfig config;
  config.canary_fraction = 0.02;
  config.wave_fractions = {0.20, 1.0};
  config.health_probe = probe_checks();
  return config;
}

void expect_zero_corruption(const CampaignReport& report) {
  EXPECT_EQ(report.corrupt_images, 0u)
      << "injected faults must never corrupt a sealed store";
}

/// FNV-1a over everything a campaign leaves behind: every report field
/// (per-wave stats included), each vehicle's state, counters and
/// sealed-store bytes, and the transport's injection counters.
class CampaignHash {
 public:
  void add(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<std::uint8_t>(value >> shift));
    }
  }
  void add_real(double value) { add(std::bit_cast<std::uint64_t>(value)); }

  void add_report(const CampaignReport& report) {
    add(static_cast<std::uint64_t>(report.status));
    add(report.target_version);
    add(report.target_fingerprint);
    add(report.waves.size());
    for (const car::WaveStats& wave : report.waves) {
      for (const std::uint64_t v :
           {std::uint64_t{wave.wave}, std::uint64_t{wave.size},
            std::uint64_t{wave.committed}, std::uint64_t{wave.failed},
            std::uint64_t{wave.dark}, wave.retries, wave.ticks}) {
        add(v);
      }
      add_real(wave.commit_fraction);
      add_real(wave.healthy_fraction);
      add(wave.gate_passed);
    }
    for (const std::uint64_t v :
         {report.ticks, report.retries, report.power_loss_reboots,
          report.blob_fallbacks, report.delta_bytes_shipped,
          report.blob_bytes_shipped, report.full_blob_bytes_baseline,
          std::uint64_t{report.healthy}, std::uint64_t{report.failed},
          std::uint64_t{report.dark}, std::uint64_t{report.untouched},
          std::uint64_t{report.corrupt_images},
          std::uint64_t{report.rolled_back},
          std::uint64_t{report.rolled_back_vehicles}, report.rollback_version,
          report.rollback_fingerprint}) {
      add(v);
    }
  }

  void add_fleet(const std::vector<CampaignVehicle>& fleet) {
    add(fleet.size());
    for (const CampaignVehicle& vehicle : fleet) {
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(vehicle.state),
            static_cast<std::uint64_t>(vehicle.channel),
            static_cast<std::uint64_t>(vehicle.last_result), vehicle.version,
            vehicle.fingerprint, std::uint64_t{vehicle.attempts},
            std::uint64_t{vehicle.tries}, std::uint64_t{vehicle.delta_failures},
            std::uint64_t{vehicle.power_losses}}) {
        add(v);
      }
      if (!vehicle.sealed_blob) {
        add(~std::uint64_t{0});
        continue;
      }
      add(vehicle.sealed_blob->size());
      for (const std::byte b : *vehicle.sealed_blob) {
        byte(std::to_integer<std::uint8_t>(b));
      }
    }
  }

  void add_counters(const FaultyTransport::Counters& counters) {
    for (const std::uint64_t v :
         {counters.sent, counters.delivered_clean, counters.dropped,
          counters.truncated, counters.corrupted, counters.stalled,
          counters.dark, counters.bytes_sent}) {
      add(v);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  void byte(std::uint8_t b) {
    state_ = (state_ ^ b) * 0x100000001B3ULL;
  }
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

TEST(CampaignConvergence, ThreePinnedSeedsMixedFaults) {
  CampaignServer server(fleet_lineage(7), test_config());
  for (const std::uint64_t seed :
       {0xA11CE5EEDULL, 0xB0B5EED02ULL, 0xC0FFEE503ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<CampaignVehicle> fleet = server.make_fleet(2000, seed);
    FaultyTransport transport{FaultPlan(seed, FaultProfile::mixed(0.05))};
    const CampaignReport report = server.run(fleet, transport);

    EXPECT_EQ(report.status, CampaignStatus::kConverged);
    expect_zero_corruption(report);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.healthy + report.dark, fleet.size());
    EXPECT_GT(report.retries, 0u) << "faults were injected; retries must show";
    for (const auto& wave : report.waves) {
      EXPECT_TRUE(wave.gate_passed);
    }
    const auto& counters = transport.counters();
    EXPECT_GT(counters.dropped + counters.truncated + counters.corrupted +
                  counters.stalled,
              0u);
    for (const CampaignVehicle& vehicle : fleet) {
      if (vehicle.state == VehicleState::kDark) {
        continue;  // unreachable; still on some released version
      }
      EXPECT_EQ(vehicle.state, VehicleState::kHealthy);
      EXPECT_EQ(vehicle.fingerprint, report.target_fingerprint);
      EXPECT_EQ(vehicle.version, report.target_version);
    }
  }
}

TEST(CampaignConvergence, AcceptanceScaleHundredThousandVehicles) {
  CampaignServer server(fleet_lineage(7), test_config());
  std::vector<CampaignVehicle> fleet =
      server.make_fleet(100000, 0xF1EE75EEDULL);
  FaultyTransport transport{FaultPlan(0xACCE9717ULL, FaultProfile::mixed(0.01))};
  const CampaignReport report = server.run(fleet, transport);

  EXPECT_EQ(report.status, CampaignStatus::kConverged);
  expect_zero_corruption(report);
  EXPECT_EQ(report.healthy + report.dark + report.failed, fleet.size());
  EXPECT_EQ(report.failed, 0u);
  // The base->target delta plan must beat naive full-blob distribution.
  EXPECT_GT(report.full_blob_bytes_baseline, 0u);
  EXPECT_LT(report.delta_bytes_shipped + report.blob_bytes_shipped,
            report.full_blob_bytes_baseline);
}

TEST(CampaignPowerLoss, RebootsOnOldSealedBlobNeverHalfApplied) {
  CampaignServer server(fleet_lineage(5), test_config());
  std::vector<CampaignVehicle> fleet = server.make_fleet(64, 0x9055EEDULL);
  const std::vector<std::uint64_t> versions_before = [&] {
    std::vector<std::uint64_t> v;
    for (const auto& vehicle : fleet) v.push_back(vehicle.version);
    return v;
  }();

  FaultProfile always_power_loss;
  always_power_loss.power_loss = 1.0;  // every commit attempt is cut
  FaultyTransport transport{FaultPlan(0xDEAD9077ULL, always_power_loss)};
  const CampaignReport report = server.run(fleet, transport);

  // No vehicle can ever commit: the campaign halts on the canary gate's
  // commit floor and there is nothing to roll back.
  EXPECT_EQ(report.status, CampaignStatus::kHalted);
  EXPECT_GT(report.power_loss_reboots, 0u);
  EXPECT_EQ(report.rolled_back_vehicles, 0u);
  expect_zero_corruption(report);

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const CampaignVehicle& vehicle = fleet[i];
    EXPECT_EQ(vehicle.version, versions_before[i])
        << "a power-cut vehicle must stay on its old version";
    // The reboot path: FleetBoot from the sealed store must come up on
    // the OLD image, fully functional — never a half-applied hybrid.
    car::FleetBoot boot(*vehicle.sealed_blob, probe_checks());
    EXPECT_EQ(boot.image().version(), versions_before[i]);
    EXPECT_EQ(boot.image().fingerprint(), vehicle.fingerprint);
  }
}

TEST(CampaignHalt, PoisonedCanaryHaltsBeforeWaveTwoAndRollsBack) {
  std::vector<PolicySet> lineage = fleet_lineage(4);
  lineage.push_back(deny_storm_after(lineage.back()));
  const std::uint64_t storm_version = lineage.back().version();
  CampaignServer server(std::move(lineage), test_config());

  std::vector<CampaignVehicle> fleet = server.make_fleet(500, 0x57028A1ULL);
  PerfectTransport transport;  // isolate the health gate: no faults
  const CampaignReport report = server.run(fleet, transport);

  ASSERT_EQ(report.waves.size(), 1u) << "must halt before wave two";
  EXPECT_FALSE(report.waves[0].gate_passed);
  EXPECT_EQ(report.waves[0].healthy_fraction, 0.0);
  EXPECT_EQ(report.status, CampaignStatus::kHalted);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(report.rolled_back_vehicles, report.waves[0].committed);
  EXPECT_GT(report.rolled_back_vehicles, 0u);
  EXPECT_EQ(report.rollback_version, storm_version + 1);
  expect_zero_corruption(report);

  std::size_t on_rollback = 0;
  for (const CampaignVehicle& vehicle : fleet) {
    EXPECT_NE(vehicle.fingerprint, report.target_fingerprint)
        << "no vehicle may be left on the poisoned policy";
    if (vehicle.fingerprint == report.rollback_fingerprint) {
      ++on_rollback;
      EXPECT_EQ(vehicle.version, report.rollback_version);
      // Rollback is CONTENT rollback: the re-shipped image answers the
      // probe like the healthy predecessor, not like the storm.
      const CompiledPolicyImage image =
          PolicyBlobReader::load(*vehicle.sealed_blob);
      for (const FleetCheck& check : probe_checks()) {
        const core::SidRequest request = image.resolve(core::AccessRequest{
            check.subject, check.object, check.access, threat::ModeId{}});
        EXPECT_TRUE(image.evaluate(request).allowed);
      }
    }
  }
  EXPECT_EQ(on_rollback, report.rolled_back_vehicles);
}

TEST(CampaignHalt, RerunLeavesRolledBackVehiclesAlone) {
  std::vector<PolicySet> lineage = fleet_lineage(4);
  lineage.push_back(deny_storm_after(lineage.back()));
  CampaignServer server(std::move(lineage), test_config());
  std::vector<CampaignVehicle> fleet = server.make_fleet(500, 0x57028A1ULL);
  PerfectTransport transport;
  const CampaignReport first = server.run(fleet, transport);
  ASSERT_GT(first.rolled_back_vehicles, 0u);

  // The rolled-back canaries now sit one version PAST the storm target.
  const std::vector<CampaignVehicle> before = fleet;
  const CampaignReport rerun = server.run(fleet, transport);
  EXPECT_EQ(rerun.untouched, first.rolled_back_vehicles)
      << "vehicles at or past the target are not eligible";

  const auto target_blob = server.blob_at(server.lineage_size() - 1);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (before[i].version != first.rollback_version) {
      continue;
    }
    ++checked;
    SCOPED_TRACE("vehicle " + std::to_string(i));
    EXPECT_EQ(fleet[i].version, before[i].version);
    EXPECT_EQ(fleet[i].sealed_blob, before[i].sealed_blob);
    EXPECT_EQ(fleet[i].attempts, before[i].attempts)
        << "a vehicle past the target must not be offered the target";
    // The same refusal FleetBoot makes on the vehicle itself.
    car::FleetBoot boot(*fleet[i].sealed_blob, probe_checks());
    EXPECT_EQ(boot.try_apply_update(*target_blob),
              UpdateResult::kRollbackRefused);
  }
  EXPECT_EQ(checked, first.rolled_back_vehicles);
}

TEST(CampaignDeterminism, IdenticalSeedsReplayBitIdentically) {
  const std::uint64_t fleet_seed = 0x5A5A5A5AULL;
  const std::uint64_t fault_seed = 0x1BADB002ULL;
  const auto run_once = [&](CampaignReport& report,
                            std::vector<CampaignVehicle>& fleet) {
    CampaignServer server(fleet_lineage(6), test_config());
    fleet = server.make_fleet(1500, fleet_seed);
    FaultyTransport transport{FaultPlan(fault_seed, FaultProfile::mixed(0.04))};
    report = server.run(fleet, transport);
  };
  CampaignReport first, second;
  std::vector<CampaignVehicle> fleet_a, fleet_b;
  run_once(first, fleet_a);
  run_once(second, fleet_b);

  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.ticks, second.ticks);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.power_loss_reboots, second.power_loss_reboots);
  EXPECT_EQ(first.blob_fallbacks, second.blob_fallbacks);
  EXPECT_EQ(first.delta_bytes_shipped, second.delta_bytes_shipped);
  EXPECT_EQ(first.blob_bytes_shipped, second.blob_bytes_shipped);
  EXPECT_EQ(first.healthy, second.healthy);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.dark, second.dark);
  ASSERT_EQ(first.waves.size(), second.waves.size());
  for (std::size_t w = 0; w < first.waves.size(); ++w) {
    EXPECT_EQ(first.waves[w].committed, second.waves[w].committed);
    EXPECT_EQ(first.waves[w].retries, second.waves[w].retries);
    EXPECT_EQ(first.waves[w].ticks, second.waves[w].ticks);
  }
  ASSERT_EQ(fleet_a.size(), fleet_b.size());
  for (std::size_t i = 0; i < fleet_a.size(); ++i) {
    EXPECT_EQ(fleet_a[i].fingerprint, fleet_b[i].fingerprint);
    EXPECT_EQ(fleet_a[i].state, fleet_b[i].state);
    EXPECT_EQ(fleet_a[i].attempts, fleet_b[i].attempts);
  }
}

// One hash over four campaigns: two seeds at 5% mixed faults, the
// heavy-corruption blob-fallback run and the deny-storm halt + rollback
// drill (here behind a 25% mixed-fault link, so the canary wave and the
// rollback both retry). A change meant to move no simulated number must
// leave this hash as it is.
TEST(CampaignGolden, FourCampaignsMatchPinnedHash) {
  CampaignHash hash;
  const auto run = [&hash](CampaignServer& server, std::size_t fleet_size,
                           std::uint64_t fleet_seed, std::uint64_t fault_seed,
                           const FaultProfile& profile) {
    std::vector<CampaignVehicle> fleet =
        server.make_fleet(fleet_size, fleet_seed);
    FaultyTransport transport{FaultPlan(fault_seed, profile)};
    hash.add_report(server.run(fleet, transport));
    hash.add_fleet(fleet);
    hash.add_counters(transport.counters());
  };

  CampaignServer mixed(fleet_lineage(7), test_config());
  for (const std::uint64_t seed : {0xA11CE5EEDULL, 0xB0B5EED02ULL}) {
    run(mixed, 2000, seed, seed, FaultProfile::mixed(0.05));
  }

  CampaignConfig fallback_config = test_config();
  fallback_config.blob_fallback_after = 2;
  fallback_config.max_tries = 16;
  CampaignServer fallback(fleet_lineage(6), fallback_config);
  FaultProfile heavy_corruption;
  heavy_corruption.corrupt = 0.6;
  run(fallback, 200, 0xFA11BAC2ULL, 0xC0221977ULL, heavy_corruption);

  std::vector<PolicySet> poisoned = fleet_lineage(4);
  poisoned.push_back(deny_storm_after(poisoned.back()));
  CampaignServer storm(std::move(poisoned), test_config());
  run(storm, 500, 0x57028A1ULL, 0x5708F417ULL, FaultProfile::mixed(0.25));

  EXPECT_EQ(hash.value(), 0xB318F2D93E4672FFULL);
}

// Campaigns whose retry budget outlasts the wave window, so vehicles
// fail out at their wave's deadline: every send dropped (the canary
// fails out at tick 4,096 and the campaign halts), 90% of sends dropped
// (every wave runs, some vehicles fail out and the campaign stalls), and
// every send dropped with the whole fleet in the canary (300 vehicles
// reach the deadline mid-flight, and some act on the deadline tick
// itself). Most of their ticks are spent waiting out backoffs and
// download timeouts. Pinned before a campaign walked each vehicle to the
// end of its wave in one visit; that walk must keep every hash.
TEST(CampaignGolden, WaveDeadlineCampaignsMatchPinnedHashes) {
  const auto run = [](double drop, double canary_fraction) {
    CampaignConfig config = test_config();
    config.max_tries = 1000;
    config.canary_fraction = canary_fraction;
    CampaignServer server(fleet_lineage(5), config);
    std::vector<CampaignVehicle> fleet = server.make_fleet(300, 0xDEAD11E5ULL);
    FaultProfile profile;
    profile.drop = drop;
    profile.power_loss = 0.3;
    FaultyTransport transport{FaultPlan(0x7105EULL, profile)};
    const CampaignReport report = server.run(fleet, transport);
    CampaignHash hash;
    hash.add_report(report);
    hash.add_fleet(fleet);
    hash.add_counters(transport.counters());
    return std::pair{report, hash.value()};
  };

  const auto [dropped, dropped_hash] = run(1.0, 0.02);
  EXPECT_EQ(dropped.status, CampaignStatus::kHalted);
  ASSERT_EQ(dropped.waves.size(), 1u);
  EXPECT_EQ(dropped.waves[0].ticks, 4096u);
  EXPECT_EQ(dropped.waves[0].failed, dropped.waves[0].size);
  EXPECT_EQ(dropped_hash, 0x4499FB0C85F13A59ULL);

  const auto [lossy, lossy_hash] = run(0.9, 0.02);
  EXPECT_EQ(lossy.status, CampaignStatus::kStalled);
  ASSERT_EQ(lossy.waves.size(), 3u);
  std::size_t at_deadline = 0;
  for (const car::WaveStats& wave : lossy.waves) {
    EXPECT_TRUE(wave.gate_passed);
    at_deadline += wave.ticks == 4096 ? 1 : 0;
  }
  EXPECT_GT(at_deadline, 0u);
  EXPECT_GT(lossy.failed, 0u);
  EXPECT_EQ(lossy_hash, 0xDC3298DDC8540CD6ULL);

  const auto [whole, whole_hash] = run(1.0, 1.0);
  EXPECT_EQ(whole.status, CampaignStatus::kHalted);
  EXPECT_EQ(whole.failed, 300u);
  EXPECT_EQ(whole.ticks, 4096u);
  EXPECT_EQ(whole_hash, 0x9F62D29C9B00701CULL);
}

// Per-attempt state lives in the campaign's visit, not in the record, so
// a fleet pass touches one cache line per vehicle.
TEST(CampaignVehicleRecord, FitsInSixtyFourBytes) {
  EXPECT_LE(sizeof(CampaignVehicle), 64u);
}

TEST(CampaignPlanning, DeltaPreferredAndSmallerThanBlob) {
  CampaignServer server(fleet_lineage(7), test_config());
  const std::size_t last = server.lineage_size() - 1;
  const CampaignServer::Artefact plan =
      server.plan_for(server.image_at(0).version());
  ASSERT_EQ(plan.channel, UpdateChannel::kDelta);
  EXPECT_LT(plan.bytes->size(), server.blob_at(last)->size());
  EXPECT_EQ(server.plan_blob_fallbacks(), 0u);
  // A delta-channel commit installs the shared target blob, so the
  // planned delta must rebuild exactly that blob's image.
  const CompiledPolicyImage applied =
      core::PolicyDeltaReader::apply(server.image_at(0), *plan.bytes);
  EXPECT_EQ(PolicyBlobWriter::write(applied), *server.blob_at(last));

  // An unknown base version (a vehicle older than the lineage the
  // server holds) falls back to the blob.
  const CampaignServer::Artefact unknown = server.plan_for(0xDEADULL);
  EXPECT_EQ(unknown.channel, UpdateChannel::kBlob);
  EXPECT_EQ(server.plan_blob_fallbacks(), 1u);
}

TEST(CampaignServer, RejectsInvalidLineageAndFractions) {
  EXPECT_THROW(CampaignServer({}, test_config()), std::invalid_argument);
  std::vector<PolicySet> unordered = fleet_lineage(3);
  unordered[2].set_version(unordered[1].version());
  EXPECT_THROW(CampaignServer(unordered, test_config()),
               std::invalid_argument);

  for (const double canary : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("canary fraction " + std::to_string(canary));
    CampaignConfig config = test_config();
    config.canary_fraction = canary;
    EXPECT_THROW(CampaignServer(fleet_lineage(3), config),
                 std::invalid_argument);
  }
  CampaignConfig negative_wave = test_config();
  negative_wave.wave_fractions = {0.20, -0.1, 1.0};
  EXPECT_THROW(CampaignServer(fleet_lineage(3), negative_wave),
               std::invalid_argument);

  // Fractions above 1 are clamped by design, not rejected: the canary
  // wave takes the whole fleet.
  CampaignConfig oversized = test_config();
  oversized.canary_fraction = 2.0;
  oversized.wave_fractions = {1e300};
  CampaignServer server(fleet_lineage(3), oversized);
  std::vector<CampaignVehicle> fleet = server.make_fleet(50, 7);
  PerfectTransport transport;
  const CampaignReport report = server.run(fleet, transport);
  EXPECT_EQ(report.status, CampaignStatus::kConverged);
  ASSERT_EQ(report.waves.size(), 1u);
  EXPECT_EQ(report.waves[0].size, 50u);
}

TEST(CampaignServer, RunRejectsFleetWhoseIdsAreNotPositions) {
  CampaignServer server(fleet_lineage(3), test_config());
  std::vector<CampaignVehicle> fleet = server.make_fleet(10, 1);
  // Every remaining id is one past its position; the last one is past
  // the end of the fleet.
  fleet.erase(fleet.begin());
  fleet.shrink_to_fit();
  PerfectTransport transport;
  EXPECT_THROW((void)server.run(fleet, transport), std::invalid_argument);
  for (const CampaignVehicle& vehicle : fleet) {
    EXPECT_EQ(vehicle.state, VehicleState::kIdle)
        << "a rejected fleet must be left untouched";
  }
}

TEST(CampaignAudit, CountsEveryVehicleWhoseStoreIsBad) {
  CampaignServer server(fleet_lineage(4), test_config());
  const std::size_t last = server.lineage_size() - 1;
  const CompiledPolicyImage& target = server.target_image();
  const auto target_blob = server.blob_at(last);

  auto flipped = std::make_shared<std::vector<std::byte>>(*target_blob);
  (*flipped)[flipped->size() / 2] ^= std::byte{0x01};  // fails the checksum

  // Well formed and self-consistent, but never released by the server.
  PolicySet rogue("rogue", target.version());
  rogue.set_default_allow(true);
  const CompiledPolicyImage rogue_image =
      CompiledPolicyImage::from_policy_set(rogue);
  const auto rogue_blob = std::make_shared<const std::vector<std::byte>>(
      PolicyBlobWriter::write(rogue_image));

  std::vector<CampaignVehicle> fleet = server.make_fleet(12, 0xA0D17ULL);
  // Vehicles 0..6 sit on the target version, so the campaign leaves
  // them alone and only the audit looks at them.
  const auto on_target = [&](std::size_t i,
                             std::shared_ptr<const std::vector<std::byte>> store,
                             std::uint64_t fingerprint) {
    fleet[i].version = target.version();
    fleet[i].fingerprint = fingerprint;
    fleet[i].sealed_blob = std::move(store);
  };
  on_target(0, nullptr, target.fingerprint());
  for (std::size_t i = 1; i <= 3; ++i) {
    on_target(i, flipped, target.fingerprint());  // one bad buffer, 3 vehicles
  }
  on_target(4, target_blob, target.fingerprint() ^ 1);  // wrong record
  on_target(5, rogue_blob, rogue_image.fingerprint());  // never released
  on_target(6, target_blob, target.fingerprint());      // clean

  PerfectTransport transport;
  const CampaignReport report = server.run(fleet, transport);
  EXPECT_EQ(report.status, CampaignStatus::kConverged);
  EXPECT_EQ(report.untouched, 7u);
  EXPECT_EQ(report.corrupt_images, 6u)
      << "every vehicle on a bad store counts, not every bad store";
}

TEST(CampaignFallback, RepeatedDeltaCorruptionSwitchesVehicleToBlob) {
  CampaignConfig config = test_config();
  config.blob_fallback_after = 2;
  config.max_tries = 16;  // 0.6^16 leaves no vehicle stranded at this scale
  CampaignServer server(fleet_lineage(6), config);
  std::vector<CampaignVehicle> fleet = server.make_fleet(200, 0xFA11BAC2ULL);

  FaultProfile heavy_corruption;
  heavy_corruption.corrupt = 0.6;
  FaultyTransport transport{FaultPlan(0xC0221977ULL, heavy_corruption)};
  const CampaignReport report = server.run(fleet, transport);

  EXPECT_GE(report.blob_fallbacks, 1u)
      << "repeated delta corruption must switch vehicles to the blob";
  expect_zero_corruption(report);
  EXPECT_EQ(report.status, CampaignStatus::kConverged);

  // 60% of deliveries were damaged, and none of that damage reached the
  // shared artefact: the server's blob still byte-equals a fresh write,
  // and every healthy vehicle shares it, whichever channel committed.
  const auto target_blob = server.blob_at(server.lineage_size() - 1);
  EXPECT_EQ(*target_blob, PolicyBlobWriter::write(server.target_image()));
  std::size_t via_blob = 0;
  for (const CampaignVehicle& vehicle : fleet) {
    if (vehicle.state != VehicleState::kHealthy) {
      continue;
    }
    EXPECT_EQ(vehicle.sealed_blob, target_blob) << "vehicle " << vehicle.id;
    via_blob += vehicle.channel == UpdateChannel::kBlob ? 1 : 0;
  }
  EXPECT_GE(via_blob, 1u) << "some vehicle must have committed a blob";
}

std::shared_ptr<const std::vector<std::byte>> sample_artefact() {
  auto bytes = std::make_shared<std::vector<std::byte>>(370);
  for (std::size_t i = 0; i < bytes->size(); ++i) {
    (*bytes)[i] = static_cast<std::byte>(i * 7 + 1);
  }
  return bytes;
}

TEST(CampaignTransport, CleanSendHandsBackTheArtefactBuffer) {
  const auto artefact = sample_artefact();
  FaultyTransport faulty{FaultPlan(0xC1EA7ULL, FaultProfile{})};
  PerfectTransport perfect;
  car::UpdateTransport* const transports[] = {&faulty, &perfect};
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    for (car::UpdateTransport* transport : transports) {
      const car::Delivery delivery = transport->send(7, attempt, artefact);
      EXPECT_EQ(delivery.status, car::DeliveryStatus::kDelivered);
      EXPECT_EQ(delivery.injected, sim::FaultKind::kNone);
      EXPECT_EQ(delivery.payload, artefact) << "a clean send copies nothing";
    }
  }
  EXPECT_EQ(faulty.counters().delivered_clean, 4u);
}

TEST(CampaignTransport, DamagedSendsBuildTheirOwnBuffers) {
  const auto artefact = sample_artefact();
  const std::vector<std::byte> original = *artefact;
  FaultProfile truncate_all;
  truncate_all.truncate = 1.0;
  FaultProfile corrupt_all;
  corrupt_all.corrupt = 1.0;
  for (const auto& [profile, kind] :
       {std::pair{truncate_all, sim::FaultKind::kTruncate},
        std::pair{corrupt_all, sim::FaultKind::kCorrupt}}) {
    SCOPED_TRACE(std::string(sim::to_string(kind)));
    FaultyTransport transport{FaultPlan(0xDA3A9EULL, profile)};
    // Every payload stays alive, so no two can share an address by reuse.
    std::vector<std::shared_ptr<const std::vector<std::byte>>> payloads;
    for (std::uint32_t vehicle = 0; vehicle < 16; ++vehicle) {
      for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
        const car::Delivery delivery =
            transport.send(vehicle, attempt, artefact);
        ASSERT_EQ(delivery.status, car::DeliveryStatus::kDelivered);
        EXPECT_EQ(delivery.injected, kind);
        ASSERT_TRUE(delivery.payload);
        EXPECT_NE(*delivery.payload, original);
        payloads.push_back(delivery.payload);
      }
    }
    std::vector<const std::vector<std::byte>*> buffers{artefact.get()};
    for (const auto& payload : payloads) {
      buffers.push_back(payload.get());
    }
    std::sort(buffers.begin(), buffers.end());
    EXPECT_EQ(std::adjacent_find(buffers.begin(), buffers.end()),
              buffers.end())
        << "each damaged payload is a buffer of its own";
    EXPECT_EQ(*artefact, original) << "damage never reaches the artefact";
  }
}

// The transport contract the campaign relies on to walk one vehicle at a
// time: decisions depend on (vehicle, attempt), never on the order of
// calls across vehicles. Two transports over one plan are called over
// the same grid, one vehicle by vehicle and one attempt by attempt.
TEST(CampaignTransport, DecisionsIgnoreCallOrder) {
  const auto artefact = sample_artefact();
  FaultProfile profile = FaultProfile::mixed(0.6);
  profile.dark = 0.1;
  profile.power_loss = 0.3;
  const FaultPlan plan(0x0DE2ULL, profile);
  // Ids far apart as well: the dark set holds only the dark vehicles.
  const std::vector<std::uint32_t> vehicles = {
      0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 40'000, 1u << 20, 4'000'000'000u};
  constexpr std::uint32_t kAttempts = 12;

  struct Outcome {
    car::DeliveryStatus status = car::DeliveryStatus::kDelivered;
    sim::FaultKind injected = sim::FaultKind::kNone;
    bool has_payload = false;
    std::vector<std::byte> payload;
    bool power_loss = false;
  };
  const auto call = [&artefact](FaultyTransport& transport,
                                std::uint32_t vehicle, std::uint32_t attempt) {
    const car::Delivery delivery = transport.send(vehicle, attempt, artefact);
    Outcome outcome;
    outcome.status = delivery.status;
    outcome.injected = delivery.injected;
    outcome.has_payload = delivery.payload != nullptr;
    if (delivery.payload) {
      outcome.payload = *delivery.payload;
    }
    outcome.power_loss = transport.power_loss_before_commit(vehicle, attempt);
    return outcome;
  };

  FaultyTransport by_vehicle{plan};
  FaultyTransport by_attempt{plan};
  std::vector<Outcome> vehicle_major(vehicles.size() * kAttempts);
  std::vector<Outcome> attempt_major(vehicles.size() * kAttempts);
  for (std::size_t v = 0; v < vehicles.size(); ++v) {
    for (std::uint32_t a = 0; a < kAttempts; ++a) {
      vehicle_major[v * kAttempts + a] = call(by_vehicle, vehicles[v], a + 1);
    }
  }
  for (std::uint32_t a = 0; a < kAttempts; ++a) {
    for (std::size_t v = 0; v < vehicles.size(); ++v) {
      attempt_major[v * kAttempts + a] = call(by_attempt, vehicles[v], a + 1);
    }
  }

  std::size_t dark = 0;
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < vehicle_major.size(); ++i) {
    SCOPED_TRACE("vehicle " + std::to_string(vehicles[i / kAttempts]) +
                 " attempt " + std::to_string(i % kAttempts + 1));
    const Outcome& x = vehicle_major[i];
    const Outcome& y = attempt_major[i];
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.injected, y.injected);
    EXPECT_EQ(x.has_payload, y.has_payload);
    EXPECT_EQ(x.payload, y.payload);
    EXPECT_EQ(x.power_loss, y.power_loss);
    dark += x.status == car::DeliveryStatus::kDark ? 1 : 0;
    damaged += x.has_payload && x.payload != *artefact ? 1 : 0;
  }
  EXPECT_GT(dark, 0u) << "the grid must reach the sticky dark state";
  EXPECT_GT(damaged, 0u);

  const auto fields = [](const FaultyTransport::Counters& c) {
    return std::array{c.sent,    c.delivered_clean, c.dropped, c.truncated,
                      c.corrupted, c.stalled,       c.dark,    c.bytes_sent};
  };
  EXPECT_EQ(fields(by_vehicle.counters()), fields(by_attempt.counters()));
}

TEST(UpdateResultTaxonomy, FleetBootClassifiesEveryRejection) {
  const std::vector<PolicySet> lineage = fleet_lineage(3);
  const CompiledPolicyImage v1 =
      CompiledPolicyImage::from_policy_set(lineage[0]);
  const CompiledPolicyImage v2 = CompiledPolicyImage::from_policy_set(
      lineage[1], core::replicate_sid_prefix(v1.sids(), v1.sids().size()));
  const CompiledPolicyImage v3 = CompiledPolicyImage::from_policy_set(
      lineage[2], core::replicate_sid_prefix(v2.sids(), v2.sids().size()));
  const std::vector<std::byte> v1_blob = PolicyBlobWriter::write(v1);
  const std::vector<std::byte> v2_blob = PolicyBlobWriter::write(v2);

  car::FleetBoot boot(v1_blob, probe_checks());

  // Malformed bytes: a structural reject.
  std::vector<std::byte> garbage(64, std::byte{0x42});
  EXPECT_EQ(boot.try_apply_update(garbage), UpdateResult::kValidationFailed);

  // Version replay: clean refusal, not an exception.
  EXPECT_EQ(boot.try_apply_update(v1_blob), UpdateResult::kRollbackRefused);

  // A delta anchored to v2 cannot apply on a v1 vehicle.
  const std::vector<std::byte> v2_to_v3 = PolicyDeltaWriter::write(v2, v3);
  EXPECT_EQ(boot.try_apply_delta_update(v2_to_v3),
            UpdateResult::kAnchorMismatch);

  // Tampered manifest: the carried fingerprint no longer matches the
  // content (fingerprint field is a u64 at offset 32, past the hashed
  // payload's header — see tests/test_policy_blob.cpp).
  std::vector<std::byte> tampered = v2_blob;
  tampered[32] ^= std::byte{0x01};
  EXPECT_EQ(boot.try_apply_update(tampered),
            UpdateResult::kFingerprintMismatch);

  // Every rejection above left the running policy untouched...
  EXPECT_EQ(boot.image().fingerprint(), v1.fingerprint());
  // ...and the clean path still works.
  EXPECT_EQ(boot.try_apply_update(v2_blob), UpdateResult::kOk);
  EXPECT_EQ(boot.image().fingerprint(), v2.fingerprint());
  EXPECT_EQ(std::string(to_string(UpdateResult::kAnchorMismatch)),
            "anchor-mismatch");
}

}  // namespace
}  // namespace psme
