// Post-deployment response: a new threat is discovered in the field, the
// OEM derives a countermeasure *policy* from the updated threat model and
// distributes it over the air — no redesign, no recall (paper Sec. V-A).
//
// The update travels in production form: the OEM compiles the threat
// model ONCE, reviews the structural diff (core::diff_policies), and
// ships the reviewed change as a fingerprint-anchored binary DELTA
// (core::PolicyDeltaWriter) — a fraction of the full blob's bytes for a
// one-rule change. Every vehicle stages it with a validated apply:
// check the base anchor -> replay the edit script -> swap -> flush
// stale cached decisions. Corrupted, replayed or wrong-base deltas are
// rejected at the trust boundary; the keyed signature still guards
// authenticity at the bundle layer.
//
// Build & run:  ./build/examples/example_policy_update_ota
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "car/base_policy.h"
#include "car/campaign.h"
#include "car/fleet_boot.h"
#include "car/table1.h"
#include "car/update_transport.h"
#include "car/vehicle.h"
#include "core/lifecycle.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_diff.h"
#include "core/update.h"
#include "sim/fault_plan.h"

using namespace psme;
using namespace std::chrono_literals;

namespace {

// The release lineage the campaign section drives: the deployed v1
// connected-car policy plus one small OTA fix per release — the shape
// that makes base->target deltas tiny next to the full blob.
std::vector<core::PolicySet> release_lineage(std::size_t length) {
  std::vector<core::PolicySet> lineage;
  lineage.push_back(car::full_policy(car::connected_car_threat_model(), 1));
  for (std::size_t v = 2; v <= length; ++v) {
    core::PolicySet next("car-ota-v" + std::to_string(v), v);
    next.set_default_allow(lineage.back().default_allow());
    for (const core::PolicyRule& rule : lineage.back().rules()) {
      next.add_rule(rule);
    }
    core::PolicyRule fix;
    fix.id = "ota-fix-" + std::to_string(v);
    fix.subject = "ecu.gateway";
    fix.object = "asset.ota-channel-" + std::to_string(v);
    fix.permission = threat::Permission::kRead;
    fix.priority = 1;
    next.add_rule(fix);
    lineage.push_back(std::move(next));
  }
  return lineage;
}

// A poisoned release: one version past `prev`, denying everything —
// the kind of bad compile the canary gate exists to catch.
core::PolicySet deny_storm_after(const core::PolicySet& prev) {
  core::PolicySet storm("deny-storm", prev.version() + 1);
  storm.set_default_allow(false);
  core::PolicyRule gag;
  gag.id = "storm";
  gag.subject = "*";
  gag.object = "*";
  gag.permission = threat::Permission::kNone;
  gag.priority = 100;
  storm.add_rule(gag);
  return storm;
}

}  // namespace

int main() {
  std::cout << "=== OTA policy update closing a newly discovered threat ===\n\n";
  // Every "(BUG!)" line below also fails the run.
  bool ok = true;

  // A fleet vehicle running policy v1 (no content rules — the fleet does
  // not yet know spoofed crash-acceleration readings are exploitable).
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  car::Vehicle vehicle(sched, config);
  const core::PolicySigner oem_key(0x5EC0DE);
  sched.run_until(sched.now() + 300ms);

  // Day 0: attack observed in the wild — a rogue dongle broadcasts
  // crash-grade acceleration, falsely triggering fail-safe (unlocks the
  // car, kills propulsion): Table I threat T15.
  attack::OutsideAttacker dongle(sched, vehicle.attach_attacker("dongle"));
  dongle.inject_repeated(car::command_frame(car::msg::kSensorAccel, 250), 3, 20ms);
  sched.run_until(sched.now() + 200ms);
  std::printf("[field] false fail-safe triggers: %llu -> vehicle unlocked, "
              "mode=%s\n",
              static_cast<unsigned long long>(vehicle.safety().failsafe_triggers()),
              std::string(to_string(vehicle.mode())).c_str());

  // OEM security team: re-run the threat-modelling lifecycle (the model
  // already contains T15 with its DREAD rating), compile v2, sign it.
  core::Lifecycle lifecycle(car::connected_car_threat_model);
  core::CompilerOptions options;
  options.base_priority = 10;
  options.version = 2;
  lifecycle.run(options);
  const threat::Threat* t15 =
      lifecycle.security_model().threat_model().find_threat(threat::ThreatId{"T15"});
  std::printf("[oem]   threat re-rated: %s — DREAD %s (%s)\n",
              t15->title.c_str(), t15->dread.to_string().c_str(),
              std::string(to_string(t15->dread.band())).c_str());

  core::PolicySet v2 = car::full_policy(car::connected_car_threat_model(), 2);
  core::PolicyBundle bundle{v2, oem_key.sign(v2), "oem.security-team"};
  std::printf("[oem]   policy v2 compiled (%zu rules), signed, publishing "
              "OTA...\n", v2.size());

  // -- the production transport: a persistent policy blob ----------------
  // The OEM serialises the SEALED image once; vehicles never re-run the
  // compiler. write -> (channel) -> validate -> load -> flush. Alongside
  // the HPE content rules, v2 quarantines the aftermarket-facing
  // infotainment entry point (the dongle's beachhead) at top priority
  // until the interface is revalidated — the rule the fleet sweep below
  // makes visible.
  const core::PolicySet v1 = car::full_policy(car::connected_car_threat_model(), 1);
  core::PolicySet v2_fleet = car::full_policy(car::connected_car_threat_model(), 2);
  v2_fleet.add_rule(car::quarantine_rule());
  const std::vector<std::byte> blob_v1 = core::PolicyBlobWriter::write(v1.image());
  const std::vector<std::byte> blob_v2 = core::PolicyBlobWriter::write(v2_fleet.image());
  const core::PolicyBlobInfo info = core::PolicyBlobReader::probe(blob_v2);
  std::printf("[oem]   v2 staged as policy blob: %llu bytes, format v%u, "
              "%u rules, %u names, fingerprint %016llx\n",
              static_cast<unsigned long long>(info.total_size),
              info.format_version, info.entry_count, info.sid_count,
              static_cast<unsigned long long>(info.fingerprint));

  // -- the delta channel: ship (base fingerprint, edit script) -----------
  // The release gate reviews the structural diff first (widening grants
  // are the dangerous direction), then the SAME reviewed change goes on
  // the wire as a binary delta anchored to v1's fingerprint — a fraction
  // of the full blob for a one-rule change, which is what an OTA channel
  // serving millions of vehicles actually pays for.
  const core::PolicyDiff review = core::diff_policies(v1, v2_fleet);
  std::printf("[oem]   release-gate diff (%zu change(s)%s):\n%s",
              review.changes.size(),
              review.widens_access() ? ", widens access — sign-off required"
                                     : ", no widening",
              review.render().c_str());
  const core::CompiledPolicyImage delta_target =
      core::CompiledPolicyImage::from_policy_set(
          v2_fleet, core::replicate_sid_prefix(v1.image().sids(),
                                               v1.image().sids().size()));
  core::PolicyDeltaStats delta_stats;
  const std::vector<std::byte> delta =
      core::PolicyDeltaWriter::write(v1.image(), delta_target, &delta_stats);
  std::printf("[oem]   v1->v2 staged as policy delta: %zu bytes vs %zu "
              "(%.1f%% of the full blob; %u copied / %u added / %u removed "
              "/ %u changed)\n",
              delta.size(), blob_v2.size(),
              100.0 * static_cast<double>(delta.size()) /
                  static_cast<double>(blob_v2.size()),
              delta_stats.copied, delta_stats.added, delta_stats.removed,
              delta_stats.changed);

  // Fleet side: vehicles booted the v1 blob (zero recompile — the blob IS
  // the policy; no threat model, no derivation on the vehicle).
  const std::size_t fleet_size = 100;
  car::FleetBoot fleet_boot(blob_v1, car::default_fleet_checks(), fleet_size);
  const car::FleetTickStats before = fleet_boot.fleet().tick();
  std::printf("[fleet] %zu vehicles booted from the v1 blob (policy v%llu): "
              "%llu decisions/sweep, %llu denied\n",
              fleet_boot.fleet().fleet_size(),
              static_cast<unsigned long long>(fleet_boot.policy_version()),
              static_cast<unsigned long long>(before.decisions),
              static_cast<unsigned long long>(before.denied));

  // -- boot from the local policy store: mmap-backed zero-copy -----------
  // A provisioned vehicle keeps the validated blob as a FILE in its
  // policy store. Booting from the path maps it read-only and the image
  // VIEWS the mapping in place (format v2, BlobTrust::kSealedStore):
  // no copy, no per-rule pass — O(1) in policy size (bench_policy_blob's
  // flat-attach row). The decision stream is byte-identical to the
  // in-memory boot above.
  const std::string store_path = "/tmp/psme_ota_policy_store.img";
  core::PolicyBlobWriter::write_file(v1.image(), store_path);
  car::FleetBoot store_boot(store_path, car::default_fleet_checks(),
                            fleet_size, core::BlobTrust::kSealedStore);
  const car::FleetTickStats store_sweep = store_boot.fleet().tick();
  const bool store_matches = store_sweep.decisions == before.decisions &&
                             store_sweep.denied == before.denied;
  ok &= store_matches;
  std::printf("[fleet] re-boot from policy store '%s' (mmap, sealed attach): "
              "policy v%llu, %llu decisions/sweep, %llu denied — %s the "
              "in-memory boot\n",
              store_path.c_str(),
              static_cast<unsigned long long>(store_boot.policy_version()),
              static_cast<unsigned long long>(store_sweep.decisions),
              static_cast<unsigned long long>(store_sweep.denied),
              store_matches ? "matches" : "DIVERGES FROM (BUG!)");
  std::remove(store_path.c_str());

  // A corrupted delta arrives first (bit error in transit / tampering):
  // the validated apply rejects it and the running policy is untouched.
  std::vector<std::byte> corrupted = delta;
  corrupted[corrupted.size() / 2] ^= std::byte{0x20};
  const car::UpdateResult corrupted_result =
      fleet_boot.try_apply_delta_update(corrupted);
  if (corrupted_result == car::UpdateResult::kOk) {
    std::printf("[fleet] corrupted delta accepted (BUG!)\n");
    ok = false;
  } else {
    std::printf("[fleet] corrupted delta rejected: %s\n",
                std::string(to_string(corrupted_result)).c_str());
  }

  // The intact delta: validate the base anchor -> apply the edit script
  // -> swap -> stale decisions flushed (the evaluator re-resolves
  // everything against the applied image).
  const car::UpdateResult applied = fleet_boot.try_apply_delta_update(delta);
  if (applied == car::UpdateResult::kOk) {
    const car::FleetTickStats after = fleet_boot.fleet().tick();
    std::printf("[fleet] v1->v2 delta applied (policy v%llu), caches "
                "flushed: %llu denied/sweep (was %llu — the quarantine "
                "rule bites)\n",
                static_cast<unsigned long long>(fleet_boot.policy_version()),
                static_cast<unsigned long long>(after.denied),
                static_cast<unsigned long long>(before.denied));
  } else {
    std::printf("[fleet] intact v1->v2 delta rejected: %s (BUG!)\n",
                std::string(to_string(applied)).c_str());
    ok = false;
  }

  // Replaying the same delta cannot touch the fleet: it is anchored to
  // v1's fingerprint and the fleet now runs v2.
  const car::UpdateResult replayed = fleet_boot.try_apply_delta_update(delta);
  if (replayed == car::UpdateResult::kOk) {
    std::printf("[fleet] replayed delta accepted (BUG!)\n");
    ok = false;
  } else {
    std::printf("[fleet] replayed v1->v2 delta rejected: %s\n",
                std::string(to_string(replayed)).c_str());
  }

  // A replayed v1 blob must not downgrade the fleet either.
  const bool downgraded =
      fleet_boot.try_apply_update(blob_v1) == car::UpdateResult::kOk;
  ok &= !downgraded;
  std::printf("[fleet] replayed v1 blob accepted: %s\n",
              downgraded ? "YES (BUG!)" : "no (version rollback)");

  // OTA distribution with realistic latency and loss (the signed-bundle
  // layer: authenticity comes from the OEM key, not the blob checksum).
  core::UpdateChannel channel(sched, 50ms, /*loss_rate=*/0.3, /*seed=*/11);
  channel.subscribe([&](const core::PolicyBundle& b) {
    const bool ok = vehicle.apply_policy_update(b, oem_key);
    std::printf("[car]   t=%.0fms update v%llu %s\n", sim::to_millis(sched.now()),
                static_cast<unsigned long long>(b.version()),
                ok ? "verified and applied to every HPE" : "REJECTED");
  });
  channel.publish(bundle);
  sched.run_until(sched.now() + 500ms);

  // An attacker tries to undo the fix with a forged "update".
  core::PolicySet downgrade("mallory-special", 3);
  downgrade.set_default_allow(true);
  const bool forged = vehicle.apply_policy_update(
      {downgrade, 0xF01DED, "mallory"}, oem_key);
  ok &= !forged;
  std::printf("[car]   forged downgrade accepted: %s\n",
              forged ? "YES (BUG!)" : "no (bad signature)");

  // The update shipped; on the next fleet revision the HPEs are provisioned
  // with the content-rule countermeasure. Same attack, new vehicle:
  sim::Scheduler sched2;
  car::VehicleConfig fixed;
  fixed.enforcement = car::Enforcement::kHpe;
  fixed.hpe_content_rules = true;
  fixed.policy_version = 2;
  car::Vehicle patched(sched2, fixed);
  sched2.run_until(sched2.now() + 300ms);
  attack::OutsideAttacker dongle2(sched2, patched.attach_attacker("dongle"));
  dongle2.inject_repeated(car::command_frame(car::msg::kSensorAccel, 250), 3, 20ms);
  sched2.run_until(sched2.now() + 200ms);
  std::printf("[fleet] same attack vs patched policy: %llu false triggers — "
              "%s\n",
              static_cast<unsigned long long>(patched.safety().failsafe_triggers()),
              patched.safety().failsafe_triggers() == 0 ? "threat neutralised"
                                                        : "still vulnerable");

  // ======================================================================
  // Scaling it up: the CAMPAIGN. One vehicle applying one delta is the
  // mechanism; shipping a release to a whole fleet — skewed across old
  // versions, behind a radio link that drops, truncates and corrupts —
  // is the campaign orchestrator's job (car/campaign.h): staged waves
  // (canary first), per-base base->target delta planning with full-blob
  // fallback, bounded retries with seeded backoff, and a health gate
  // after every wave that halts and rolls back when the release itself
  // is the fault. Every fault below is INJECTED deterministically from
  // a seed (sim/fault_plan.h) — re-running this example replays the
  // same campaign byte for byte.
  std::printf("\n=== Fleet campaign: staged rollout under injected faults ===\n\n");

  car::CampaignConfig campaign_config;
  campaign_config.canary_fraction = 0.02;
  campaign_config.wave_fractions = {0.25, 1.0};
  campaign_config.blob_fallback_after = 2;
  // A 35% per-transfer fault rate needs a deeper retry budget than the
  // production default: 0.35^12 leaves no vehicle stranded at 2000.
  campaign_config.max_tries = 12;
  car::CampaignServer server(release_lineage(4), campaign_config);

  // 2000 vehicles, geometrically skewed over the three pre-target
  // releases, behind a corruption-heavy link: enough damage that some
  // vehicles burn through their delta retries and escalate to the full
  // blob — the fallback ladder in action.
  sim::FaultProfile rough;
  rough.drop = 0.05;
  rough.corrupt = 0.30;
  car::FaultyTransport transport{sim::FaultPlan(0x0A7E5EED, rough)};
  std::vector<car::CampaignVehicle> fleet = server.make_fleet(2000, 0xF1EE7);

  const car::CampaignReport report = server.run(fleet, transport);
  for (const car::WaveStats& wave : report.waves) {
    std::printf("[wave %zu] %s: %zu vehicles, %zu committed "
                "(commit %.2f, healthy %.2f) — gate %s\n",
                wave.wave,
                wave.wave == 0 ? "canary" : "cohort",
                wave.size, wave.committed, wave.commit_fraction,
                wave.healthy_fraction,
                wave.gate_passed ? "passed" : "FAILED");
  }
  std::printf("[fleet] %s in %llu ticks: %zu healthy on v%llu, %zu "
              "retries, %llu corrupted-delta vehicles escalated to the "
              "full blob, %llu power-loss reboots, %zu corrupt sealed "
              "stores (the invariant: injected damage delays, never "
              "corrupts)\n",
              std::string(to_string(report.status)).c_str(),
              static_cast<unsigned long long>(report.ticks),
              report.healthy,
              static_cast<unsigned long long>(report.target_version),
              static_cast<std::size_t>(report.retries),
              static_cast<unsigned long long>(report.blob_fallbacks),
              static_cast<unsigned long long>(report.power_loss_reboots),
              report.corrupt_images);
  std::printf("[fleet] wire cost: %.1f MB shipped (base->target deltas + "
              "fallback blobs) vs %.1f MB for naive full-blob "
              "distribution\n",
              static_cast<double>(report.delta_bytes_shipped +
                                  report.blob_bytes_shipped) /
                  1.0e6,
              static_cast<double>(report.full_blob_bytes_baseline) / 1.0e6);

  // The halt drill: the next "release" is a deny-storm (a bad compile
  // that denies everything). The canary cohort commits it, the health
  // window flags every canary, and the gate halts the campaign BEFORE
  // wave two — then rolls the canaries back to the predecessor's
  // content, restamped past the bad version (FleetBoot refuses version
  // rollbacks, so the campaign rolls content back by rolling the
  // version forward).
  std::vector<core::PolicySet> poisoned = release_lineage(4);
  poisoned.push_back(deny_storm_after(poisoned.back()));
  car::CampaignServer poisoned_server(std::move(poisoned), campaign_config);
  std::vector<car::CampaignVehicle> poisoned_fleet =
      poisoned_server.make_fleet(2000, 0xF1EE7);
  car::PerfectTransport clean_link;
  const car::CampaignReport storm =
      poisoned_server.run(poisoned_fleet, clean_link);
  std::printf("[storm] poisoned release: %s after wave %zu of %zu "
              "(canary healthy fraction %.2f), %zu canaries rolled back "
              "to the v4 policy restamped v%llu — the rest of the fleet "
              "never saw the bad release\n",
              std::string(to_string(storm.status)).c_str(),
              storm.waves.size(),
              campaign_config.wave_fractions.size() + 1,
              storm.waves.empty() ? 1.0 : storm.waves.back().healthy_fraction,
              storm.rolled_back_vehicles,
              static_cast<unsigned long long>(storm.rollback_version));

  std::printf("\nResponse completed as a policy update: %.1fx faster than the "
              "guideline-redesign cycle\n(see bench_policy_update for the "
              "full timeline model, bench_policy_blob for the\nzero-recompile "
              "boot numbers).\n",
              core::ResponseModel::exposure_ratio());
  return ok ? 0 : 1;
}
