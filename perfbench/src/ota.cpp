// Workload `ota`: the policy path. The connected-car threat model is
// derived into a seven-release lineage; car::CampaignServer construction
// compiles every release's image, hop delta and sealed blob; a
// 10^5-vehicle geometric-skew fleet is made; one staged campaign runs at
// 1% mixed transport faults; the post-campaign audit closes it. It never
// touches the sim scheduler, CAN or the HPE, so it is the control for
// every frame-path change (and `drive` is the control for this path).
//
// Set-up is lineage derivation + server construction + make_fleet; the
// timed call is CampaignServer::run. The traced run replays the core and
// boot entry points the server and the vehicles use (compile, blob and
// delta write, untrusted blob load, delta apply, FleetBoot applies, the
// health probe) on this run's own artefacts, each in isolation.
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "car/base_policy.h"
#include "car/campaign.h"
#include "car/fleet_boot.h"
#include "car/table1.h"
#include "car/update_transport.h"
#include "common.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "sim/fault_plan.h"

namespace perfbench {
namespace {

using namespace psme;

constexpr std::size_t kFleet = 100000;
constexpr std::size_t kLineage = 7;
constexpr double kFaultRate = 0.01;
constexpr int kReplays = 15;

/// The release lineage: v1 is the 36-rule connected-car policy derived
/// from the threat model; each later release appends one OTA fix rule,
/// so every hop delta is a small change.
std::vector<core::PolicySet> car_lineage() {
  std::vector<core::PolicySet> lineage;
  lineage.push_back(car::full_policy(car::connected_car_threat_model(), 1));
  for (std::size_t v = 2; v <= kLineage; ++v) {
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

/// Median host µs of `fn` over kReplays calls; `prepare` runs untimed
/// before each call and hands it its input.
template <typename Prepare, typename Fn>
double replay_us(Prepare prepare, Fn fn) {
  std::vector<double> samples;
  for (int i = 0; i < kReplays; ++i) {
    auto input = prepare();
    const std::int64_t start = now_ns();
    fn(input);
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return median(samples);
}

template <typename Fn>
double replay_us(Fn fn) {
  return replay_us([] { return 0; }, [&fn](int) { fn(); });
}

}  // namespace

RunResult run_ota(const Options& options) {
  RunResult result;
  car::CampaignConfig config;
  config.seed = derive_seed(options.seed, 0x0A7A);

  const std::int64_t setup_start = now_ns();
  std::vector<core::PolicySet> lineage = car_lineage();
  const std::int64_t server_start = now_ns();
  car::CampaignServer server(lineage, config);
  const std::int64_t fleet_start = now_ns();
  std::vector<car::CampaignVehicle> fleet =
      server.make_fleet(kFleet, derive_seed(options.seed, 0xF1EE));
  const std::int64_t setup_end = now_ns();

  car::FaultyTransport transport{
      sim::FaultPlan(derive_seed(options.seed, 0xFA17),
                     sim::FaultProfile::mixed(kFaultRate))};
  const std::int64_t run_start = now_ns();
  const car::CampaignReport report = server.run(fleet, transport);
  const std::int64_t run_ns = now_ns() - run_start;

  // Digest: census, bytes, waves, injected faults, fleet fingerprints.
  Digest digest;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(report.status), report.target_version,
        report.target_fingerprint, report.ticks, report.retries,
        report.power_loss_reboots, report.blob_fallbacks,
        report.delta_bytes_shipped, report.blob_bytes_shipped,
        report.full_blob_bytes_baseline,
        static_cast<std::uint64_t>(report.healthy),
        static_cast<std::uint64_t>(report.failed),
        static_cast<std::uint64_t>(report.dark),
        static_cast<std::uint64_t>(report.untouched),
        static_cast<std::uint64_t>(report.corrupt_images),
        static_cast<std::uint64_t>(report.rolled_back_vehicles)}) {
    digest.add(v);
  }
  for (const car::WaveStats& wave : report.waves) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(wave.size),
          static_cast<std::uint64_t>(wave.committed),
          static_cast<std::uint64_t>(wave.failed),
          static_cast<std::uint64_t>(wave.dark), wave.retries, wave.ticks}) {
      digest.add(v);
    }
  }
  const car::FaultyTransport::Counters& injected = transport.counters();
  for (const std::uint64_t v :
       {injected.sent, injected.delivered_clean, injected.dropped,
        injected.truncated, injected.corrupted, injected.stalled,
        injected.dark, injected.bytes_sent}) {
    digest.add(v);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;
  fingerprints.reserve(fleet.size());
  for (const car::CampaignVehicle& vehicle : fleet) {
    fingerprints.emplace_back(vehicle.fingerprint, vehicle.version);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  for (const auto& [fingerprint, version] : fingerprints) {
    digest.add(fingerprint);
    digest.add(version);
  }

  const std::size_t eligible = fleet.size() - report.untouched;
  result.digest = digest.hex();
  result.attempted = eligible;
  result.failed = report.failed + report.corrupt_images;
  if (report.status != car::CampaignStatus::kConverged) {
    result.problems.push_back("campaign did not converge: " +
                              std::string(to_string(report.status)));
  }
  if (report.corrupt_images != 0) {
    result.problems.push_back("post-campaign audit found corrupt images");
  }

  result.set("host_ns_per_op",
             static_cast<double>(run_ns) / static_cast<double>(report.healthy));
  result.set("setup_s", static_cast<double>(setup_end - setup_start) / 1e9);
  result.set("peak_rss_mb", peak_rss_mb());
  if (!options.trace) return result;

  // -- per-layer breakdown (traced run: isolated replays) ---------------
  const auto per_vehicle = [eligible](double count) {
    return count / static_cast<double>(eligible);
  };
  const std::size_t last = server.lineage_size() - 1;
  const core::CompiledPolicyImage& base = server.image_at(last - 1);
  const core::CompiledPolicyImage& target = server.target_image();
  const auto blob = server.blob_at(last);
  const auto base_blob = server.blob_at(last - 1);
  // What a vehicle on the newest pre-target release receives: a one-hop
  // chain composes to exactly the writer's delta.
  const std::vector<std::byte> delta_bytes =
      core::PolicyDeltaWriter::write(base, target);
  const std::span<const std::byte> delta(delta_bytes);

  // Each release compiled against its predecessor's SID prefix, as the
  // server does; reported per release.
  result.set("core.compile_image_us",
             replay_us([&lineage] {
               std::shared_ptr<mac::SidTable> sids;
               for (const core::PolicySet& set : lineage) {
                 const auto image = core::CompiledPolicyImage::from_policy_set(
                     set, std::move(sids));
                 sids = core::replicate_sid_prefix(image.sids(),
                                                   image.sids().size());
               }
             }) / static_cast<double>(lineage.size()));
  result.set("core.blob_write_us", replay_us([&target] {
               (void)core::PolicyBlobWriter::write(target);
             }));
  result.set("core.delta_write_us", replay_us([&base, &target] {
               (void)core::PolicyDeltaWriter::write(base, target);
             }));
  result.set("core.blob_load_untrusted_us", replay_us([&blob] {
               (void)core::PolicyBlobReader::load(
                   std::span<const std::byte>(*blob));
             }));
  result.set("core.delta_apply_us", replay_us([&base, delta] {
               (void)core::PolicyDeltaReader::apply(base, delta);
             }));

  const auto boot_base = [&base_blob] {
    return std::make_unique<car::FleetBoot>(
        std::span<const std::byte>(*base_blob), car::default_fleet_checks());
  };
  std::size_t boot_failures = 0;
  result.set("car.boot_apply_delta_us",
             replay_us(boot_base, [delta, &boot_failures](auto& boot) {
               boot_failures += boot->try_apply_delta_update(delta) !=
                                car::UpdateResult::kOk;
             }));
  result.set("car.boot_apply_blob_us",
             replay_us(boot_base, [&blob, &boot_failures](auto& boot) {
               boot_failures +=
                   boot->try_apply_update(std::span<const std::byte>(*blob)) !=
                   car::UpdateResult::kOk;
             }));
  if (boot_failures != 0) {
    result.problems.push_back("a replayed FleetBoot update was refused");
  }

  // The health gate's probe: resolve + evaluate per check on the target.
  // `allowed` only keeps the decisions observable.
  const std::vector<car::FleetCheck> checks = car::default_fleet_checks();
  std::size_t allowed = 0;
  const double sweep_us = replay_us([&] {
    for (const car::FleetCheck& check : checks) {
      const core::SidRequest request = target.resolve(core::AccessRequest{
          check.subject, check.object, check.access, threat::ModeId{}});
      allowed += target.evaluate(request).allowed ? 1 : 0;
    }
  });
  result.set("car.health_probe_ns_per_decision",
             sweep_us * 1e3 / static_cast<double>(checks.size()));

  result.set("car.campaign_server_build_s",
             static_cast<double>(fleet_start - server_start) / 1e9);
  result.set("car.make_fleet_s",
             static_cast<double>(setup_end - fleet_start) / 1e9);
  result.set("car.individual_validations_per_vehicle",
             per_vehicle(static_cast<double>(injected.truncated +
                                             injected.corrupted)));
  result.set("car.retries_per_vehicle",
             per_vehicle(static_cast<double>(report.retries)));
  result.set("car.blob_fallback_ratio",
             per_vehicle(static_cast<double>(report.blob_fallbacks)));
  result.set("car.wire_bytes_per_vehicle",
             per_vehicle(static_cast<double>(report.delta_bytes_shipped +
                                             report.blob_bytes_shipped)));
  return result;
}

}  // namespace perfbench
