// Fleet OTA campaign bench (the fault-tolerance claim, measured): a
// 100k-vehicle fleet with geometric version skew over the last six
// releases of the connected-car policy converges onto the newest release
// through staged waves (canary -> cohorts), base->target delta update
// paths with full-blob fallback, bounded retries with seeded backoff —
// under INJECTED faults (drops, truncations, corruption, stalls, dark
// vehicles, power loss between validate and commit; sim/fault_plan.h).
//
// Exit status gates the robustness acceptance, not a speed number:
//   * the 1% mixed-fault campaign must CONVERGE with zero vehicles
//     failed and ZERO corrupt sealed stores (and the 0%/5% rows must
//     stay corruption-free too);
//   * base->target deltas must beat naive full-blob distribution on
//     wire bytes at every fault rate;
//   * the poisoned-target (deny-storm) campaign must HALT at the canary
//     wave — before wave two — and roll every canary back.
// Wall-clock numbers are printed for context only; the gated facts are
// deterministic per seed. Emits the JSON row for BENCH_campaign.json.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "car/base_policy.h"
#include "car/campaign.h"
#include "car/table1.h"
#include "car/update_transport.h"
#include "core/policy.h"
#include "host_note.h"
#include "report/table.h"
#include "sim/fault_plan.h"

using namespace psme;

namespace {

constexpr std::size_t kFleet = 100000;
constexpr std::size_t kLineage = 7;
constexpr std::uint64_t kFleetSeed = 0xF1EE70A7ULL;
constexpr std::uint64_t kFaultSeed = 0x0A7F4017ULL;

/// The release lineage: v1 is the deployed 36-rule connected-car policy;
/// each later release appends one OTA fix rule (the paper's
/// post-deployment response pattern), so each release is a small,
/// realistic change and a base->target delta stays far below the blob.
std::vector<core::PolicySet> car_lineage(std::size_t length) {
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

/// The poisoned release: one version past `prev`, denying everything.
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

struct Row {
  double rate = 0.0;
  car::CampaignReport report;
  car::FaultyTransport::Counters injected;
};

}  // namespace

int main() {
  std::printf(
      "=== Fleet OTA campaign: staged rollout under injected faults ===\n"
      "fleet %zu, %zu-release lineage, geometric skew over last 6\n\n",
      kFleet, kLineage);

  car::CampaignServer server(car_lineage(kLineage), car::CampaignConfig{});

  // -- fault-rate sweep --------------------------------------------------
  std::vector<Row> rows;
  for (const double rate : {0.0, 0.01, 0.05}) {
    car::FaultyTransport transport{
        sim::FaultPlan(kFaultSeed, sim::FaultProfile::mixed(rate))};
    std::vector<car::CampaignVehicle> fleet =
        server.make_fleet(kFleet, kFleetSeed);
    Row row;
    row.rate = rate;
    row.report = server.run(fleet, transport);
    row.injected = transport.counters();
    rows.push_back(std::move(row));
  }

  report::TextTable sweep({"fault rate", "status", "waves", "retries",
                           "ticks", "wire MB", "naive MB", "savings",
                           "blob fallbacks", "power-loss", "dark",
                           "corrupt"});
  for (const Row& row : rows) {
    const auto& r = row.report;
    const double wire_mb = static_cast<double>(r.delta_bytes_shipped +
                                               r.blob_bytes_shipped) /
                           1.0e6;
    const double naive_mb =
        static_cast<double>(r.full_blob_bytes_baseline) / 1.0e6;
    char rate_label[16];
    std::snprintf(rate_label, sizeof(rate_label), "%.0f%%", row.rate * 100);
    char savings[16];
    std::snprintf(savings, sizeof(savings), "%.1f%%",
                  100.0 * (1.0 - wire_mb / naive_mb));
    sweep.add(rate_label, std::string(to_string(r.status)), r.waves.size(),
              r.retries, r.ticks, wire_mb, naive_mb, savings,
              r.blob_fallbacks, r.power_loss_reboots, r.dark,
              r.corrupt_images);
  }
  std::printf("%s\n", sweep.render().c_str());

  std::printf("injected at 5%%: %llu drops, %llu truncations, %llu "
              "corruptions, %llu stalls, %llu dark answers\n\n",
              static_cast<unsigned long long>(rows[2].injected.dropped),
              static_cast<unsigned long long>(rows[2].injected.truncated),
              static_cast<unsigned long long>(rows[2].injected.corrupted),
              static_cast<unsigned long long>(rows[2].injected.stalled),
              static_cast<unsigned long long>(rows[2].injected.dark));

  // -- poisoned canary ---------------------------------------------------
  std::vector<core::PolicySet> poisoned = car_lineage(kLineage);
  poisoned.push_back(deny_storm_after(poisoned.back()));
  car::CampaignServer poisoned_server(std::move(poisoned),
                                      car::CampaignConfig{});
  std::vector<car::CampaignVehicle> poisoned_fleet =
      poisoned_server.make_fleet(kFleet, kFleetSeed);
  car::PerfectTransport clean;
  const car::CampaignReport storm =
      poisoned_server.run(poisoned_fleet, clean);
  std::printf(
      "poisoned target: status=%s after wave %zu (healthy %.2f), "
      "%zu canaries rolled back to content of v%zu stamped v%llu\n\n",
      std::string(to_string(storm.status)).c_str(), storm.waves.size(),
      storm.waves.empty() ? 1.0 : storm.waves.back().healthy_fraction,
      storm.rolled_back_vehicles, kLineage,
      static_cast<unsigned long long>(storm.rollback_version));

  // -- acceptance gates --------------------------------------------------
  bool ok = true;
  const auto gate = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("GATE FAILED: %s\n", what);
      ok = false;
    }
  };
  const car::CampaignReport& one_percent = rows[1].report;
  gate(one_percent.status == car::CampaignStatus::kConverged,
       "1% fault campaign must converge");
  gate(one_percent.failed == 0, "1% fault campaign must strand no vehicle");
  for (const Row& row : rows) {
    gate(row.report.corrupt_images == 0,
         "no fault rate may corrupt a sealed store");
    gate(row.report.delta_bytes_shipped + row.report.blob_bytes_shipped <
             row.report.full_blob_bytes_baseline,
         "base->target deltas must beat naive full-blob distribution");
  }
  gate(storm.status == car::CampaignStatus::kHalted,
       "deny-storm target must halt the campaign");
  gate(storm.waves.size() == 1, "storm must halt BEFORE wave two");
  gate(storm.rolled_back &&
           storm.rolled_back_vehicles == storm.waves.at(0).committed,
       "every committed canary must roll back");
  gate(storm.corrupt_images == 0, "halt+rollback must leave no corruption");

  std::printf("JSON: {\"bench\":\"campaign\",\"fleet\":%zu,\"lineage\":%zu,",
              kFleet, kLineage);
  benchhost::print_host_json();
  std::printf(",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i].report;
    std::printf(
        "%s{\"fault_rate\":%.2f,\"status\":\"%s\",\"waves\":%zu,"
        "\"retries\":%llu,\"ticks\":%llu,\"wire_bytes\":%llu,"
        "\"naive_blob_bytes\":%llu,\"blob_fallbacks\":%llu,"
        "\"power_loss_reboots\":%llu,\"dark\":%zu,\"failed\":%zu,"
        "\"corrupt_images\":%zu}",
        i ? "," : "", rows[i].rate,
        std::string(to_string(r.status)).c_str(), r.waves.size(),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.ticks),
        static_cast<unsigned long long>(r.delta_bytes_shipped +
                                        r.blob_bytes_shipped),
        static_cast<unsigned long long>(r.full_blob_bytes_baseline),
        static_cast<unsigned long long>(r.blob_fallbacks),
        static_cast<unsigned long long>(r.power_loss_reboots), r.dark,
        r.failed, r.corrupt_images);
  }
  std::printf(
      "],\"storm\":{\"status\":\"%s\",\"halted_after_wave\":%zu,"
      "\"rolled_back_vehicles\":%zu},\"gates_ok\":%s}\n",
      std::string(to_string(storm.status)).c_str(), storm.waves.size(),
      storm.rolled_back_vehicles, ok ? "true" : "false");

  return ok ? 0 : 1;
}
