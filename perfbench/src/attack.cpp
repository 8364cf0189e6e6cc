// Workload `attack`: the sixteen Table I scenarios under the four
// regimes (none, sw-filter, hpe, hpe+content) via attack::run_scenario,
// then generated attack::CampaignRunner campaigns at three seeds derived
// from the workload seed. Short, deny-heavy worlds: every scenario
// builds fresh vehicles, so policy-to-binding construction is a large
// share of each one, and the none / sw-filter regimes are covered.
//
// Each scenario is timed as one call into the public runner; set-up is
// generating the scenario inputs (the Table I catalogue and every
// campaign schedule). The traced run spans each scenario and adds the
// per-regime vehicle build times.
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "attack/runner.h"
#include "attack/scenarios.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace psme;

constexpr int kSetupRepeats = 15;
constexpr int kCampaigns = 3;
/// Table I hazards per regime: unprotected admits all sixteen, the
/// software filter misses the transmit-side attacks, the HPE blocks all
/// but T09/T14/T15, and content rules close those three.
constexpr std::size_t kExpectedHazards[4] = {16, 9, 3, 0};

struct Regime {
  const char* label;
  car::Enforcement enforcement;
  bool content_rules;
};
constexpr Regime kRegimes[4] = {
    {"none", car::Enforcement::kNone, false},
    {"sw-filter", car::Enforcement::kSoftwareFilter, false},
    {"hpe", car::Enforcement::kHpe, false},
    {"hpe+content", car::Enforcement::kHpe, true},
};

attack::CampaignOptions campaign_options(std::uint64_t seed, int index) {
  attack::CampaignOptions options;
  options.seed = derive_seed(seed, 0xCA3B, static_cast<std::uint64_t>(index));
  return options;
}

/// The inputs: the Table I catalogue and every generated schedule.
std::size_t generate_inputs(std::uint64_t seed) {
  std::size_t steps = attack::all_scenarios().size();
  for (int c = 0; c < kCampaigns; ++c) {
    const attack::CampaignPlan plan(campaign_options(seed, c));
    for (const attack::Family family : attack::kAllFamilies) {
      for (std::uint32_t i = 0; i < plan.options().scenarios_per_family; ++i) {
        steps += plan.steps(family, i).size();
      }
    }
  }
  return steps;
}

}  // namespace

RunResult run_attack(const Options& options) {
  RunResult result;
  SpanLog log;

  std::vector<double> setups;
  std::size_t inputs = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    inputs = generate_inputs(options.seed);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  if (inputs == 0) result.problems.push_back("no attack inputs generated");

  attack::RunnerOptions runner;
  runner.seed = derive_seed(options.seed, 0x7AB1E1);

  // Warm-up, excluded from timing: one scenario under the HPE regime.
  runner.enforcement = car::Enforcement::kHpe;
  (void)attack::run_scenario(attack::all_scenarios().front(), runner);

  Digest digest;
  std::int64_t table1_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t hpe_blocked = 0;
  std::size_t table1_runs = 0;
  std::size_t hazards[4] = {0, 0, 0, 0};
  for (std::size_t r = 0; r < 4; ++r) {
    runner.enforcement = kRegimes[r].enforcement;
    runner.content_rules = kRegimes[r].content_rules;
    const std::uint32_t span =
        log.name(std::string("attack.table1.") + kRegimes[r].label);
    for (const attack::Scenario& scenario : attack::all_scenarios()) {
      if (options.trace) log.begin(span);
      const std::int64_t start = now_ns();
      const attack::ScenarioOutcome outcome =
          attack::run_scenario(scenario, runner);
      table1_ns += now_ns() - start;
      if (options.trace) log.end();
      ++table1_runs;
      hazards[r] += outcome.hazard ? 1 : 0;
      frames += outcome.frames_on_bus;
      hpe_blocked += outcome.hpe_blocked;
      digest.add(outcome.hazard ? 1 : 0);
      digest.add(outcome.frames_on_bus);
      digest.add(outcome.hpe_blocked);
    }
  }

  std::vector<std::uint32_t> family_spans;
  for (const attack::Family family : attack::kAllFamilies) {
    family_spans.push_back(
        log.name("attack.campaign." + std::string(to_string(family))));
  }
  std::int64_t campaign_ns = 0;
  std::size_t campaign_runs = 0;
  std::uint64_t alerts = 0;
  std::uint64_t quarantine = 0;
  std::uint64_t oracle_failures = 0;
  for (int c = 0; c < kCampaigns; ++c) {
    const attack::CampaignRunner campaign(campaign_options(options.seed, c));
    attack::CampaignReport report;
    report.seed = campaign.plan().options().seed;
    report.scenarios_per_family = campaign.plan().options().scenarios_per_family;
    for (std::size_t f = 0; f < attack::kAllFamilies.size(); ++f) {
      const attack::Family family = attack::kAllFamilies[f];
      for (std::uint32_t i = 0; i < report.scenarios_per_family; ++i) {
        if (options.trace) log.begin(family_spans[f]);
        const std::int64_t start = now_ns();
        report.scenarios.push_back(campaign.run(family, i));
        campaign_ns += now_ns() - start;
        if (options.trace) log.end();
        ++campaign_runs;
        const attack::ScenarioReport& s = report.scenarios.back();
        alerts += s.flagged;
        quarantine += s.quarantine_blocks + s.quarantine_isolations +
                      s.quarantine_escalations;
        oracle_failures += attack::verdict_is_failure(s.verdict) ? 1 : 0;
      }
    }
    digest.add(report.to_json());
  }

  std::uint64_t shape_misses = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    const std::size_t miss = hazards[r] > kExpectedHazards[r]
                                 ? hazards[r] - kExpectedHazards[r]
                                 : kExpectedHazards[r] - hazards[r];
    shape_misses += miss;
    if (miss != 0) {
      result.problems.push_back(std::string("Table I hazards under ") +
                                kRegimes[r].label + ": " +
                                std::to_string(hazards[r]) + ", expected " +
                                std::to_string(kExpectedHazards[r]));
    }
  }
  if (oracle_failures != 0) {
    result.problems.push_back(std::to_string(oracle_failures) +
                              " generated scenarios ended silent-success or "
                              "no-effect");
  }

  result.digest = digest.hex();
  result.attempted = table1_runs + campaign_runs;
  result.failed = oracle_failures + shape_misses;
  const auto scenarios = static_cast<double>(result.attempted);
  result.set("host_ns_per_op",
             static_cast<double>(table1_ns + campaign_ns) / scenarios);
  result.set("setup_s", median(setups));
  result.set("peak_rss_mb", peak_rss_mb());
  if (!options.trace) return result;

  result.set("attack.table1_ms_per_scenario",
             static_cast<double>(table1_ns) / 1e6 /
                 static_cast<double>(table1_runs));
  result.set("attack.campaign_ms_per_scenario",
             static_cast<double>(campaign_ns) / 1e6 /
                 static_cast<double>(campaign_runs));
  result.set("attack.frames_per_scenario",
             static_cast<double>(frames) / static_cast<double>(table1_runs));
  result.set("attack.hpe_blocked_per_scenario",
             static_cast<double>(hpe_blocked) /
                 static_cast<double>(table1_runs));
  result.set("monitor.alerts", static_cast<double>(alerts));
  result.set("car.quarantine_actions", static_cast<double>(quarantine));
  add_vehicle_build_metrics(result);
  // Share of the Table I runs spent building their vehicles.
  double build_us = 0.0;
  for (const auto& [name, value] : result.metrics) {
    if (name.rfind("car.vehicle_build_us.", 0) == 0) build_us += value;
  }
  const double per_regime = static_cast<double>(attack::all_scenarios().size());
  result.set("car.vehicle_build_share",
             build_us * 1e3 * per_regime / static_cast<double>(table1_ns));

  if (!options.spans_path.empty() && !log.write(options.spans_path)) {
    result.problems.push_back("could not write spans to " + options.spans_path);
  }
  return result;
}

}  // namespace perfbench
