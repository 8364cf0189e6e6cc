// Fleet-scale policy evaluation sweep: how much does the SID-native
// pipeline buy once millions of vehicles share one compiled image?
//
// For fleet sizes 1, 10^2, 10^4 and 10^6 the same per-vehicle workload
// (every entry-point x asset x access question the binding layer asks)
// is evaluated three ways against the same deployed policy:
//
//   strings  — the legacy shim: an AccessRequest is assembled per
//              element and every name re-hashed inside PolicySet;
//   scalar   — identities pre-resolved to SIDs once, per-element
//              CompiledPolicyImage::evaluate;
//   batched  — car::FleetEvaluator's chunked evaluate_batch sweep over
//              the whole fleet (the product path).
// The two baselines are local loops below; only the product path lives
// in the library.
//
// All three must produce identical allow/deny tallies (checked; the
// byte-level Decision parity lives in tests/test_policy_image.cpp).
// Expected result: batched >= 3x faster than strings at 10^4 vehicles.
// A JSON record of the sweep is printed for BENCH_fleet_eval.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy_compiler.h"
#include "core/policy_image.h"
#include "host_note.h"
#include "sim/rng.h"

using namespace psme;

namespace {

using Clock = std::chrono::steady_clock;

struct PathResult {
  double ns_per_decision = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t allowed = 0;
};

template <typename Tick>
PathResult measure(std::uint64_t target_decisions, Tick&& tick) {
  PathResult result;
  // One untimed warm-up tick fills caches and (for the batched path) the
  // reused request/decision buffers.
  (void)tick();
  const auto start = Clock::now();
  double elapsed_ns = 0.0;
  do {
    const car::FleetTickStats stats = tick();
    result.decisions += stats.decisions;
    result.allowed += stats.allowed;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  } while (result.decisions < target_decisions);
  result.ns_per_decision = elapsed_ns / static_cast<double>(result.decisions);
  return result;
}

/// Deterministically spreads the fleet across operating modes
/// (~80% normal, ~10% remote-diagnostic, ~10% fail-safe).
void scatter_modes(car::FleetEvaluator& fleet, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::size_t v = 0; v < fleet.fleet_size(); ++v) {
    const std::uint64_t draw = rng.uniform(0, 9);
    if (draw == 8) {
      fleet.set_mode(v, car::CarMode::kRemoteDiagnostic);
    } else if (draw == 9) {
      fleet.set_mode(v, car::CarMode::kFailSafe);
    }
  }
}

/// Every vehicle's mode, read back once so the baselines below replay
/// exactly the fleet state tick() sweeps.
std::vector<car::CarMode> fleet_modes(const car::FleetEvaluator& fleet) {
  std::vector<car::CarMode> modes(fleet.fleet_size());
  for (std::size_t v = 0; v < modes.size(); ++v) modes[v] = fleet.mode(v);
  return modes;
}

/// Baseline: the legacy string pipeline. An AccessRequest is assembled
/// per element (string copies) and every name re-hashed inside
/// PolicySet::evaluate's interning shim.
car::FleetTickStats tick_strings(const core::PolicySet& policy,
                                 const std::vector<car::FleetCheck>& checks,
                                 const std::vector<car::CarMode>& modes) {
  std::array<threat::ModeId, std::size(car::kAllModes)> mode_ids;
  for (const car::CarMode mode : car::kAllModes) {
    mode_ids[static_cast<std::size_t>(mode)] = car::mode_id(mode);
  }
  car::FleetTickStats stats;
  for (const car::CarMode mode : modes) {
    const threat::ModeId& mode_id = mode_ids[static_cast<std::size_t>(mode)];
    for (const car::FleetCheck& check : checks) {
      const core::AccessRequest request{check.subject, check.object,
                                        check.access, mode_id};
      const core::Decision decision = policy.evaluate(request);
      decision.allowed ? ++stats.allowed : ++stats.denied;
      ++stats.decisions;
    }
  }
  return stats;
}

/// The checks interned to SIDs once (mode filled per vehicle), exactly
/// as FleetEvaluator resolves them at construction.
std::vector<core::SidRequest> resolve_checks(
    const core::CompiledPolicyImage& image,
    const std::vector<car::FleetCheck>& checks) {
  mac::SidTable& sids = *image.sid_table();
  std::vector<core::SidRequest> resolved;
  resolved.reserve(checks.size());
  for (const car::FleetCheck& check : checks) {
    core::SidRequest request;
    request.subject = sids.intern(check.subject);
    request.object = sids.intern(check.object);
    request.access = check.access;
    resolved.push_back(request);
  }
  return resolved;
}

/// Baseline: the same pre-resolved requests, per-element
/// CompiledPolicyImage::evaluate — what batching saves.
car::FleetTickStats tick_scalar(const core::CompiledPolicyImage& image,
                                const std::vector<core::SidRequest>& resolved,
                                const std::vector<car::CarMode>& modes) {
  std::array<mac::Sid, std::size(car::kAllModes)> mode_sids{};
  for (const car::CarMode mode : car::kAllModes) {
    mode_sids[static_cast<std::size_t>(mode)] =
        image.mode_sid(car::mode_id(mode));
  }
  car::FleetTickStats stats;
  for (const car::CarMode mode : modes) {
    const mac::Sid mode_sid = mode_sids[static_cast<std::size_t>(mode)];
    for (core::SidRequest request : resolved) {
      request.mode = mode_sid;
      const core::Decision decision = image.evaluate(request);
      decision.allowed ? ++stats.allowed : ++stats.denied;
      ++stats.decisions;
    }
  }
  return stats;
}

/// Deterministic subsample of the standard workload, for the 10^6 row
/// (the full 100+ question set times a million vehicles would make the
/// string baseline take minutes; per-decision cost is what the sweep
/// compares, so a slimmer per-vehicle workload keeps rows comparable).
std::vector<car::FleetCheck> subsample(std::vector<car::FleetCheck> all,
                                       std::size_t keep, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<car::FleetCheck> out;
  out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    out.push_back(all[rng.uniform(0, all.size() - 1)]);
  }
  return out;
}

/// Regression gate, enforced by exit status (CI smoke-runs this bench):
/// the batched path at 10^6 vehicles must stay within 1.2x of the ns per
/// decision recorded BEFORE the vectorised decision core landed
/// (BENCH_fleet_eval.json history: 21.3 ns batched). The gate is
/// deliberately anchored to the old baseline, not the vectorised number:
/// it catches a de-vectorisation regression (losing the staged pipeline
/// would roughly double the figure) while staying robust to ordinary
/// runner-to-runner noise.
constexpr double kPreVectorBaselineNs = 21.3;
constexpr double kGateLimitNs = kPreVectorBaselineNs * 1.2;

}  // namespace

int main() {
  std::printf("=== Fleet-scale policy evaluation: string shim vs scalar SID "
              "vs batched ===\n\n");

  const auto model = car::connected_car_threat_model();
  const core::PolicySet policy = car::full_policy(model);
  const core::CompiledPolicyImage& image = policy.image();

  const core::PolicySet derived = core::PolicyCompiler().compile(model);
  std::printf("policy: %zu rules (+%zu base grants), image fingerprint "
              "%016llx, %zu interned names\n\n",
              derived.size(), policy.size() - derived.size(),
              static_cast<unsigned long long>(image.fingerprint()),
              image.sids().size());

  const std::vector<car::FleetCheck> full_checks = car::default_fleet_checks();

  struct Row {
    std::size_t fleet_size;
    std::size_t checks;
    PathResult strings, scalar, batched;
  };
  std::vector<Row> rows;
  bool parity_ok = true;

  const std::size_t sweep[] = {1, 100, 10000, 1000000};
  for (const std::size_t fleet_size : sweep) {
    const std::vector<car::FleetCheck> checks =
        fleet_size >= 1000000 ? subsample(full_checks, 8, 99) : full_checks;

    car::FleetEvaluator fleet(image, checks, fleet_size);
    scatter_modes(fleet, 7);

    const std::uint64_t per_tick = fleet_size * checks.size();
    const std::uint64_t sid_target = std::max<std::uint64_t>(per_tick, 2000000);
    const std::uint64_t str_target = std::max<std::uint64_t>(per_tick, 1000000);

    const std::vector<car::CarMode> modes = fleet_modes(fleet);
    const std::vector<core::SidRequest> resolved = resolve_checks(image, checks);

    Row row;
    row.fleet_size = fleet_size;
    row.checks = checks.size();
    row.strings = measure(str_target,
                          [&] { return tick_strings(policy, checks, modes); });
    row.scalar = measure(sid_target,
                         [&] { return tick_scalar(image, resolved, modes); });
    row.batched = measure(sid_target, [&] { return fleet.tick(); });

    const auto rate = [](const PathResult& r) {
      return static_cast<double>(r.allowed) / static_cast<double>(r.decisions);
    };
    if (rate(row.strings) != rate(row.scalar) ||
        rate(row.strings) != rate(row.batched)) {
      std::printf("FAIL: allow-rate mismatch at fleet size %zu\n", fleet_size);
      parity_ok = false;
    }

    std::printf("fleet %8zu  (%3zu checks/vehicle, %5.1f%% allowed)\n",
                fleet_size, checks.size(), 100.0 * rate(row.batched));
    std::printf("  strings  %8.1f ns/decision\n", row.strings.ns_per_decision);
    std::printf("  scalar   %8.1f ns/decision  (%.2fx vs strings)\n",
                row.scalar.ns_per_decision,
                row.strings.ns_per_decision / row.scalar.ns_per_decision);
    std::printf("  batched  %8.1f ns/decision  (%.2fx vs strings)\n\n",
                row.batched.ns_per_decision,
                row.strings.ns_per_decision / row.batched.ns_per_decision);
    rows.push_back(row);
  }

  // Acceptance: batched >= 3x over the string shim at 10^4 vehicles.
  for (const Row& row : rows) {
    if (row.fleet_size == 10000) {
      const double speedup =
          row.strings.ns_per_decision / row.batched.ns_per_decision;
      std::printf("batched speedup at 10^4 vehicles: %.2fx (target >= 3x) — "
                  "%s\n\n",
                  speedup, speedup >= 3.0 ? "met" : "MISSED");
    }
  }

  // Probe-depth histogram: slots the sealed index inspects per request
  // (summed over the four probe keys, so the floor is 4 = every key
  // answered by its origin slot). One 10^4-vehicle tick's request stream
  // observed through the chunk sink — the exact stream the batched row
  // timed.
  std::map<std::uint32_t, std::uint64_t> depth_histogram;
  {
    car::FleetEvaluator fleet(image, full_checks, 10000);
    scatter_modes(fleet, 7);
    (void)fleet.tick([&](std::span<const core::SidRequest> requests,
                         std::span<const core::Decision>) {
      for (const core::SidRequest& request : requests) {
        ++depth_histogram[image.probe_depth(request)];
      }
    });
  }
  std::printf("probe depth (slots inspected per request, 4 keys):\n");
  for (const auto& [depth, count] : depth_histogram) {
    std::printf("  %2u slots: %llu requests\n", depth,
                static_cast<unsigned long long>(count));
  }

  // De-vectorisation regression gate (see kGateLimitNs above).
  double gate_measured = 0.0;
  for (const Row& row : rows) {
    if (row.fleet_size == 1000000) gate_measured = row.batched.ns_per_decision;
  }
  const bool gate_ok = gate_measured <= kGateLimitNs;
  std::printf("\ngate: batched at 10^6 vehicles %.1f ns/decision vs limit "
              "%.1f ns (1.2x pre-vectorisation baseline %.1f) — %s\n\n",
              gate_measured, kGateLimitNs, kPreVectorBaselineNs,
              gate_ok ? "met" : "MISSED");

  // Machine-readable record (BENCH_fleet_eval.json).
  std::printf("JSON: {\"bench\":\"fleet_eval\",\"unit\":\"ns/decision\",");
  benchhost::print_host_json();
  std::printf(",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%s{\"fleet_size\":%zu,\"checks_per_vehicle\":%zu,"
                "\"strings\":%.1f,\"scalar\":%.1f,\"batched\":%.1f}",
                i == 0 ? "" : ",", row.fleet_size, row.checks,
                row.strings.ns_per_decision, row.scalar.ns_per_decision,
                row.batched.ns_per_decision);
  }
  std::printf("],\"probe_depth_histogram\":{");
  bool first_bucket = true;
  for (const auto& [depth, count] : depth_histogram) {
    std::printf("%s\"%u\":%llu", first_bucket ? "" : ",", depth,
                static_cast<unsigned long long>(count));
    first_bucket = false;
  }
  std::printf("},\"gate\":{\"metric\":\"batched_ns_at_1e6\","
              "\"limit_ns\":%.1f,\"measured_ns\":%.1f,\"pass\":%s}}\n",
              kGateLimitNs, gate_measured, gate_ok ? "true" : "false");

  return parity_ok && gate_ok ? 0 : 1;
}
