// Fleet-scale enforcement driven by the discrete-event scheduler: ten
// thousand simulated vehicles share ONE compiled policy image and ONE
// SID interner; each simulation tick answers the whole fleet's policy
// questions in one batched sweep (FleetEvaluator::tick) while scheduled
// events move individual vehicles between operating modes (one car
// crashes into fail-safe, another enters remote diagnostics — the rest
// keep driving).
//
// The sweep also feeds fleet telemetry: per-vehicle deny counts go to
// monitor::DenyStreakMonitor, which flags vehicles whose denials persist
// across consecutive sweeps (compromised-vehicle candidates) instead of
// merely tallying fleet-wide allow/deny totals. Three vehicles are wedged
// in fail-safe for the whole run; the example prints a "(BUG)" line and
// exits 1 unless each is flagged with a streak as long as the run.
//
// Build & run:  ./build/examples/example_fleet_scale
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "monitor/anomaly.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

using namespace psme;
using namespace std::chrono_literals;

int main() {
  std::printf("=== One policy image, ten thousand vehicles ===\n\n");

  const auto model = car::connected_car_threat_model();
  const core::PolicySet policy = car::full_policy(model);
  const core::CompiledPolicyImage& image = policy.image();
  std::printf("compiled image: %zu packed rules, fingerprint %016llx, "
              "%zu interned names shared fleet-wide\n\n",
              image.size(),
              static_cast<unsigned long long>(image.fingerprint()),
              image.sids().size());

  const std::size_t fleet_size = 10000;
  car::FleetEvaluator fleet(image, car::default_fleet_checks(), fleet_size);

  // Calibrate the telemetry threshold from one baseline sweep: a normal-
  // mode vehicle's denials are policy background, anything above it is a
  // vehicle behaving outside its mode's envelope.
  const car::FleetTickStats baseline = fleet.tick();
  monitor::DenyStreakOptions streak_options;
  streak_options.deny_threshold = baseline.vehicle_denied[0] + 1;
  streak_options.streak_ticks = 3;
  monitor::DenyStreakMonitor streaks(fleet_size, streak_options);

  // Three vehicles are "compromised": wedged in fail-safe, denied above
  // the normal-mode background on every sweep.
  const std::size_t wedged[] = {17, 4242, 9001};
  for (const std::size_t vehicle : wedged) {
    fleet.set_mode(vehicle, car::CarMode::kFailSafe);
  }

  sim::Scheduler sched;
  sim::Rng rng(2026);
  car::FleetTickStats totals;
  std::uint64_t ticks = 0;

  // Every 100 ms of simulated time: a handful of vehicles change mode,
  // then the whole fleet is policed in one batched sweep and the
  // per-vehicle deny counts feed the streak monitor.
  sim::PeriodicTask ticker(
      sched, sched.now(), 100ms,
      [&] {
        for (int changes = 0; changes < 5; ++changes) {
          const auto vehicle =
              static_cast<std::size_t>(rng.uniform(0, fleet_size - 1));
          const std::uint64_t draw = rng.uniform(0, 9);
          fleet.set_mode(vehicle,
                         draw < 8 ? car::CarMode::kNormal
                         : draw == 8 ? car::CarMode::kRemoteDiagnostic
                                     : car::CarMode::kFailSafe);
        }
        const car::FleetTickStats stats = fleet.tick();
        streaks.observe_tick(stats.vehicle_denied);
        totals.decisions += stats.decisions;
        totals.allowed += stats.allowed;
        totals.denied += stats.denied;
        ++ticks;
      },
      "fleet-tick");

  sched.run_until(sched.now() + 1s);
  ticker.stop();

  std::printf("simulated 1 s: %llu ticks, %llu decisions "
              "(%llu allowed, %llu denied)\n",
              static_cast<unsigned long long>(ticks),
              static_cast<unsigned long long>(totals.decisions),
              static_cast<unsigned long long>(totals.allowed),
              static_cast<unsigned long long>(totals.denied));
  std::printf("per tick: %zu vehicles x %zu checks = %zu decisions, "
              "zero strings touched, zero allocations after warm-up\n\n",
              fleet.fleet_size(), fleet.checks_per_vehicle(),
              fleet.fleet_size() * fleet.checks_per_vehicle());

  std::printf("deny-streak telemetry (threshold %u denies/tick, streak %u "
              "ticks): %zu vehicle(s) flagged\n",
              streak_options.deny_threshold, streak_options.streak_ticks,
              streaks.flagged().size());
  for (const std::uint32_t vehicle : streaks.flagged()) {
    std::printf("  vehicle %5u — compromised-vehicle candidate "
                "(streak %u ticks)\n",
                vehicle, streaks.streak(vehicle));
  }

  bool ok = true;
  for (const std::size_t vehicle : wedged) {
    const bool flagged = std::ranges::find(streaks.flagged(), vehicle) !=
                         streaks.flagged().end();
    if (!flagged || streaks.streak(vehicle) != ticks) {
      std::printf("(BUG) wedged vehicle %zu not flagged with a %llu-tick "
                  "streak\n",
                  vehicle, static_cast<unsigned long long>(ticks));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
