// psme::car — batched policy evaluation for whole fleets.
//
// The paper's scalability argument (software MAC is affordable because
// the cache answers the hot path) only holds fleet-wide if millions of
// simulated vehicles share one compiled SID-space image instead of each
// re-hashing strings per request. FleetEvaluator is that boundary: it
// resolves every vehicle's entity labels to SIDs exactly once at
// construction, keeps one mode byte per vehicle, and per simulation tick
// drives the image's batched evaluator over the whole fleet in
// fixed-size chunks whose request/decision buffers are reused — after
// the first tick, a fleet sweep performs no heap allocation.
//
// tick() is the one fleet sweep. The per-element and string-pipeline
// baselines it is priced against live in bench/bench_fleet_eval.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "car/modes.h"
#include "core/policy.h"
#include "core/policy_image.h"

namespace psme::car {

/// One logical access question every vehicle asks per tick.
struct FleetCheck {
  std::string subject;  // entry-point id
  std::string object;   // asset id
  core::AccessType access = core::AccessType::kRead;
};

/// The standard per-vehicle workload: every (hosted entry point, asset,
/// access) question the binding layer asks when policing a vehicle —
/// the fleet-scale version of BindingCompiler's question space.
[[nodiscard]] std::vector<FleetCheck> default_fleet_checks();

struct FleetTickStats {
  std::uint64_t decisions = 0;
  std::uint64_t allowed = 0;
  std::uint64_t denied = 0;
  /// Per-vehicle deny counts for this tick (index = vehicle), the
  /// fleet-scale telemetry feed: monitor::DenyStreakMonitor consumes it
  /// to flag per-vehicle deny streaks (compromised-vehicle candidates).
  /// Views evaluator-owned storage — valid until the evaluator's next
  /// tick or destruction.
  std::span<const std::uint32_t> vehicle_denied{};
};

class FleetEvaluator {
 public:
  /// Observes each flushed chunk: the requests answered and their
  /// decisions, in fleet order (vehicle-major, check-minor). Used by
  /// audit/parity consumers; the counting paths skip it.
  using ChunkSink = std::function<void(std::span<const core::SidRequest>,
                                       std::span<const core::Decision>)>;

  /// Resolves `checks` against the image's interner once; every one of
  /// the `fleet_size` vehicles starts in CarMode::kNormal. The image must
  /// outlive the evaluator. Throws std::invalid_argument on an empty
  /// fleet or an empty workload.
  FleetEvaluator(const core::CompiledPolicyImage& image,
                 std::vector<FleetCheck> checks, std::size_t fleet_size = 1);

  FleetEvaluator(const FleetEvaluator&) = delete;
  FleetEvaluator& operator=(const FleetEvaluator&) = delete;

  [[nodiscard]] std::size_t fleet_size() const noexcept {
    return vehicle_modes_.size();
  }
  [[nodiscard]] std::size_t checks_per_vehicle() const noexcept {
    return resolved_.size();
  }

  /// Per-vehicle operational mode (mode changes are per vehicle: one
  /// car enters fail-safe, the rest keep driving).
  void set_mode(std::size_t vehicle, CarMode mode);
  [[nodiscard]] CarMode mode(std::size_t vehicle) const;

  /// One fleet sweep through the batched SID path. With a sink, each
  /// chunk is surfaced after evaluation (parity checking, auditing).
  /// Without one, the sweep runs the image's verdict-only batch variant
  /// (evaluate_batch_allowed) — the tallies and telemetry are identical,
  /// but no Decision strings are copied, which is the cheapest way
  /// through the staged pipeline.
  FleetTickStats tick(const ChunkSink& sink = {});

 private:
  /// Evaluates the queued chunk through the batched evaluator, tallies
  /// its verdicts (attributing denials to their vehicles), hands it to
  /// the sink if there is one, and clears it — also when the sink throws.
  void flush(FleetTickStats& stats, const ChunkSink& sink);

  const core::CompiledPolicyImage& image_;
  std::vector<core::SidRequest> resolved_;     // mode filled per tick
  std::array<mac::Sid, 3> mode_sids_{};        // CarMode -> image mode SID
  std::vector<std::uint8_t> vehicle_modes_;
  /// Chunk buffers, reused across flushes and ticks (capacity-warm).
  /// Counting ticks fill flags_ (one verdict byte per request); only
  /// sink-observed ticks materialise decisions_.
  std::vector<core::SidRequest> batch_;
  std::vector<core::Decision> decisions_;
  std::vector<std::uint8_t> flags_;
  /// Per-vehicle deny counts of the most recent tick() (the storage
  /// FleetTickStats::vehicle_denied views); reused.
  std::vector<std::uint32_t> vehicle_denied_;
  /// Global decision offset of the chunk being flushed; maps a
  /// chunk-local index back to its vehicle for deny attribution.
  std::size_t tick_offset_ = 0;
};

}  // namespace psme::car
