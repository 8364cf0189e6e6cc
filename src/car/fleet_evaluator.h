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
// Fleet sweeps are embarrassingly parallel: a sealed image is immutable
// and its evaluation pure, so tick_parallel(n) shards the fleet into
// contiguous vehicle ranges and sweeps them on a worker pool — per-worker
// capacity-warm buffers, cache-line-padded per-worker tallies, and a
// deterministic merge that makes the decision stream byte-identical to
// the sequential tick() for ANY thread count (test-pinned).
//
// Evaluation paths:
//   tick()          — batched SID path (the product);
//   tick_parallel() — the same sweep sharded across n worker threads.
// Both produce byte-identical Decisions for the same fleet state. The
// per-element and string-pipeline baselines they are priced against
// live in bench/bench_fleet_eval.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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

struct FleetEvaluatorOptions {
  std::size_t fleet_size = 1;
  CarMode initial_mode = CarMode::kNormal;
  /// Decisions materialised per evaluate_batch call; bounds peak memory
  /// (the fleet never holds more than this many Decisions at once).
  /// Defaults to the chunk the engine's staged pipeline reserves its
  /// scratch for, so the default fleet never grows engine scratch.
  std::size_t batch_chunk = core::kRecommendedBatchChunk;
};

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

  /// Resolves `checks` against the image's interner once. The image must
  /// outlive the evaluator. Throws std::invalid_argument on an empty
  /// fleet, an empty workload or a zero chunk size.
  FleetEvaluator(const core::CompiledPolicyImage& image,
                 std::vector<FleetCheck> checks,
                 FleetEvaluatorOptions options = {});

  /// Parks and joins the persistent worker pool, if one was ever started.
  ~FleetEvaluator();

  /// The worker pool's threads capture `this`; the evaluator is pinned.
  FleetEvaluator(const FleetEvaluator&) = delete;
  FleetEvaluator& operator=(const FleetEvaluator&) = delete;
  FleetEvaluator(FleetEvaluator&&) = delete;
  FleetEvaluator& operator=(FleetEvaluator&&) = delete;

  [[nodiscard]] std::size_t fleet_size() const noexcept {
    return vehicle_modes_.size();
  }
  [[nodiscard]] std::size_t checks_per_vehicle() const noexcept {
    return resolved_.size();
  }
  [[nodiscard]] const core::CompiledPolicyImage& image() const noexcept {
    return image_;
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

  /// One fleet sweep sharded across `n_threads` workers, each sweeping a
  /// contiguous vehicle range with its own capacity-warm buffers against
  /// the shared sealed image (safe: see CompiledPolicyImage's concurrency
  /// contract). Per-worker tallies are cache-line padded and merged
  /// deterministically in shard order, so for any thread count the
  /// returned stats — per-vehicle deny counts included — and the
  /// concatenated decision stream are byte-identical to tick()'s
  /// (chunk BOUNDARIES seen by a sink may differ; the concatenation never
  /// does). With a sink, workers record their shard's requests/decisions
  /// and the calling thread replays them in fleet order after the join.
  /// Thread counts above the fleet size are clamped; n_threads == 1 runs
  /// entirely on the calling thread. Throws std::invalid_argument on 0.
  ///
  /// Worker threads are PERSISTENT: the first sweep at a given thread
  /// count starts k-1 pool threads that then sleep on a condition
  /// variable between ticks — a steady-state sweep costs two lock
  /// hand-offs instead of k-1 thread spawns (~20 µs each), which is what
  /// opens sub-millisecond tick budgets for small fleets. The pool is
  /// torn down and restarted only when the effective thread count
  /// changes; the destructor parks and joins it.
  FleetTickStats tick_parallel(std::size_t n_threads,
                               const ChunkSink& sink = {});

 private:
  /// Per-worker state for tick_parallel, cache-line aligned so one
  /// worker's hot tallies and buffer headers never share a line with a
  /// neighbour's (no false sharing). Buffers are capacity-warm: reused
  /// across ticks while the thread count stays the same.
  struct alignas(64) Worker {
    std::vector<core::SidRequest> batch;
    /// Counting mode: one verdict byte per queued request
    /// (evaluate_batch_allowed) — no Decision is materialised.
    std::vector<std::uint8_t> flags;
    /// Sink mode only: the shard's full request/decision stream, replayed
    /// to the sink in fleet order by the calling thread after the join.
    std::vector<core::SidRequest> captured_requests;
    std::vector<core::Decision> captured_decisions;
    std::uint64_t allowed = 0;
    std::uint64_t denied = 0;
  };

  /// Appends vehicle `v`'s requests; flushes full chunks through the
  /// batched evaluator.
  void flush(FleetTickStats& stats, const ChunkSink& sink);

  /// Sweeps vehicles [begin, end) into `worker`'s buffers/tallies.
  /// Writes vehicle_denied_[begin, end) — disjoint across workers.
  void sweep_range(Worker& worker, std::size_t begin, std::size_t end,
                   bool capture);

  /// Condition-variable worker pool (defined in the .cpp): k-1 threads
  /// parked between ticks, woken per sweep by an epoch bump. All shared
  /// per-tick state (workers_, errors_, vehicle_denied_, vehicle modes)
  /// is written by the owner BEFORE the epoch bump and read by workers
  /// after they observe it under the pool mutex — the lock pair is the
  /// only synchronisation a sweep needs.
  struct Pool;

  /// Starts (or restarts, when the thread count changed) the pool with
  /// k-1 parked threads. No-op when the right-sized pool already runs.
  void ensure_pool(std::size_t k);
  /// Parks, joins and discards the pool. Safe when none exists.
  void stop_pool() noexcept;
  /// Body of pool thread `w` (workers_[w] is its slot).
  void worker_loop(std::size_t w);

  const core::CompiledPolicyImage& image_;
  std::vector<core::SidRequest> resolved_;     // mode filled per tick
  std::array<mac::Sid, 3> mode_sids_{};        // CarMode -> image mode SID
  std::vector<std::uint8_t> vehicle_modes_;
  std::size_t batch_chunk_;
  /// Chunk buffers, reused across flushes and ticks (capacity-warm).
  /// Counting ticks fill flags_ (one verdict byte per request); only
  /// sink-observed ticks materialise decisions_.
  std::vector<core::SidRequest> batch_;
  std::vector<core::Decision> decisions_;
  std::vector<std::uint8_t> flags_;
  /// Per-vehicle deny counts of the most recent tick()/tick_parallel()
  /// (the storage FleetTickStats::vehicle_denied views); reused.
  std::vector<std::uint32_t> vehicle_denied_;
  /// Global decision offset of the chunk being flushed (tick() only);
  /// maps a chunk-local index back to its vehicle for deny attribution.
  std::size_t tick_offset_ = 0;
  /// Worker pool state, persistent across ticks (recreated only when the
  /// requested thread count changes).
  std::vector<Worker> workers_;
  /// Per-worker exception transport for the current sweep.
  std::vector<std::exception_ptr> errors_;
  /// The parked threads themselves (null until the first multi-threaded
  /// sweep; k-1 threads while alive).
  std::unique_ptr<Pool> pool_;
};

}  // namespace psme::car
