#include "car/fleet_evaluator.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "car/ids.h"

namespace psme::car {

/// The persistent pool: k-1 threads parked on `work_cv` between sweeps.
/// The owner publishes a sweep by writing the job fields and bumping
/// `epoch` under `m`, then notifying; each worker runs its shard and the
/// last one to finish signals `done_cv`. `stop` parks the pool for good
/// (destructor / thread-count change). The mutex is held only around the
/// hand-offs — the sweeps themselves run lock-free on disjoint state.
struct FleetEvaluator::Pool {
  std::mutex m;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;     // bumped once per sweep
  std::size_t pending = 0;     // pool workers still in the current sweep
  bool stop = false;
  bool capture = false;        // job: sink mode?
  std::size_t fleet = 0;       // job: fleet size to shard
  std::size_t k = 0;           // job: total worker count (incl. caller)
  std::vector<std::thread> threads;  // workers 1..k-1
};

std::vector<FleetCheck> default_fleet_checks() {
  // Every question the binding layer asks when policing one vehicle:
  // each hosted entry point against each asset, read and write. The
  // deterministic (node-binding, asset-binding) order matters — fleet
  // sweeps must replay identically across runs (DESIGN.md §8).
  std::vector<FleetCheck> checks;
  for (const NodeBinding& node : node_bindings()) {
    for (const std::string& entry_point : node.entry_points) {
      for (const AssetBinding& asset : asset_bindings()) {
        for (const core::AccessType access :
             {core::AccessType::kRead, core::AccessType::kWrite}) {
          checks.push_back(FleetCheck{entry_point, asset.asset_id, access});
        }
      }
    }
  }
  return checks;
}

FleetEvaluator::FleetEvaluator(const core::CompiledPolicyImage& image,
                               std::vector<FleetCheck> checks,
                               FleetEvaluatorOptions options)
    : image_(image), batch_chunk_(options.batch_chunk) {
  if (options.fleet_size == 0) {
    throw std::invalid_argument("FleetEvaluator: empty fleet");
  }
  if (checks.empty()) {
    throw std::invalid_argument("FleetEvaluator: empty per-vehicle workload");
  }
  if (batch_chunk_ == 0) {
    throw std::invalid_argument("FleetEvaluator: zero batch chunk");
  }

  // The once-per-fleet string boundary: every entity and mode name is
  // resolved into the image's shared SID space here; ticks never touch a
  // string again. Interning (rather than find) gives entities the policy
  // never names a stable SID too, so the memo of SIDs is total.
  mac::SidTable& sids = *image_.sid_table();
  resolved_.reserve(checks.size());
  for (const FleetCheck& check : checks) {
    core::SidRequest request;
    request.subject = sids.intern(check.subject);
    request.object = sids.intern(check.object);
    request.access = check.access;
    request.mode = mac::kNullSid;  // filled per vehicle at tick time
    resolved_.push_back(request);
  }
  for (CarMode mode : kAllModes) {
    mode_sids_[static_cast<std::size_t>(mode)] =
        image_.mode_sid(mode_id(mode));
  }

  vehicle_modes_.assign(options.fleet_size,
                        static_cast<std::uint8_t>(options.initial_mode));
  vehicle_denied_.assign(options.fleet_size, 0);
  batch_.reserve(batch_chunk_);
  decisions_.reserve(batch_chunk_);
  flags_.reserve(batch_chunk_);
}

FleetEvaluator::~FleetEvaluator() { stop_pool(); }

void FleetEvaluator::set_mode(std::size_t vehicle, CarMode mode) {
  vehicle_modes_.at(vehicle) = static_cast<std::uint8_t>(mode);
}

CarMode FleetEvaluator::mode(std::size_t vehicle) const {
  return static_cast<CarMode>(vehicle_modes_.at(vehicle));
}

void FleetEvaluator::flush(FleetTickStats& stats, const ChunkSink& sink) {
  if (batch_.empty()) return;
  const std::size_t checks = resolved_.size();
  if (sink) {
    decisions_.resize(batch_.size());
    image_.evaluate_batch(batch_, decisions_);
    flags_.resize(batch_.size());
    for (std::size_t j = 0; j < decisions_.size(); ++j) {
      flags_[j] = decisions_[j].allowed ? 1 : 0;
    }
  } else {
    // Counting tick: the verdict byte is all this path reads, so skip
    // the Decision copy wave entirely (evaluate_batch_allowed is pinned
    // element-identical to evaluate_batch's allow bits).
    flags_.resize(batch_.size());
    image_.evaluate_batch_allowed(batch_, flags_);
  }
  for (std::size_t j = 0; j < flags_.size(); ++j) {
    if (flags_[j] != 0) {
      ++stats.allowed;
    } else {
      ++stats.denied;
      // Deny-path only: one division attributes the decision back to its
      // vehicle for the per-vehicle telemetry.
      ++vehicle_denied_[(tick_offset_ + j) / checks];
    }
  }
  stats.decisions += batch_.size();
  tick_offset_ += batch_.size();
  if (sink) {
    try {
      sink(batch_, decisions_);
    } catch (...) {
      // A throwing sink must not leave this chunk queued: the next
      // tick() would replay it (stale modes, double counting) ahead of
      // fresh requests.
      batch_.clear();
      throw;
    }
  }
  batch_.clear();
}

FleetTickStats FleetEvaluator::tick(const ChunkSink& sink) {
  FleetTickStats stats;
  vehicle_denied_.assign(vehicle_denied_.size(), 0);
  tick_offset_ = 0;
  for (const std::uint8_t mode : vehicle_modes_) {
    const mac::Sid mode_sid = mode_sids_[mode];
    for (const core::SidRequest& request : resolved_) {
      core::SidRequest& queued = batch_.emplace_back(request);
      queued.mode = mode_sid;
      if (batch_.size() == batch_chunk_) flush(stats, sink);
    }
  }
  flush(stats, sink);
  stats.vehicle_denied = vehicle_denied_;
  return stats;
}

void FleetEvaluator::sweep_range(Worker& worker, std::size_t begin,
                                 std::size_t end, bool capture) {
  const std::size_t checks = resolved_.size();
  if (capture) {
    // Sink mode: materialise the shard's whole request stream once, then
    // evaluate it in place chunk by chunk. resize() is a no-op after the
    // first tick at this shard size; Decision assignments reuse string
    // capacity, so a warm capture sweep allocates nothing either.
    const std::size_t total = (end - begin) * checks;
    worker.captured_requests.resize(total);
    worker.captured_decisions.resize(total);
    std::size_t w = 0;
    for (std::size_t v = begin; v < end; ++v) {
      const mac::Sid mode_sid = mode_sids_[vehicle_modes_[v]];
      for (const core::SidRequest& request : resolved_) {
        core::SidRequest& queued = worker.captured_requests[w++];
        queued = request;
        queued.mode = mode_sid;
      }
    }
    for (std::size_t off = 0; off < total; off += batch_chunk_) {
      const std::size_t n = std::min(batch_chunk_, total - off);
      image_.evaluate_batch(
          std::span<const core::SidRequest>(&worker.captured_requests[off], n),
          std::span<core::Decision>(&worker.captured_decisions[off], n));
    }
    for (std::size_t j = 0; j < total; ++j) {
      if (worker.captured_decisions[j].allowed) {
        ++worker.allowed;
      } else {
        ++worker.denied;
        ++vehicle_denied_[begin + j / checks];
      }
    }
    return;
  }

  // Counting mode: fixed-size chunk buffers, exactly like tick()'s.
  worker.batch.clear();
  worker.batch.reserve(batch_chunk_);
  std::size_t flushed_offset = begin * checks;  // global decision index
  auto drain = [&] {
    if (worker.batch.empty()) return;
    worker.flags.resize(worker.batch.size());
    image_.evaluate_batch_allowed(worker.batch, worker.flags);
    for (std::size_t j = 0; j < worker.flags.size(); ++j) {
      if (worker.flags[j] != 0) {
        ++worker.allowed;
      } else {
        ++worker.denied;
        ++vehicle_denied_[(flushed_offset + j) / checks];
      }
    }
    flushed_offset += worker.batch.size();
    worker.batch.clear();
  };
  for (std::size_t v = begin; v < end; ++v) {
    const mac::Sid mode_sid = mode_sids_[vehicle_modes_[v]];
    for (const core::SidRequest& request : resolved_) {
      core::SidRequest& queued = worker.batch.emplace_back(request);
      queued.mode = mode_sid;
      if (worker.batch.size() == batch_chunk_) drain();
    }
  }
  drain();
}

void FleetEvaluator::worker_loop(std::size_t w) {
  Pool& pool = *pool_;
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool capture = false;
    {
      std::unique_lock lock(pool.m);
      pool.work_cv.wait(lock, [&] { return pool.stop || pool.epoch != seen; });
      if (pool.stop) return;
      seen = pool.epoch;
      begin = (w * pool.fleet) / pool.k;
      end = ((w + 1) * pool.fleet) / pool.k;
      capture = pool.capture;
    }
    // Outside the lock: the shard touches only this worker's padded slot,
    // its disjoint vehicle_denied_ range, and owner state the epoch
    // hand-off ordered before us.
    try {
      sweep_range(workers_[w], begin, end, capture);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
    {
      std::lock_guard lock(pool.m);
      if (--pool.pending == 0) pool.done_cv.notify_one();
    }
  }
}

void FleetEvaluator::ensure_pool(std::size_t k) {
  if (pool_ != nullptr && pool_->threads.size() == k - 1) return;
  stop_pool();
  pool_ = std::make_unique<Pool>();
  pool_->threads.reserve(k - 1);
  for (std::size_t w = 1; w < k; ++w) {
    pool_->threads.emplace_back([this, w] { worker_loop(w); });
  }
}

void FleetEvaluator::stop_pool() noexcept {
  if (pool_ == nullptr) return;
  {
    std::lock_guard lock(pool_->m);
    pool_->stop = true;
  }
  pool_->work_cv.notify_all();
  for (std::thread& thread : pool_->threads) thread.join();
  pool_.reset();
}

FleetTickStats FleetEvaluator::tick_parallel(std::size_t n_threads,
                                             const ChunkSink& sink) {
  if (n_threads == 0) {
    throw std::invalid_argument("FleetEvaluator::tick_parallel: zero threads");
  }
  const std::size_t fleet = vehicle_modes_.size();
  const std::size_t k = std::min(n_threads, fleet);
  if (workers_.size() != k) {
    // Thread-count change: rebuild the per-worker buffers (the only
    // post-first-tick allocation path; a constant k reuses everything).
    workers_ = std::vector<Worker>(k);
  }
  vehicle_denied_.assign(fleet, 0);
  for (Worker& worker : workers_) {
    worker.allowed = 0;
    worker.denied = 0;
  }
  errors_.assign(k, nullptr);

  const bool capture = static_cast<bool>(sink);
  // Contiguous shards: worker w sweeps [w*fleet/k, (w+1)*fleet/k). The
  // shared image is sealed (immutable), vehicle_denied_ writes are
  // range-disjoint, and each worker owns its padded Worker slot — the
  // sweep needs no synchronisation beyond the epoch/done hand-offs.
  if (k > 1) {
    // Wake the parked pool (started on the first multi-threaded sweep;
    // reused for every tick at the same k). Everything the workers read
    // this tick was written above, sequenced before the epoch bump.
    ensure_pool(k);
    Pool& pool = *pool_;
    {
      std::lock_guard lock(pool.m);
      pool.capture = capture;
      pool.fleet = fleet;
      pool.k = k;
      pool.pending = k - 1;
      ++pool.epoch;
    }
    pool.work_cv.notify_all();
    try {
      sweep_range(workers_[0], 0, fleet / k, capture);  // caller = worker 0
    } catch (...) {
      errors_[0] = std::current_exception();
    }
    {
      std::unique_lock lock(pool.m);
      pool.done_cv.wait(lock, [&] { return pool.pending == 0; });
    }
  } else {
    try {
      sweep_range(workers_[0], 0, fleet, capture);
    } catch (...) {
      errors_[0] = std::current_exception();
    }
  }
  for (std::size_t w = 0; w < k; ++w) {
    if (errors_[w]) std::rethrow_exception(errors_[w]);
  }

  // Deterministic merge, shard order (== fleet order).
  FleetTickStats stats;
  for (const Worker& worker : workers_) {
    stats.allowed += worker.allowed;
    stats.denied += worker.denied;
  }
  stats.decisions = stats.allowed + stats.denied;
  stats.vehicle_denied = vehicle_denied_;

  if (capture) {
    // Replay the captured streams to the sink in fleet order, sliced to
    // the same nominal chunk size as tick() (boundaries may differ when a
    // shard size is not a chunk multiple; the concatenation never does).
    for (const Worker& worker : workers_) {
      const std::size_t total = worker.captured_requests.size();
      for (std::size_t off = 0; off < total; off += batch_chunk_) {
        const std::size_t n = std::min(batch_chunk_, total - off);
        sink(std::span<const core::SidRequest>(&worker.captured_requests[off],
                                               n),
             std::span<const core::Decision>(&worker.captured_decisions[off],
                                             n));
      }
    }
  }
  return stats;
}

}  // namespace psme::car
