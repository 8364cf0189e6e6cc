#include "car/fleet_evaluator.h"

#include <cstdint>
#include <stdexcept>

#include "car/ids.h"

namespace psme::car {

namespace {

/// Requests queued per batched evaluate call. Bounds peak memory (the
/// fleet never holds more than this many Decisions at once) and matches
/// the chunk the image's staged pipeline is tuned for: large enough to
/// amortise per-batch costs, small enough to stay cache-resident.
constexpr std::size_t kBatchChunk = 4096;

}  // namespace

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
                               std::size_t fleet_size)
    : image_(image) {
  if (fleet_size == 0) {
    throw std::invalid_argument("FleetEvaluator: empty fleet");
  }
  if (checks.empty()) {
    throw std::invalid_argument("FleetEvaluator: empty per-vehicle workload");
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

  vehicle_modes_.assign(fleet_size,
                        static_cast<std::uint8_t>(CarMode::kNormal));
  vehicle_denied_.assign(fleet_size, 0);
  batch_.reserve(kBatchChunk);
  decisions_.reserve(kBatchChunk);
  flags_.reserve(kBatchChunk);
}

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
      if (batch_.size() == kBatchChunk) flush(stats, sink);
    }
  }
  flush(stats, sink);
  stats.vehicle_denied = vehicle_denied_;
  return stats;
}

}  // namespace psme::car
