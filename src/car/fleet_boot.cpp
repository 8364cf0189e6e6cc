#include "car/fleet_boot.h"

#include <utility>

namespace psme::car {

// The wire layer only distinguishes the three recovery classes;
// rollback refusal never throws (it is a clean `false` from
// commit_update), so it has no WireFault mapping.
UpdateResult to_update_result(core::WireFault fault) noexcept {
  switch (fault) {
    case core::WireFault::kAnchorMismatch:
      return UpdateResult::kAnchorMismatch;
    case core::WireFault::kFingerprintMismatch:
      return UpdateResult::kFingerprintMismatch;
    case core::WireFault::kMalformed:
      break;
  }
  return UpdateResult::kValidationFailed;
}

std::string_view to_string(UpdateResult result) noexcept {
  switch (result) {
    case UpdateResult::kOk:
      return "ok";
    case UpdateResult::kRollbackRefused:
      return "rollback-refused";
    case UpdateResult::kValidationFailed:
      return "validation-failed";
    case UpdateResult::kFingerprintMismatch:
      return "fingerprint-mismatch";
    case UpdateResult::kAnchorMismatch:
      return "anchor-mismatch";
  }
  return "unknown";
}

FleetBoot::FleetBoot(std::span<const std::byte> blob,
                     std::vector<FleetCheck> checks, std::size_t fleet_size) {
  boot(core::PolicyBlobReader::load(blob), std::move(checks), fleet_size);
}

FleetBoot::FleetBoot(const std::string& blob_path,
                     std::vector<FleetCheck> checks, std::size_t fleet_size,
                     core::BlobTrust trust) {
  boot(core::PolicyBlobReader::load_file(blob_path, trust),
       std::move(checks), fleet_size);
}

void FleetBoot::boot(core::CompiledPolicyImage image,
                     std::vector<FleetCheck> checks, std::size_t fleet_size) {
  image_ = std::make_unique<core::CompiledPolicyImage>(std::move(image));
  checks_ = std::move(checks);
  fleet_ = std::make_unique<FleetEvaluator>(*image_, checks_, fleet_size);
}

UpdateResult FleetBoot::try_apply_update(std::span<const std::byte> blob) {
  // Validate BEFORE touching live state: damaged bytes are refused at the
  // header gate without a throw; a blob that passes it still gets
  // load()'s full validation, which throws for what only the payload
  // reveals, and the running policy keeps answering either way. The
  // update loads into a fresh SID space — the blob is self-contained, so
  // the old and new interners need not agree (the evaluator re-resolves
  // its workload in commit_update).
  if (const auto rejection = core::PolicyBlobReader::check(blob)) {
    return to_update_result(rejection->fault);
  }
  std::unique_ptr<core::CompiledPolicyImage> updated;
  try {
    updated = std::make_unique<core::CompiledPolicyImage>(
        core::PolicyBlobReader::load(blob));
  } catch (const core::PolicyBlobError& error) {
    return to_update_result(error.fault());
  }
  return commit_update(std::move(updated)) ? UpdateResult::kOk
                                           : UpdateResult::kRollbackRefused;
}

UpdateResult FleetBoot::try_apply_delta_update(
    std::span<const std::byte> delta) {
  // The delta channel validates against the RUNNING image: the header
  // gate refuses damaged bytes and a foreign anchor without a throw, and
  // apply() throws PolicyDeltaError for what only the payload reveals;
  // the running policy keeps answering either way. Like the blob path,
  // the applied image owns a fresh SID space (base prefix + carried
  // extension) and the evaluator re-resolves its workload.
  if (const auto rejection = core::PolicyDeltaReader::check(*image_, delta)) {
    return to_update_result(rejection->fault);
  }
  std::unique_ptr<core::CompiledPolicyImage> updated;
  try {
    updated = std::make_unique<core::CompiledPolicyImage>(
        core::PolicyDeltaReader::apply(*image_, delta));
  } catch (const core::PolicyDeltaError& error) {
    return to_update_result(error.fault());
  }
  return commit_update(std::move(updated)) ? UpdateResult::kOk
                                           : UpdateResult::kRollbackRefused;
}

bool FleetBoot::commit_update(
    std::unique_ptr<core::CompiledPolicyImage> updated_image) {
  if (updated_image->version() <= image_->version()) {
    return false;  // rollback refused; a replayed old update changes nothing
  }

  // Build the COMPLETE replacement — evaluator re-interning the workload
  // into the new SID space, per-vehicle modes carried over — before
  // releasing anything: a throw anywhere in here (strong guarantee)
  // leaves the incumbent image and evaluator untouched and answering.
  auto updated_fleet = std::make_unique<FleetEvaluator>(
      *updated_image, checks_, fleet_->fleet_size());
  for (std::size_t v = 0; v < fleet_->fleet_size(); ++v) {
    updated_fleet->set_mode(v, fleet_->mode(v));
  }

  // The commit: pointer swaps only, nothing can throw. Dropping the old
  // evaluator discards every pre-resolved request and cached decision
  // buffer — the fleet-layer equivalent of the AVC flush a MacEngine
  // policy reload performs.
  fleet_ = std::move(updated_fleet);
  image_ = std::move(updated_image);
  return true;
}

}  // namespace psme::car
