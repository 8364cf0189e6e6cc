// psme::car — zero-recompile vehicle bring-up from a persistent policy
// blob.
//
// Production vehicles never see the threat model: the OEM runs the
// derivation once, serialises the sealed CompiledPolicyImage (+ its
// SidTable) with core::PolicyBlobWriter, and every vehicle boots by
// loading the blob — validation, one reconstruction pass, fingerprint
// cross-check — then drives its FleetEvaluator against the loaded image.
// FleetBoot is that bring-up path: it owns the loaded image (and its SID
// space) and the evaluator over it, so callers hold one object instead
// of wiring image lifetime by hand.
//
// OTA updates ride two channels over one staging flow:
// try_apply_update() takes a full self-contained blob,
// try_apply_delta_update() takes a fingerprint-anchored binary delta
// against the RUNNING image (core/policy_delta.h — a fraction of the
// blob's bytes when few rules changed). Both validate first, refuse
// version rollbacks, swap the image in, and rebuild the evaluator —
// every cached SID resolution and prototype decision from the old policy
// is flushed; per-vehicle operating modes survive the swap (a fail-safe
// car stays in fail-safe through an update).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "car/fleet_evaluator.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"

namespace psme::car {

/// Why an OTA staging attempt did (or did not) go live — the telemetry
/// the campaign orchestrator (car/campaign.h) keys retry/fallback/halt
/// decisions on. "Corrupt bytes" (kValidationFailed: retry the
/// transfer), "stale or wrong base" (kAnchorMismatch: re-plan the
/// update path), "content does not match its manifest"
/// (kFingerprintMismatch: re-download or fall back to the full blob)
/// and "replayed old version" (kRollbackRefused: drop it) demand
/// different recoveries; a bool collapses them all.
enum class UpdateResult : std::uint8_t {
  kOk,                   // update validated, committed and live
  kRollbackRefused,      // artefact carries version <= running version
  kValidationFailed,     // malformed/corrupted bytes (structural reject)
  kFingerprintMismatch,  // content does not match the recorded manifest
  kAnchorMismatch,       // delta anchored to a different base image
};

[[nodiscard]] std::string_view to_string(UpdateResult result) noexcept;

/// Maps a wire-layer rejection kind onto the update taxonomy — the
/// shared translation FleetBoot::try_apply_* and the campaign engine's
/// vehicle-side validation both use, so one classification governs all
/// OTA telemetry.
[[nodiscard]] UpdateResult to_update_result(core::WireFault fault) noexcept;

class FleetBoot {
 public:
  /// Boots from a serialized policy blob: validated load into a fresh
  /// SID space, then a FleetEvaluator over `checks` for `fleet_size`
  /// vehicles. Throws core::PolicyBlobError on a malformed blob and
  /// whatever FleetEvaluator throws on an empty fleet or workload.
  FleetBoot(std::span<const std::byte> blob, std::vector<FleetCheck> checks,
            std::size_t fleet_size = 1);

  /// As above, loading the blob from a file — mmap-backed where the
  /// platform allows, so a blob boots as a zero-copy view over the
  /// mapping (core/policy_buffer.h). `trust` selects the validation
  /// depth: kUntrusted (default) runs the full one-pass validation;
  /// kSealedStore is the O(1) attach for a blob staged and validated on
  /// this device earlier (core::BlobTrust).
  FleetBoot(const std::string& blob_path, std::vector<FleetCheck> checks,
            std::size_t fleet_size = 1,
            core::BlobTrust trust = core::BlobTrust::kUntrusted);

  /// The blob came from the OTA channel; the image it loads into and the
  /// evaluator over it are this object's — neither reference outlives it.
  [[nodiscard]] FleetEvaluator& fleet() noexcept { return *fleet_; }
  [[nodiscard]] const FleetEvaluator& fleet() const noexcept {
    return *fleet_;
  }
  [[nodiscard]] const core::CompiledPolicyImage& image() const noexcept {
    return *image_;
  }
  [[nodiscard]] std::uint64_t policy_version() const noexcept {
    return image_->version();
  }

  /// Stages an OTA policy update delivered as a blob: validated load
  /// (malformed bytes earn kValidationFailed, or kFingerprintMismatch
  /// when the structure parsed and only the final content gate failed),
  /// version-rollback refusal (kRollbackRefused — a replayed old blob
  /// must not downgrade the fleet), then the swap: the new image
  /// replaces the old and the evaluator is rebuilt against it, flushing
  /// every cached resolution and prototype decision. Vehicle modes carry
  /// over. Returns kOk when the update is live. Strong guarantee: the
  /// replacement image AND evaluator are fully built before the old ones
  /// are released, so anything but kOk — or a throw such as an
  /// allocation failure at the OTA moment of peak memory — leaves the
  /// running policy answering exactly as before.
  [[nodiscard]] UpdateResult try_apply_update(std::span<const std::byte> blob);

  /// Stages an OTA policy update delivered as a fingerprint-anchored
  /// binary delta (core/policy_delta.h) — the bandwidth-frugal channel:
  /// the delta must be anchored to the RUNNING image's fingerprint
  /// (kAnchorMismatch otherwise: re-plan, the bytes may be pristine); the
  /// edit script applies into a fresh sealed image (corrupt bytes earn
  /// kValidationFailed, a manifest-gate failure kFingerprintMismatch);
  /// version rollbacks earn kRollbackRefused; then the same swap and the
  /// same strong guarantee as try_apply_update.
  [[nodiscard]] UpdateResult try_apply_delta_update(
      std::span<const std::byte> delta);

 private:
  void boot(core::CompiledPolicyImage image, std::vector<FleetCheck> checks,
            std::size_t fleet_size);

  /// The shared tail of both update channels: rollback refusal, complete
  /// replacement construction (modes carried over), then the no-throw
  /// pointer-swap commit. Returns false (changing nothing) on rollback.
  [[nodiscard]] bool commit_update(
      std::unique_ptr<core::CompiledPolicyImage> updated_image);

  std::unique_ptr<core::CompiledPolicyImage> image_;
  std::vector<FleetCheck> checks_;  // kept to rebuild on update
  /// References *image_; unique_ptr so an update can build the
  /// replacement before releasing the incumbent.
  std::unique_ptr<FleetEvaluator> fleet_;
};

}  // namespace psme::car
