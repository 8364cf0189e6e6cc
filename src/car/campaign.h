// psme::car — fault-tolerant fleet OTA campaigns.
//
// PR 5 built the artefacts (sealed blobs, fingerprint-anchored deltas);
// this module builds the CAMPAIGN: the server-side orchestrator that
// drives a whole fleet from a skewed spread of policy versions onto one
// target, and keeps its promises when the world misbehaves. The paper's
// fleet story (Sec. VI: policies "updated over the air" across the
// deployed fleet) is only credible with the failure half told — so the
// orchestrator is specified against an explicit fault model
// (sim/fault_plan.h) and every recovery path is exercised under
// injection, deterministically, from a seed.
//
// The shape of a campaign:
//
//  * PLANNING. The server holds the policy lineage as sealed images,
//    each compiled against a SID-prefix replica of its predecessor, so
//    the whole lineage shares one SID space by construction. For a
//    vehicle on base version B it writes ONE base->target delta
//    (core::PolicyDeltaWriter::write over the two images in hand) and
//    ships that when it is smaller than the full blob; an unknown base,
//    a pair the writer refuses or a delta that outweighs the blob falls
//    back to the full target blob. Plans are cached per base version.
//
//  * WAVES. Vehicles on a version older than the target roll in waves:
//    a canary slice first, then successively larger cohorts. After
//    each wave an observation window opens: the committed cohort
//    answers the health-probe workload and a monitor::DenyStreakMonitor
//    (reset at window open — see its reset() notes) watches for deny
//    streaks. The wave gate is two-sided: enough of the reachable
//    cohort must have COMMITTED, and enough of the committed cohort
//    must look HEALTHY. A failed gate halts the campaign before the
//    next wave and rolls every committed vehicle back.
//
//  * VEHICLE STATE MACHINE. Each vehicle walks
//        idle -> offered -> downloading -> validating -> committing
//             -> healthy | failed | dark
//    with bounded retries, exponential backoff with seeded jitter
//    (sim::mix3 — deterministic per (campaign seed, vehicle, try)),
//    and a per-stage download timeout. The timing constants (wave
//    timeout, backoff, download timeout, health window) and the gate
//    floors are fixed in campaign.cpp. Validation failures on the
//    delta channel eventually switch the vehicle to the full-blob
//    channel (blob_fallback_after). A power loss between validate and
//    commit discards the staged artefact; the vehicle reboots on its
//    old sealed blob — never a half-applied image — and retries.
//
//    The machine is walked per vehicle: a wave visits each member
//    once and steps it, tick by tick, from the wave start to a terminal
//    state or the wave deadline, skipping the ticks on which it only
//    waits. That is the same walk a tick-major loop over the wave
//    would make, because a vehicle's trajectory depends only on its
//    own record and on transport decisions keyed by (vehicle, attempt)
//    (the contract in car/update_transport.h); the clean-verdict memo
//    is a pure function of the bytes, and every report counter is a
//    sum. The per-attempt state (the staged artefact, the backoff end,
//    the download deadline) lives in the visit, not in the record.
//
//  * ROLLBACK. FleetBoot refuses version rollbacks by design, so the
//    campaign rolls FORWARD: the rollback artefact is the prior
//    version's CONTENT restamped as target_version + 1, compiled in
//    the lineage SID space, shipped as a delta off the target image
//    (blob fallback as usual). "Roll back" in the report means content
//    rollback, version roll-forward.
//
// Everything is tick-based and seed-deterministic: same lineage, same
// config, same fleet seed, same fault plan -> bit-identical report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/update_transport.h"
#include "core/policy.h"
#include "core/policy_image.h"

namespace psme::car {

/// Which artefact kind a vehicle is currently being served.
enum class UpdateChannel : std::uint8_t {
  kDelta,  // base->target delta
  kBlob,   // full target blob (planned fallback or per-vehicle fallback)
};

[[nodiscard]] std::string_view to_string(UpdateChannel channel) noexcept;

enum class VehicleState : std::uint8_t {
  kIdle,         // not yet offered in any wave
  kOffered,      // update offered; transfer starts when the backoff ends
  kDownloading,  // transfer in flight; a stage deadline bounds the wait
  kValidating,   // artefact staged; validation runs next tick
  kCommitting,   // validated; sealed-store commit runs next tick
  kHealthy,      // committed and live on the objective version
  kFailed,       // retry budget or wave window exhausted; each vehicle
                 // belongs to one wave, so a run never re-offers it
  kDark,         // unreachable; excluded from gates and convergence
};

[[nodiscard]] std::string_view to_string(VehicleState state) noexcept;

/// One simulated vehicle, deliberately lightweight: per-version images
/// and sealed blobs are shared across the fleet (shared_ptr), and the
/// record holds only what outlives a wave, so a vehicle costs 64 bytes
/// and a 10^5-vehicle fleet 6.4 MB. The sealed_blob is the vehicle's
/// power-loss-durable store: whatever it points at is what the vehicle
/// boots from after a crash, and the campaign only ever replaces it in
/// the commit step (atomic in the model; FleetBoot's strong guarantee
/// in the real boot path).
struct CampaignVehicle {
  std::uint32_t id = 0;
  std::uint64_t version = 0;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const std::vector<std::byte>> sealed_blob;

  VehicleState state = VehicleState::kIdle;
  UpdateChannel channel = UpdateChannel::kDelta;
  UpdateResult last_result = UpdateResult::kOk;

  /// Lifetime transfer counter — the fault-stream key. NEVER reset:
  /// replaying an attempt number would replay its fault decision.
  std::uint32_t attempts = 0;
  /// Tries spent toward the current objective (bounded by max_tries).
  std::uint32_t tries = 0;
  /// Delta-channel validation failures (drives the blob fallback).
  std::uint32_t delta_failures = 0;
  std::uint32_t power_losses = 0;
};

struct CampaignConfig {
  // -- waves -------------------------------------------------------------
  /// Fraction of eligible vehicles in the canary wave (at least 1).
  double canary_fraction = 0.01;
  /// Cumulative coverage fractions of the follow-on waves (the last is
  /// clamped to 1.0 so every campaign ends with full coverage). Every
  /// fraction must be finite and >= 0; values above 1 act as 1.
  std::vector<double> wave_fractions = {0.10, 0.50, 1.0};

  // -- retries -----------------------------------------------------------
  /// Transfer tries per vehicle per objective before kFailed.
  std::uint32_t max_tries = 6;
  /// Delta-channel validation failures before the vehicle switches to
  /// the full-blob channel for its remaining tries.
  std::uint32_t blob_fallback_after = 2;

  // -- health gate -------------------------------------------------------
  /// Per-vehicle probe workload for the observation window; empty uses
  /// default_fleet_checks(). The gate flags a vehicle denying more of it
  /// than the predecessor release did.
  std::vector<FleetCheck> health_probe;

  /// Seed of the retry-jitter stream (independent of the fault plan's).
  std::uint64_t seed = 0x636172756F7461ULL;
};

enum class CampaignStatus : std::uint8_t {
  kConverged,  // every reachable eligible vehicle healthy on target
  kHalted,     // a wave gate failed; committed cohort rolled back
  kStalled,    // waves exhausted with reachable vehicles not on target
};

[[nodiscard]] std::string_view to_string(CampaignStatus status) noexcept;

struct WaveStats {
  std::size_t wave = 0;  // 0 = canary
  std::size_t size = 0;
  std::size_t committed = 0;
  std::size_t failed = 0;
  std::size_t dark = 0;
  std::uint64_t retries = 0;
  std::uint64_t ticks = 0;  // ticks this wave ran before its gate
  double commit_fraction = 1.0;
  double healthy_fraction = 1.0;
  bool gate_passed = true;
};

struct CampaignReport {
  CampaignStatus status = CampaignStatus::kConverged;
  std::uint64_t target_version = 0;
  std::uint64_t target_fingerprint = 0;
  std::vector<WaveStats> waves;

  std::uint64_t ticks = 0;
  std::uint64_t retries = 0;
  std::uint64_t power_loss_reboots = 0;
  /// Vehicles that switched delta -> blob after repeated validation
  /// failures (per-vehicle fallback, not the planner's).
  std::uint64_t blob_fallbacks = 0;

  // Bytes leaving the server, per channel (every send counts, including
  // ones the fault plan destroys — that is what the radio link carried).
  std::uint64_t delta_bytes_shipped = 0;
  std::uint64_t blob_bytes_shipped = 0;
  /// What shipping every eligible vehicle the full blob once would have
  /// cost — the naive-plan baseline the bench compares against.
  std::uint64_t full_blob_bytes_baseline = 0;

  // Final fleet census.
  std::size_t healthy = 0;
  std::size_t failed = 0;
  std::size_t dark = 0;
  /// Vehicles at or past the target version before the campaign: never
  /// offered, since only a vehicle on an older version is eligible
  /// (FleetBoot refuses the downgrade anyway).
  std::size_t untouched = 0;

  /// Post-campaign audit: vehicles with no sealed store, or whose store
  /// fails probe, disagrees with the vehicle's recorded fingerprint, or
  /// carries a fingerprint the server never released (lineage or
  /// rollback). Each distinct store is probed once; every vehicle's
  /// record is checked against its store's verdict, so a bad store
  /// shared by n vehicles counts n. The acceptance invariant is ZERO at
  /// any fault rate — injected damage may delay a vehicle, never
  /// corrupt its store.
  std::size_t corrupt_images = 0;

  bool rolled_back = false;
  std::size_t rolled_back_vehicles = 0;
  /// Version the rollback artefact was stamped with (target + 1; the
  /// content is the predecessor policy — see the header comment).
  std::uint64_t rollback_version = 0;
  std::uint64_t rollback_fingerprint = 0;
};

/// The OEM-side campaign orchestrator: owns the policy lineage, plans
/// per-vehicle update paths, and drives a fleet through waves over an
/// UpdateTransport.
class CampaignServer {
 public:
  struct Artefact {
    UpdateChannel channel = UpdateChannel::kBlob;
    std::shared_ptr<const std::vector<std::byte>> bytes;
  };

  /// Takes the policy lineage in release order. Throws
  /// std::invalid_argument unless the lineage is non-empty with strictly
  /// increasing versions, and the canary and wave fractions are all
  /// finite and >= 0. Each set is compiled against a SID-prefix replica
  /// of its predecessor's image — the construction that makes a delta
  /// from any release to any later one valid fleet-wide — and the
  /// per-version sealed blobs are built up front.
  explicit CampaignServer(std::vector<core::PolicySet> lineage,
                          CampaignConfig config = {});

  // -- lineage access ----------------------------------------------------
  [[nodiscard]] std::size_t lineage_size() const noexcept {
    return images_.size();
  }
  [[nodiscard]] const core::CompiledPolicyImage& image_at(std::size_t i) const {
    return *images_.at(i);
  }
  [[nodiscard]] const core::CompiledPolicyImage& target_image() const {
    return *images_.back();
  }
  [[nodiscard]] std::shared_ptr<const std::vector<std::byte>> blob_at(
      std::size_t i) const {
    return blobs_.at(i);
  }
  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

  /// The update artefact for a vehicle currently on `base_version`: the
  /// base->target delta written from the two lineage images when it is
  /// smaller than the blob, the full target blob otherwise. Cached per
  /// base version.
  [[nodiscard]] Artefact plan_for(std::uint64_t base_version);

  /// Times the planner fell back to the full blob (unknown base, a pair
  /// the delta writer refused, or a delta that outweighed the blob).
  [[nodiscard]] std::uint64_t plan_blob_fallbacks() const noexcept {
    return plan_blob_fallbacks_;
  }

  /// A fleet with geometric version skew over the last `skew_depth`
  /// pre-target lineage versions: a vehicle sits on the newest
  /// pre-target version with probability ~(1 - skew), one older with
  /// probability ~skew * (1 - skew), and so on (renormalised). Every
  /// vehicle starts kIdle on its version's sealed blob. Deterministic
  /// in `seed`.
  [[nodiscard]] std::vector<CampaignVehicle> make_fleet(
      std::size_t fleet_size, std::uint64_t seed, double skew = 0.5,
      std::size_t skew_depth = 6) const;

  /// Runs the campaign: drives every vehicle of `fleet` on an older
  /// version onto the lineage target over `transport`, wave by wave,
  /// gating each wave and halting + rolling back on a failed gate.
  /// Mutates the fleet in place (final states, versions, sealed blobs)
  /// and returns the full report.
  ///
  /// Precondition: every vehicle's id is its position in `fleet`
  /// (fleet[i].id == i), as make_fleet builds it. Throws
  /// std::invalid_argument otherwise, before any vehicle is touched.
  ///
  /// Cost: base versions and their objectives are found by linear
  /// search, so V eligible vehicles starting on B distinct versions
  /// cost V * B comparisons.
  /// A make_fleet fleet starts on at most `skew_depth` versions.
  [[nodiscard]] CampaignReport run(std::vector<CampaignVehicle>& fleet,
                                   UpdateTransport& transport);

 private:
  /// What a vehicle is being driven to: the artefacts and validation
  /// anchors of one objective (target rollout or rollback).
  struct Objective {
    std::uint64_t version = 0;
    std::uint64_t fingerprint = 0;
    /// Image the delta channel validates against (the vehicle's
    /// running version); null disables the delta channel.
    const core::CompiledPolicyImage* delta_base = nullptr;
    std::shared_ptr<const std::vector<std::byte>> delta;  // may be null
    /// The objective's sealed blob: what the blob channel ships, and
    /// what a delta-channel commit installs as the sealed store. Safe by
    /// the delta contract: the applied image's blob byte-equals it
    /// (pinned in tests/test_policy_delta.cpp).
    std::shared_ptr<const std::vector<std::byte>> blob;
    /// Validation memo for CLEAN deliveries: a staged payload that is
    /// the server's own artefact buffer (what a clean delivery hands
    /// back) validates once per objective and the verdict is reused
    /// fleet-wide (what makes 10^5-vehicle campaigns cheap). Only that
    /// buffer hits the memo; any other buffer — every damaged payload,
    /// or a copy from a transport that copies — validates on its own,
    /// per vehicle, and still gets the verdict its bytes earn.
    std::optional<UpdateResult> clean_delta_verdict;
    std::optional<UpdateResult> clean_blob_verdict;
  };

  /// The objectives of one drive, keyed by the base version a vehicle
  /// starts from: one per distinct version the driven vehicles start
  /// on, found by linear search (the cost note on run()).
  using Objectives = std::vector<std::pair<std::uint64_t, Objective>>;

  /// A vehicle's state within one visit: what a failed try discards.
  struct Attempt {
    /// Tick the next transfer starts at (kOffered).
    std::uint64_t next_tick = 0;
    /// Tick a lost transfer is given up at (kDownloading).
    std::uint64_t stage_deadline = 0;
    /// Downloaded artefact awaiting validation. A clean delivery is the
    /// server's own buffer, so staging it copies nothing; damage arrives
    /// in a buffer of its own. Immutable either way: a blob-channel
    /// commit installs this pointer as the sealed store.
    std::shared_ptr<const std::vector<std::byte>> staged;
  };

  /// Runs `vehicle`'s state machine for tick `now`, a tick it acts on:
  /// drive() skips the ticks on which it only waits.
  void step_vehicle(CampaignVehicle& vehicle, Attempt& attempt,
                    Objective& objective, UpdateTransport& transport,
                    std::uint64_t now, CampaignReport& report,
                    WaveStats& stats);
  void retry_or_fail(CampaignVehicle& vehicle, Attempt& attempt,
                     std::uint64_t now, WaveStats& stats);
  [[nodiscard]] UpdateResult validate_staged(const CampaignVehicle& vehicle,
                                             const Attempt& attempt,
                                             Objective& objective) const;
  [[nodiscard]] std::uint64_t backoff_ticks(std::uint32_t vehicle,
                                            std::uint32_t tries) const;

  /// Visits each of `members` once, in order: offers it the objective
  /// for its version from `objectives` (state kOffered, no tries spent),
  /// steps it from `now` until it is terminal or `deadline` has passed
  /// (failing it out then), and counts its outcome and retries into
  /// `stats`. Advances `now` to the latest tick any member stepped and
  /// sets stats.ticks to the ticks run.
  void drive(std::vector<CampaignVehicle>& fleet,
             std::span<const std::uint32_t> members, Objectives& objectives,
             UpdateTransport& transport, std::uint64_t deadline,
             std::uint64_t& now, CampaignReport& report, WaveStats& stats);

  [[nodiscard]] Objective objective_for(std::uint64_t base_version);
  [[nodiscard]] std::uint32_t probe_denies(
      const core::CompiledPolicyImage& image) const;
  void run_rollback(std::vector<CampaignVehicle>& fleet,
                    UpdateTransport& transport, std::uint64_t& now,
                    CampaignReport& report);
  /// The final census and the post-campaign audit, in one fleet pass.
  void audit_fleet(const std::vector<CampaignVehicle>& fleet,
                   CampaignReport& report) const;

  CampaignConfig config_;
  std::vector<core::PolicySet> lineage_;
  std::vector<std::shared_ptr<const core::CompiledPolicyImage>> images_;
  std::vector<std::shared_ptr<const std::vector<std::byte>>> blobs_;
  /// fingerprints_[i] == images_[i]->fingerprint(), computed once: the
  /// fingerprint rehashes every entry, and the fleet paths need it per
  /// vehicle.
  std::vector<std::uint64_t> fingerprints_;
  std::unordered_map<std::uint64_t, std::size_t> version_index_;
  std::unordered_map<std::uint64_t, Artefact> plan_cache_;
  std::uint64_t plan_blob_fallbacks_ = 0;

  std::vector<FleetCheck> probe_;

  /// Rollback artefacts, built lazily on first halt.
  std::shared_ptr<const core::CompiledPolicyImage> rollback_image_;
  std::shared_ptr<const std::vector<std::byte>> rollback_blob_;
  std::shared_ptr<const std::vector<std::byte>> rollback_delta_;
  std::uint64_t rollback_fingerprint_ = 0;
};

}  // namespace psme::car
