#include "car/campaign.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "monitor/anomaly.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"

namespace psme::car {

std::string_view to_string(UpdateChannel channel) noexcept {
  switch (channel) {
    case UpdateChannel::kDelta:
      return "delta";
    case UpdateChannel::kBlob:
      return "blob";
  }
  return "unknown";
}

std::string_view to_string(VehicleState state) noexcept {
  switch (state) {
    case VehicleState::kIdle:
      return "idle";
    case VehicleState::kOffered:
      return "offered";
    case VehicleState::kDownloading:
      return "downloading";
    case VehicleState::kValidating:
      return "validating";
    case VehicleState::kCommitting:
      return "committing";
    case VehicleState::kHealthy:
      return "healthy";
    case VehicleState::kFailed:
      return "failed";
    case VehicleState::kDark:
      return "dark";
  }
  return "unknown";
}

std::string_view to_string(CampaignStatus status) noexcept {
  switch (status) {
    case CampaignStatus::kConverged:
      return "converged";
    case CampaignStatus::kHalted:
      return "halted";
    case CampaignStatus::kStalled:
      return "stalled";
  }
  return "unknown";
}

namespace {

/// Ticks a wave (or the rollback) may run before undelivered vehicles
/// are failed out.
constexpr std::uint64_t kWaveTimeoutTicks = 4096;
/// Exponential retry backoff: min(base << (try - 1), cap) ticks plus a
/// jitter uniform in [0, jitter) from sim::mix3(seed, vehicle, try).
constexpr std::uint64_t kBackoffBaseTicks = 2;
constexpr std::uint64_t kBackoffCapTicks = 64;
constexpr std::uint64_t kBackoffJitterTicks = 4;
/// Ticks a vehicle waits in kDownloading before declaring the transfer
/// lost (drops and stalls are discovered only by this).
constexpr std::uint64_t kDownloadTimeoutTicks = 8;
/// Sweeps of the health probe fed to the gate monitor after each wave,
/// and the consecutive qualifying sweeps that flag a vehicle.
constexpr std::uint64_t kHealthTicks = 4;
constexpr std::uint32_t kGateStreakTicks = 3;
/// Wave gate floors: committed / reachable (dark vehicles excluded) and
/// healthy / committed.
constexpr double kMinCommitFraction = 0.90;
constexpr double kMinHealthyFraction = 0.95;

[[nodiscard]] bool valid_fraction(double fraction) noexcept {
  return std::isfinite(fraction) && fraction >= 0.0;
}

[[nodiscard]] bool terminal(VehicleState state) noexcept {
  return state == VehicleState::kHealthy || state == VehicleState::kFailed ||
         state == VehicleState::kDark;
}

}  // namespace

CampaignServer::CampaignServer(std::vector<core::PolicySet> lineage,
                               CampaignConfig config)
    : config_(std::move(config)), lineage_(std::move(lineage)) {
  if (lineage_.empty()) {
    throw std::invalid_argument("CampaignServer: empty lineage");
  }
  if (!valid_fraction(config_.canary_fraction) ||
      !std::all_of(config_.wave_fractions.begin(),
                   config_.wave_fractions.end(), valid_fraction)) {
    throw std::invalid_argument(
        "CampaignServer: wave fractions must be finite and >= 0");
  }
  images_.reserve(lineage_.size());
  blobs_.reserve(lineage_.size());
  fingerprints_.reserve(lineage_.size());
  for (std::size_t i = 0; i < lineage_.size(); ++i) {
    if (i > 0 && lineage_[i].version() <= lineage_[i - 1].version()) {
      throw std::invalid_argument(
          "CampaignServer: lineage versions must be strictly increasing");
    }
    // Compile against a prefix replica of the predecessor so the whole
    // lineage shares one SID space and a delta from any release to any
    // later one is anchor-valid.
    std::shared_ptr<mac::SidTable> sids;
    if (i > 0) {
      const auto& prev = images_[i - 1]->sids();
      sids = core::replicate_sid_prefix(prev, prev.size());
    }
    auto image = std::make_shared<const core::CompiledPolicyImage>(
        core::CompiledPolicyImage::from_policy_set(lineage_[i],
                                                   std::move(sids)));
    blobs_.push_back(std::make_shared<const std::vector<std::byte>>(
        core::PolicyBlobWriter::write(*image)));
    fingerprints_.push_back(image->fingerprint());
    version_index_.emplace(image->version(), i);
    images_.push_back(std::move(image));
  }
  probe_ = config_.health_probe.empty() ? default_fleet_checks()
                                        : config_.health_probe;
}

CampaignServer::Artefact CampaignServer::plan_for(std::uint64_t base_version) {
  if (auto cached = plan_cache_.find(base_version);
      cached != plan_cache_.end()) {
    return cached->second;
  }
  Artefact plan;
  plan.channel = UpdateChannel::kBlob;
  plan.bytes = blobs_.back();

  const auto base = version_index_.find(base_version);
  if (base != version_index_.end() && base->second + 1 < images_.size()) {
    try {
      auto delta = std::make_shared<const std::vector<std::byte>>(
          core::PolicyDeltaWriter::write(*images_[base->second],
                                         *images_.back()));
      if (delta->size() < blobs_.back()->size()) {
        plan.channel = UpdateChannel::kDelta;
        plan.bytes = std::move(delta);
      } else {
        ++plan_blob_fallbacks_;  // delta outweighs the blob
      }
    } catch (const core::PolicyDeltaError&) {
      ++plan_blob_fallbacks_;  // the writer refused the pair
    }
  } else if (base == version_index_.end()) {
    ++plan_blob_fallbacks_;  // unknown base: nothing to anchor a delta to
  }
  plan_cache_.emplace(base_version, plan);
  return plan;
}

std::vector<CampaignVehicle> CampaignServer::make_fleet(
    std::size_t fleet_size, std::uint64_t seed, double skew,
    std::size_t skew_depth) const {
  if (images_.size() < 2) {
    throw std::invalid_argument(
        "CampaignServer::make_fleet: need at least two lineage versions");
  }
  if (!(skew > 0.0 && skew < 1.0)) {
    throw std::invalid_argument("CampaignServer::make_fleet: skew in (0,1)");
  }
  // Geometric weights over the pre-target versions, newest first.
  const std::size_t depth =
      std::min(skew_depth == 0 ? std::size_t{1} : skew_depth,
               images_.size() - 1);
  std::vector<double> cumulative(depth);
  double total = 0.0;
  double weight = 1.0;
  for (std::size_t d = 0; d < depth; ++d) {
    total += weight;
    cumulative[d] = total;
    weight *= skew;
  }
  std::vector<CampaignVehicle> fleet(fleet_size);
  sim::Rng rng(seed);
  for (std::size_t v = 0; v < fleet_size; ++v) {
    const double u = rng.uniform01() * total;
    std::size_t d = 0;
    while (d + 1 < depth && u >= cumulative[d]) {
      ++d;
    }
    const std::size_t index = images_.size() - 2 - d;  // newest pre-target - d
    auto& vehicle = fleet[v];
    vehicle.id = static_cast<std::uint32_t>(v);
    vehicle.version = images_[index]->version();
    vehicle.fingerprint = fingerprints_[index];
    vehicle.sealed_blob = blobs_[index];
  }
  return fleet;
}

std::uint64_t CampaignServer::backoff_ticks(std::uint32_t vehicle,
                                            std::uint32_t tries) const {
  const std::uint32_t shift = tries > 0 ? tries - 1 : 0;
  const std::uint64_t wait =
      shift < 63 ? std::min(kBackoffBaseTicks << shift, kBackoffCapTicks)
                 : kBackoffCapTicks;
  return wait + sim::mix3(config_.seed, vehicle, tries) % kBackoffJitterTicks;
}

void CampaignServer::retry_or_fail(CampaignVehicle& vehicle, Attempt& attempt,
                                   std::uint64_t now, WaveStats& stats) {
  attempt.staged.reset();
  if (++vehicle.tries >= config_.max_tries) {
    vehicle.state = VehicleState::kFailed;
    return;
  }
  ++stats.retries;
  vehicle.state = VehicleState::kOffered;
  attempt.next_tick = now + backoff_ticks(vehicle.id, vehicle.tries);
}

UpdateResult CampaignServer::validate_staged(const CampaignVehicle& vehicle,
                                             const Attempt& attempt,
                                             Objective& objective) const {
  const bool via_delta = vehicle.channel == UpdateChannel::kDelta;
  const auto& clean = via_delta ? objective.delta : objective.blob;
  auto& memo =
      via_delta ? objective.clean_delta_verdict : objective.clean_blob_verdict;
  const std::vector<std::byte>& staged = *attempt.staged;
  // Only the server's own buffer, which a clean delivery hands back, hits
  // the memo. Any other buffer is validated on its own: the verdict is a
  // pure function of the bytes, so a byte-equal copy still gets it right.
  const bool is_clean = attempt.staged == clean;
  if (is_clean && memo) {
    return *memo;
  }
  // The header gate decides most damaged deliveries without a parse or
  // a throw; bytes that pass it get the reader's full validation.
  UpdateResult result = UpdateResult::kOk;
  if (const auto rejection =
          via_delta
              ? core::PolicyDeltaReader::check(*objective.delta_base, staged)
              : core::PolicyBlobReader::check(staged)) {
    result = to_update_result(rejection->fault);
  } else {
    try {
      if (via_delta) {
        const core::CompiledPolicyImage applied =
            core::PolicyDeltaReader::apply(*objective.delta_base, staged);
        result = applied.fingerprint() == objective.fingerprint
                     ? UpdateResult::kOk
                     : UpdateResult::kFingerprintMismatch;
      } else {
        const core::CompiledPolicyImage loaded =
            core::PolicyBlobReader::load(staged);
        result = loaded.fingerprint() == objective.fingerprint &&
                         loaded.version() == objective.version
                     ? UpdateResult::kOk
                     : UpdateResult::kFingerprintMismatch;
      }
    } catch (const core::PolicyWireError& error) {
      result = to_update_result(error.fault());
    }
  }
  if (is_clean) {
    memo = result;
  }
  return result;
}

void CampaignServer::step_vehicle(CampaignVehicle& vehicle, Attempt& attempt,
                                  Objective& objective,
                                  UpdateTransport& transport, std::uint64_t now,
                                  CampaignReport& report, WaveStats& stats) {
  switch (vehicle.state) {
    case VehicleState::kOffered: {
      if (vehicle.channel == UpdateChannel::kDelta && !objective.delta) {
        vehicle.channel = UpdateChannel::kBlob;  // no delta path planned
      }
      const auto& artefact = vehicle.channel == UpdateChannel::kDelta
                                 ? objective.delta
                                 : objective.blob;
      ++vehicle.attempts;
      if (vehicle.channel == UpdateChannel::kDelta) {
        report.delta_bytes_shipped += artefact->size();
      } else {
        report.blob_bytes_shipped += artefact->size();
      }
      Delivery delivery =
          transport.send(vehicle.id, vehicle.attempts, artefact);
      switch (delivery.status) {
        case DeliveryStatus::kDark:
          vehicle.state = VehicleState::kDark;
          return;
        case DeliveryStatus::kLost:
          // Nothing will arrive; the stage deadline discovers the loss.
          vehicle.state = VehicleState::kDownloading;
          attempt.stage_deadline = now + kDownloadTimeoutTicks;
          return;
        case DeliveryStatus::kDelivered:
          attempt.staged = std::move(delivery.payload);
          vehicle.state = VehicleState::kValidating;
          return;
      }
      return;
    }
    case VehicleState::kDownloading: {
      vehicle.last_result = UpdateResult::kValidationFailed;
      retry_or_fail(vehicle, attempt, now, stats);
      return;
    }
    case VehicleState::kValidating: {
      const UpdateResult result = validate_staged(vehicle, attempt, objective);
      vehicle.last_result = result;
      if (result == UpdateResult::kOk) {
        vehicle.state = VehicleState::kCommitting;
        return;
      }
      if (vehicle.channel == UpdateChannel::kDelta) {
        if (++vehicle.delta_failures >= config_.blob_fallback_after &&
            objective.blob) {
          vehicle.channel = UpdateChannel::kBlob;
          ++report.blob_fallbacks;
        }
      }
      retry_or_fail(vehicle, attempt, now, stats);
      return;
    }
    case VehicleState::kCommitting: {
      if (transport.power_loss_before_commit(vehicle.id, vehicle.attempts)) {
        // Power cut between validate and commit: the staged artefact is
        // gone, the sealed store untouched — on reboot the vehicle is
        // exactly where it was (tests pin this via FleetBoot on the
        // sealed blob). It retries like any other failed try.
        ++vehicle.power_losses;
        ++report.power_loss_reboots;
        retry_or_fail(vehicle, attempt, now, stats);
        return;
      }
      if (vehicle.channel == UpdateChannel::kBlob) {
        // The validated blob is immutable, so it becomes the sealed
        // store as is (for a clean delivery, the server's own blob).
        vehicle.sealed_blob = std::move(attempt.staged);
      } else {
        // Delta commit: the vehicle's re-serialised applied image is
        // byte-identical to the objective's blob (the delta contract,
        // pinned in tests), so the shared blob IS the sealed store.
        vehicle.sealed_blob = objective.blob;
      }
      attempt.staged.reset();
      vehicle.version = objective.version;
      vehicle.fingerprint = objective.fingerprint;
      vehicle.state = VehicleState::kHealthy;
      return;
    }
    case VehicleState::kIdle:
    case VehicleState::kHealthy:
    case VehicleState::kFailed:
    case VehicleState::kDark:
      return;
  }
}

CampaignServer::Objective CampaignServer::objective_for(
    std::uint64_t base_version) {
  Objective objective;
  objective.version = images_.back()->version();
  objective.fingerprint = fingerprints_.back();
  objective.blob = blobs_.back();
  const Artefact plan = plan_for(base_version);
  if (plan.channel == UpdateChannel::kDelta) {
    objective.delta = plan.bytes;
    objective.delta_base = images_[version_index_.at(base_version)].get();
  }
  return objective;
}

void CampaignServer::drive(std::vector<CampaignVehicle>& fleet,
                           std::span<const std::uint32_t> members,
                           Objectives& objectives,
                           UpdateTransport& transport, std::uint64_t deadline,
                           std::uint64_t& now, CampaignReport& report,
                           WaveStats& stats) {
  const std::uint64_t start = now;
  std::uint64_t end = start;
  for (const std::uint32_t id : members) {
    CampaignVehicle& vehicle = fleet[id];
    const auto entry = std::find_if(
        objectives.begin(), objectives.end(),
        [&vehicle](const auto& e) { return e.first == vehicle.version; });
    if (entry == objectives.end()) {
      throw std::out_of_range("CampaignServer: no objective for version");
    }
    Objective& objective = entry->second;
    vehicle.state = VehicleState::kOffered;
    vehicle.tries = 0;
    Attempt attempt;
    attempt.next_tick = start;
    std::uint64_t tick = start;
    while (!terminal(vehicle.state)) {
      // The next tick the vehicle acts on: an offered vehicle waits out
      // its backoff and a downloading one its stage deadline, and the
      // ticks in between change nothing, so they are skipped.
      std::uint64_t next = tick + 1;
      if (vehicle.state == VehicleState::kOffered) {
        next = std::max(next, attempt.next_tick);
      } else if (vehicle.state == VehicleState::kDownloading) {
        next = std::max(next, attempt.stage_deadline);
      }
      if (next > deadline) {
        // The deadline passes with the vehicle mid-flight: fail it out
        // (its retry budget was not enough inside this window). It
        // waited out every tick up to the deadline.
        tick = deadline;
        vehicle.state = VehicleState::kFailed;
        break;
      }
      tick = next;
      step_vehicle(vehicle, attempt, objective, transport, tick, report,
                   stats);
    }
    end = std::max(end, tick);
    switch (vehicle.state) {
      case VehicleState::kHealthy:
        ++stats.committed;
        break;
      case VehicleState::kFailed:
        ++stats.failed;
        break;
      case VehicleState::kDark:
        ++stats.dark;
        break;
      default:
        break;
    }
  }
  stats.ticks = end - start;
  now = end;
}

std::uint32_t CampaignServer::probe_denies(
    const core::CompiledPolicyImage& image) const {
  std::uint32_t denies = 0;
  for (const FleetCheck& check : probe_) {
    const core::SidRequest request = image.resolve(core::AccessRequest{
        check.subject, check.object, check.access, threat::ModeId{}});
    if (!image.evaluate(request).allowed) {
      ++denies;
    }
  }
  return denies;
}

CampaignReport CampaignServer::run(std::vector<CampaignVehicle>& fleet,
                                   UpdateTransport& transport) {
  CampaignReport report;
  report.target_version = images_.back()->version();
  report.target_fingerprint = fingerprints_.back();

  // Gate threshold: "denying more than the predecessor policy did".
  const std::uint32_t gate_deny_threshold =
      images_.size() >= 2 ? probe_denies(*images_[images_.size() - 2]) + 1
                          : 1;
  // Every committed vehicle runs the target image, so each answers the
  // probe with this deny count.
  const std::uint32_t target_denies = probe_denies(*images_.back());

  // One pass checks the id precondition, collects the eligible vehicles
  // (id order) and the distinct versions they start from. Only a vehicle
  // on an OLDER version is eligible: offering the target to one past it
  // would be a downgrade, which FleetBoot refuses too. Nothing changes
  // before the pass completes, so a bad fleet throws untouched.
  std::vector<std::uint32_t> eligible;
  eligible.reserve(fleet.size());
  std::vector<std::uint64_t> bases;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const CampaignVehicle& vehicle = fleet[i];
    if (vehicle.id != i) {
      throw std::invalid_argument(
          "CampaignServer::run: vehicle ids must be fleet positions");
    }
    if (vehicle.version >= report.target_version) {
      ++report.untouched;
      continue;
    }
    if (std::find(bases.begin(), bases.end(), vehicle.version) ==
        bases.end()) {
      bases.push_back(vehicle.version);
    }
    eligible.push_back(vehicle.id);
  }
  report.full_blob_bytes_baseline =
      static_cast<std::uint64_t>(eligible.size()) * blobs_.back()->size();

  // Wave boundaries as cumulative counts into `eligible`.
  std::vector<std::size_t> boundaries;
  if (!eligible.empty()) {
    // Fractions are finite and >= 0 (constructor-checked); clamping to
    // 1 before the cast keeps a large one inside std::size_t's range.
    const auto count_for = [&](double fraction) {
      return static_cast<std::size_t>(std::ceil(
          std::min(fraction, 1.0) * static_cast<double>(eligible.size())));
    };
    boundaries.push_back(std::max<std::size_t>(
        1, std::min(eligible.size(), count_for(config_.canary_fraction))));
    for (const double fraction : config_.wave_fractions) {
      const std::size_t upto = std::min(eligible.size(), count_for(fraction));
      if (upto > boundaries.back()) {
        boundaries.push_back(upto);
      }
    }
    if (boundaries.back() < eligible.size()) {
      boundaries.push_back(eligible.size());
    }
  }

  // Per-base-version objectives, shared across waves.
  Objectives objectives;
  objectives.reserve(bases.size());
  for (const std::uint64_t base : bases) {
    objectives.emplace_back(base, objective_for(base));
  }

  std::uint64_t now = 0;
  std::size_t covered = 0;
  std::size_t failed = 0;
  bool halted = false;
  for (std::size_t w = 0; w < boundaries.size() && !halted; ++w) {
    const std::span<const std::uint32_t> wave(eligible.data() + covered,
                                              boundaries[w] - covered);
    covered = boundaries[w];

    WaveStats stats;
    stats.wave = w;
    stats.size = wave.size();
    drive(fleet, wave, objectives, transport, now + kWaveTimeoutTicks, now,
          report, stats);
    report.retries += stats.retries;
    failed += stats.failed;
    const std::size_t reachable = stats.size - stats.dark;
    stats.commit_fraction =
        reachable == 0 ? 1.0
                       : static_cast<double>(stats.committed) /
                             static_cast<double>(reachable);

    // Observation window: the committed cohort answers the probe under
    // a fresh gate monitor (reset-at-window-open semantics — see
    // DenyStreakMonitor::reset()). Its vehicles give identical answers
    // and the monitor judges each alone, so the cohort is flagged
    // together or not at all: a monitor over one of them returns the
    // cohort's healthy fraction, 1.0 or 0.0.
    if (stats.committed > 0 && !probe_.empty()) {
      monitor::DenyStreakMonitor gate(
          1, monitor::DenyStreakOptions{gate_deny_threshold, kGateStreakTicks});
      const std::uint32_t counts[] = {target_denies};
      for (std::uint64_t tick = 0; tick < kHealthTicks; ++tick) {
        gate.observe_tick(counts);
      }
      stats.healthy_fraction = gate.healthy_fraction();
      now += kHealthTicks;
    }

    stats.gate_passed =
        stats.commit_fraction >= kMinCommitFraction &&
        stats.healthy_fraction >= kMinHealthyFraction;
    report.waves.push_back(stats);
    halted = !stats.gate_passed;
  }

  if (halted) {
    report.status = CampaignStatus::kHalted;
    run_rollback(fleet, transport, now, report);
  } else {
    // Every wave ran, so every eligible vehicle ended healthy, dark or
    // failed; one failure stalls the campaign.
    report.status =
        failed == 0 ? CampaignStatus::kConverged : CampaignStatus::kStalled;
  }

  report.ticks = now;
  audit_fleet(fleet, report);
  return report;
}

void CampaignServer::run_rollback(std::vector<CampaignVehicle>& fleet,
                                  UpdateTransport& transport,
                                  std::uint64_t& now, CampaignReport& report) {
  if (images_.size() < 2) {
    return;  // nothing older to roll back to
  }
  if (!rollback_image_) {
    // FleetBoot refuses version rollbacks, so roll FORWARD: the
    // predecessor's content restamped past the (bad) target version,
    // compiled in the lineage SID space so a delta off the target image
    // anchors cleanly.
    core::PolicySet content = lineage_[lineage_.size() - 2];
    content.set_version(images_.back()->version() + 1);
    const auto& target_sids = images_.back()->sids();
    rollback_image_ = std::make_shared<const core::CompiledPolicyImage>(
        core::CompiledPolicyImage::from_policy_set(
            content,
            core::replicate_sid_prefix(target_sids, target_sids.size())));
    rollback_blob_ = std::make_shared<const std::vector<std::byte>>(
        core::PolicyBlobWriter::write(*rollback_image_));
    rollback_delta_ = std::make_shared<const std::vector<std::byte>>(
        core::PolicyDeltaWriter::write(*images_.back(), *rollback_image_));
    rollback_fingerprint_ = rollback_image_->fingerprint();
  }
  report.rolled_back = true;
  report.rollback_version = rollback_image_->version();
  report.rollback_fingerprint = rollback_fingerprint_;

  Objective objective;
  objective.version = rollback_image_->version();
  objective.fingerprint = rollback_fingerprint_;
  objective.delta_base = images_.back().get();
  objective.delta = rollback_delta_;
  objective.blob = rollback_blob_;

  // Every vehicle that committed the (bad) target rolls back — across
  // all waves run so far. Mid-flight and failed vehicles never left
  // their old version; they need no rollback. The rollback is a new
  // objective, so each victim starts it on the delta channel with no
  // delta failures.
  std::vector<std::uint32_t> victims;
  for (CampaignVehicle& vehicle : fleet) {
    if (vehicle.state == VehicleState::kHealthy &&
        vehicle.fingerprint == fingerprints_.back()) {
      vehicle.delta_failures = 0;
      vehicle.channel = UpdateChannel::kDelta;
      victims.push_back(vehicle.id);
    }
  }
  Objectives objectives;
  objectives.emplace_back(images_.back()->version(), std::move(objective));
  WaveStats stats;
  drive(fleet, victims, objectives, transport, now + kWaveTimeoutTicks, now,
        report, stats);
  report.retries += stats.retries;
  report.rolled_back_vehicles = stats.committed;
}

void CampaignServer::audit_fleet(const std::vector<CampaignVehicle>& fleet,
                                 CampaignReport& report) const {
  // The zero-corrupt-images invariant: every vehicle's sealed store must
  // probe clean, match the vehicle's own record, and carry a fingerprint
  // the server ever released (lineage or rollback). Injected damage may
  // strand a vehicle on an OLD version; it must never corrupt a store.
  //
  // Stores are shared (make_fleet and every delta-channel commit hand out
  // the server's blobs), so each distinct store is probed once. Its
  // verdict is the fingerprint it carries when it probes clean and the
  // server released it, nullopt otherwise; a vehicle passes when its
  // record names that fingerprint. The fleet keeps every store alive for
  // the whole audit, so an address names one buffer throughout and the
  // memo gives each vehicle the verdict its own probe would.
  const auto released = [this](std::uint64_t fingerprint) {
    return (rollback_image_ && fingerprint == rollback_fingerprint_) ||
           std::find(fingerprints_.begin(), fingerprints_.end(),
                     fingerprint) != fingerprints_.end();
  };
  std::unordered_map<const std::vector<std::byte>*,
                     std::optional<std::uint64_t>>
      probed;
  for (const CampaignVehicle& vehicle : fleet) {
    switch (vehicle.state) {
      case VehicleState::kHealthy:
        ++report.healthy;
        break;
      case VehicleState::kFailed:
        ++report.failed;
        break;
      case VehicleState::kDark:
        ++report.dark;
        break;
      default:
        break;
    }
    if (!vehicle.sealed_blob) {
      ++report.corrupt_images;
      continue;
    }
    auto store = probed.find(vehicle.sealed_blob.get());
    if (store == probed.end()) {
      std::optional<std::uint64_t> fingerprint;
      try {
        fingerprint =
            core::PolicyBlobReader::probe(*vehicle.sealed_blob).fingerprint;
      } catch (const core::PolicyBlobError&) {
        // Rejected: the store's verdict stays nullopt.
      }
      if (fingerprint && !released(*fingerprint)) {
        fingerprint.reset();
      }
      store = probed.emplace(vehicle.sealed_blob.get(), fingerprint).first;
    }
    if (store->second != vehicle.fingerprint) {
      ++report.corrupt_images;
    }
  }
}

}  // namespace psme::car
