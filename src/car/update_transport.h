// psme::car — the OTA artefact transport, with injectable faults.
//
// The campaign orchestrator (car/campaign.h) never hands bytes to a
// vehicle directly: every transfer goes through an UpdateTransport, the
// seam where the real world's failure modes live. The production
// implementation would be a radio link; here the two simulation
// implementations are a lossless reference (PerfectTransport) and a
// deterministic fault injector (FaultyTransport) driven by a
// sim::FaultPlan — drops, truncations, byte corruptions, stalls, dark
// vehicles and power-loss-before-commit, each a pure function of
// (seed, vehicle, attempt) so a campaign replays bit-identically.
//
// Contract notes for implementors:
//  * Artefacts travel as shared, immutable buffers. A clean delivery may
//    hand back the artefact's own buffer (both simulation transports
//    do), so a clean transfer copies nothing and the campaign reuses
//    its fleet-wide clean verdict. A transport that delivers a copy
//    still gets correct verdicts; the copy is validated per vehicle.
//    Damage must build a NEW buffer: the artefact is const and shared
//    fleet-wide, so a transport never writes into it.
//  * Truncation and corruption are DELIVERED damage: the receiver gets
//    bytes and must discover the defect through validation (that is the
//    trust boundary the wire formats defend; the campaign tests pin that
//    every injected damage earns a clean rejection, never UB).
//  * A drop or a stall delivers nothing; the receiver discovers it only
//    by its stage timeout expiring.
//  * kDark is sticky per vehicle: once a transport answers dark for a
//    vehicle it must keep answering dark (FaultyTransport derives
//    darkness from the fault stream's first dark decision and remembers
//    it).
//  * Every decision is a function of (vehicle, attempt) and of that
//    vehicle's own earlier transfers, never of the order of calls
//    across vehicles: each send's status, injected fault and payload,
//    and each power_loss_before_commit answer. The campaign relies on
//    it to walk one vehicle's attempts to the end before it starts the
//    next vehicle's (car/campaign.h), which must give what interleaving
//    them tick by tick would. FaultPlan decides this way, and
//    FaultyTransport's only state is the per-vehicle dark set and
//    counters that are sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fault_plan.h"

namespace psme::car {

enum class DeliveryStatus : std::uint8_t {
  kDelivered,  // payload arrived (possibly damaged — validate it!)
  kLost,       // nothing will arrive (drop or stall); timeout discovers it
  kDark,       // the vehicle is unreachable, now and for this campaign
};

struct Delivery {
  DeliveryStatus status = DeliveryStatus::kDelivered;
  /// The fault the plan injected into this transfer (kNone for a clean
  /// delivery) — telemetry for campaign reports and tests; a real
  /// receiver obviously never sees this field.
  sim::FaultKind injected = sim::FaultKind::kNone;
  /// The received bytes (kDelivered only; null otherwise): the sent
  /// artefact's own buffer when the delivery is clean, a buffer of its
  /// own when it is damaged.
  std::shared_ptr<const std::vector<std::byte>> payload;
};

class UpdateTransport {
 public:
  virtual ~UpdateTransport() = default;

  /// Transfers `artefact` (non-null) to `vehicle` as transfer attempt
  /// `attempt`.
  virtual Delivery send(
      std::uint32_t vehicle, std::uint32_t attempt,
      const std::shared_ptr<const std::vector<std::byte>>& artefact) = 0;

  /// Whether `vehicle` loses power after validating attempt `attempt`
  /// but before the sealed-store commit completes. Default: never.
  [[nodiscard]] virtual bool power_loss_before_commit(
      std::uint32_t vehicle, std::uint32_t attempt) const {
    (void)vehicle;
    (void)attempt;
    return false;
  }
};

/// Lossless reference transport: every send delivers the artefact's own
/// buffer.
class PerfectTransport final : public UpdateTransport {
 public:
  Delivery send(
      std::uint32_t vehicle, std::uint32_t attempt,
      const std::shared_ptr<const std::vector<std::byte>>& artefact) override;
};

/// Deterministic fault-injecting transport over a sim::FaultPlan.
class FaultyTransport final : public UpdateTransport {
 public:
  /// Cumulative injection telemetry (what the plan actually did across
  /// the campaign — the bench and the reports surface it).
  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered_clean = 0;
    std::uint64_t dropped = 0;
    std::uint64_t truncated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t stalled = 0;
    std::uint64_t dark = 0;
    std::uint64_t bytes_sent = 0;  // payload bytes leaving the server
  };

  explicit FaultyTransport(sim::FaultPlan plan) : plan_(std::move(plan)) {}

  Delivery send(
      std::uint32_t vehicle, std::uint32_t attempt,
      const std::shared_ptr<const std::vector<std::byte>>& artefact) override;

  [[nodiscard]] bool power_loss_before_commit(
      std::uint32_t vehicle, std::uint32_t attempt) const override {
    return plan_.power_loss_before_commit(vehicle, attempt);
  }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const sim::FaultPlan& plan() const noexcept { return plan_; }

 private:
  sim::FaultPlan plan_;
  Counters counters_;
  /// Vehicles the fault stream has sent dark, sorted — sticky for the
  /// transport's lifetime (a campaign). Sized by the dark vehicles, not
  /// by the largest id; a send searches it without hashing.
  std::vector<std::uint32_t> dark_;
};

}  // namespace psme::car
