// psme::core — policy distribution and update.
//
// The paper's key operational claim (Sec. V-A.3): when a new threat is
// discovered after deployment, the OEM distributes a *policy definition
// update* instead of redesigning hardware/software. This module provides:
//
//  * PolicyBundle  — a policy set packaged with version metadata and an
//    integrity tag (a keyed hash standing in for a real HMAC/signature;
//    see DESIGN.md's substitution table — the security argument only needs
//    "device rejects bundles not produced by the OEM key");
//  * UpdateChannel — a simulated OTA distribution channel with latency and
//    loss, so benches can measure the exposure window end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/policy.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace psme::core {

/// Keyed integrity tag over a policy set. NOT cryptography — a stand-in
/// with the right interface (key holder can sign; others cannot forge
/// except by accident) for simulation purposes.
class PolicySigner {
 public:
  explicit PolicySigner(std::uint64_t key) : key_(key) {}

  [[nodiscard]] std::uint64_t sign(const PolicySet& set) const noexcept;
  [[nodiscard]] bool verify(const PolicySet& set, std::uint64_t tag) const noexcept;

 private:
  std::uint64_t key_;
};

struct PolicyBundle {
  PolicySet set;
  std::uint64_t tag = 0;  // integrity tag from PolicySigner::sign
  std::string origin;     // e.g. "oem.security-team"

  [[nodiscard]] std::uint64_t version() const noexcept { return set.version(); }
};

/// Simulated OTA distribution channel. Devices subscribe; published
/// bundles arrive after a configurable latency and may be lost (each
/// delivery retried until `max_attempts`).
class UpdateChannel {
 public:
  using DeliveryCallback = std::function<void(const PolicyBundle&)>;

  UpdateChannel(sim::Scheduler& sched, sim::SimDuration latency,
                double loss_rate = 0.0, std::uint64_t seed = 99);

  /// Registers a device endpoint; returns its subscriber index.
  std::size_t subscribe(DeliveryCallback on_delivery);

  /// Publishes a bundle to all subscribers.
  void publish(PolicyBundle bundle);

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

  void set_max_attempts(std::uint32_t attempts) noexcept {
    max_attempts_ = attempts;
  }

 private:
  void deliver(std::size_t subscriber, PolicyBundle bundle,
               std::uint32_t attempt);

  sim::Scheduler& sched_;
  sim::SimDuration latency_;
  double loss_rate_;
  sim::Rng rng_;
  std::vector<DeliveryCallback> subscribers_;
  std::uint32_t max_attempts_ = 5;
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace psme::core
