#include "core/update.h"

namespace psme::core {

namespace {

/// Mixes a 64-bit value (splitmix64 finaliser) — used to bind the key to
/// the fingerprint in a way simple XOR would not.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t PolicySigner::sign(const PolicySet& set) const noexcept {
  return mix(set.fingerprint() ^ mix(key_));
}

bool PolicySigner::verify(const PolicySet& set, std::uint64_t tag) const noexcept {
  return sign(set) == tag;
}

UpdateChannel::UpdateChannel(sim::Scheduler& sched, sim::SimDuration latency,
                             double loss_rate, std::uint64_t seed)
    : sched_(sched), latency_(latency), loss_rate_(loss_rate), rng_(seed) {}

std::size_t UpdateChannel::subscribe(DeliveryCallback on_delivery) {
  subscribers_.push_back(std::move(on_delivery));
  return subscribers_.size() - 1;
}

void UpdateChannel::publish(PolicyBundle bundle) {
  ++published_;
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    deliver(i, bundle, 1);
  }
}

void UpdateChannel::deliver(std::size_t subscriber, PolicyBundle bundle,
                            std::uint32_t attempt) {
  sched_.schedule_in(latency_, [this, subscriber, bundle, attempt] {
    if (rng_.chance(loss_rate_)) {
      if (attempt >= max_attempts_) {
        ++lost_;
        return;
      }
      deliver(subscriber, bundle, attempt + 1);
      return;
    }
    ++delivered_;
    subscribers_[subscriber](bundle);
  }, "core.update.deliver");
}

}  // namespace psme::core
