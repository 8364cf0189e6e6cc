#include "car/update_transport.h"

#include <algorithm>

namespace psme::car {

Delivery PerfectTransport::send(
    std::uint32_t vehicle, std::uint32_t attempt,
    const std::shared_ptr<const std::vector<std::byte>>& artefact) {
  (void)vehicle;
  (void)attempt;
  Delivery delivery;
  delivery.payload = artefact;
  return delivery;
}

Delivery FaultyTransport::send(
    std::uint32_t vehicle, std::uint32_t attempt,
    const std::shared_ptr<const std::vector<std::byte>>& artefact) {
  ++counters_.sent;
  counters_.bytes_sent += artefact->size();

  Delivery delivery;
  const auto dark = std::lower_bound(dark_.begin(), dark_.end(), vehicle);
  if (dark != dark_.end() && *dark == vehicle) {
    delivery.status = DeliveryStatus::kDark;
    delivery.injected = sim::FaultKind::kDark;
    ++counters_.dark;
    return delivery;
  }

  const sim::FaultDecision fault = plan_.transport_fault(vehicle, attempt);
  delivery.injected = fault.kind;
  switch (fault.kind) {
    case sim::FaultKind::kDrop:
      delivery.status = DeliveryStatus::kLost;
      ++counters_.dropped;
      return delivery;
    case sim::FaultKind::kStall:
      delivery.status = DeliveryStatus::kLost;
      ++counters_.stalled;
      return delivery;
    case sim::FaultKind::kDark:
      dark_.insert(dark, vehicle);
      delivery.status = DeliveryStatus::kDark;
      ++counters_.dark;
      return delivery;
    case sim::FaultKind::kTruncate: {
      // Short delivery: at least one byte missing, possibly all of them.
      const std::size_t keep = std::min(
          artefact->size() - 1,
          static_cast<std::size_t>(fault.at *
                                   static_cast<double>(artefact->size())));
      delivery.payload = std::make_shared<const std::vector<std::byte>>(
          artefact->begin(), artefact->begin() + static_cast<long>(keep));
      ++counters_.truncated;
      return delivery;
    }
    case sim::FaultKind::kCorrupt: {
      auto damaged = std::make_shared<std::vector<std::byte>>(*artefact);
      if (!damaged->empty()) {
        const std::size_t at = std::min(
            damaged->size() - 1,
            static_cast<std::size_t>(fault.at *
                                     static_cast<double>(damaged->size())));
        (*damaged)[at] ^= std::byte{fault.flip};
      }
      delivery.payload = std::move(damaged);
      ++counters_.corrupted;
      return delivery;
    }
    case sim::FaultKind::kPowerLoss:  // not a transport fault; unreachable
    case sim::FaultKind::kNone:
      break;
  }
  delivery.payload = artefact;
  ++counters_.delivered_clean;
  return delivery;
}

}  // namespace psme::car
