// psme::can — CAN protocol controller.
//
// Mirrors the controller block of the paper's Fig. 3: it parses received
// frames, applies the *programmable software acceptance filter*, manages a
// priority-ordered transmit queue with automatic retransmission, and keeps
// the fault-confinement counters. The software filter being reprogrammable
// at runtime (set_filters is an ordinary mutator) is deliberate — the paper
// argues this is the weakness a hardware policy engine removes, and the
// attack framework models firmware compromise by rewriting these filters.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/channel.h"
#include "can/errors.h"
#include "can/frame.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace psme::can {

class WireMac;

/// Classic mask/value acceptance filter. A frame matches when its format
/// agrees and (raw & mask) == (value & mask).
struct AcceptanceFilter {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;
  bool extended = false;

  [[nodiscard]] bool matches(CanId id) const noexcept {
    return id.is_extended() == extended && (id.raw() & mask) == (value & mask);
  }

  /// Filter matching exactly one standard identifier.
  static AcceptanceFilter exact(std::uint32_t standard_id) noexcept {
    return AcceptanceFilter{CanId::kMaxStandard, standard_id, false};
  }
};

/// Counters a controller exposes for experiments.
struct ControllerStats {
  std::uint64_t tx_queued = 0;       // frames accepted into the TX queue
  std::uint64_t tx_sent = 0;         // frames successfully transmitted
  std::uint64_t tx_retransmits = 0;  // error-frame-triggered retries
  std::uint64_t tx_dropped = 0;      // queue full or bus-off or shim-refused
  std::uint64_t rx_seen = 0;         // frames observed on the bus
  std::uint64_t rx_accepted = 0;     // frames passing the acceptance filter
  std::uint64_t rx_filtered = 0;     // frames rejected by the filter
  std::uint64_t rx_overflow = 0;     // FIFO overruns (receiver too slow)
  std::uint64_t rx_quarantined = 0;  // frames dropped by a quarantine block
  std::uint64_t rx_wire_denied = 0;  // frames dropped by the wire MAC
};

/// The data-link controller of one CAN node.
class Controller final : public FrameSink {
 public:
  /// Frames the receiver hands to the application processor.
  using RxHandler = std::function<void(const Frame&, sim::SimTime)>;

  static constexpr std::size_t kDefaultTxQueue = 64;
  static constexpr std::size_t kDefaultRxFifo = 32;

  Controller(sim::Scheduler& sched, Channel& channel, std::string name,
             sim::Trace* trace = nullptr);
  ~Controller() override;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // -- transmit path --------------------------------------------------

  /// Queues a frame for transmission. Returns false (and counts a drop)
  /// when the queue is full or the node is bus-off.
  bool transmit(const Frame& frame);

  /// Maximum retransmission attempts per frame before it is dropped.
  void set_retransmit_limit(std::uint32_t limit) noexcept {
    retransmit_limit_ = limit;
  }

  // -- receive path ----------------------------------------------------

  /// Replaces the software acceptance filter set. An empty set accepts
  /// every frame (the controller power-on default).
  void set_filters(std::vector<AcceptanceFilter> filters);
  [[nodiscard]] const std::vector<AcceptanceFilter>& filters() const noexcept {
    return filters_;
  }

  /// Registers the application-processor handler. While a handler is set,
  /// accepted frames are dispatched immediately; otherwise they accumulate
  /// in the RX FIFO (bounded; overruns are counted).
  void set_rx_handler(RxHandler handler);

  /// Pops the oldest frame from the RX FIFO, if any.
  [[nodiscard]] bool receive(Frame& out);

  /// Attaches a wire-rate MAC adjudicator (nullptr detaches). Ingress
  /// order is pinned: quarantine blocks, then the acceptance filter,
  /// then the wire MAC — a filtered frame never burns a SID lookup.
  /// Denied frames are dropped before the application processor sees
  /// them, counted in rx_wire_denied. The WireMac must outlive its
  /// attachment; the controller does not own it.
  void set_wire_mac(WireMac* wire_mac) noexcept { wire_mac_ = wire_mac; }
  [[nodiscard]] WireMac* wire_mac() const noexcept { return wire_mac_; }

  // -- quarantine blocks -----------------------------------------------
  // A response layer (car::QuarantineController) can install temporary
  // id-level blocks that drop matching frames BEFORE the acceptance
  // filter, counted separately in rx_quarantined. Unlike set_filters()
  // these are additive (they never widen acceptance) and reversible one
  // id at a time, so a quarantine expiry restores exactly the previous
  // behaviour.

  /// Installs a quarantine block for `id` (idempotent).
  void quarantine_id(CanId id);
  /// Removes the block for `id`; returns false when none existed.
  bool release_quarantined_id(CanId id);
  void clear_quarantine() { quarantined_.clear(); }
  [[nodiscard]] const std::vector<CanId>& quarantined_ids() const noexcept {
    return quarantined_;
  }

  [[nodiscard]] std::size_t rx_fifo_depth() const noexcept {
    return rx_fifo_.size();
  }
  void set_rx_fifo_capacity(std::size_t capacity) noexcept {
    rx_fifo_capacity_ = capacity;
  }

  // -- status ----------------------------------------------------------

  [[nodiscard]] const ControllerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ErrorCounters& errors() const noexcept { return errors_; }
  [[nodiscard]] ErrorState error_state() const noexcept { return errors_.state(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t tx_queue_depth() const noexcept {
    return tx_queue_.size();
  }

  /// Resets fault confinement after bus-off (recovery sequence done).
  void reset_errors() noexcept { errors_.reset(); }

  // -- FrameSink (wire side; called by the bus or a policy shim) --------
  void on_frame(const Frame& frame, sim::SimTime at) override;
  void on_transmit_complete(const Frame& frame, bool success,
                            sim::SimTime at) override;

 private:
  void pump();  // pushes the highest-priority queued frame into the channel

  [[nodiscard]] bool accepts(CanId id) const noexcept;

  /// True when an attached trace keeps `level`. A message that needs
  /// formatting is built only inside this guard (DESIGN.md §8).
  [[nodiscard]] bool tracing(sim::TraceLevel level) const noexcept;
  /// Records `msg` under trace_component_ when tracing(level).
  void trace(sim::TraceLevel level, std::string_view msg);

  sim::Scheduler& sched_;
  Channel& channel_;
  std::string name_;
  sim::Trace* trace_;
  std::string trace_component_;  // "can.ctrl.<name>"

  // TX queue kept sorted by arbitration priority (lowest key first), FIFO
  // among equal identifiers — matches mailbox behaviour of real controllers.
  // The frame currently occupying the transmit slot is *not* in the queue;
  // it lives in in_flight_ until the bus reports completion. Reserved to
  // its capacity at construction, so queueing never allocates.
  std::vector<Frame> tx_queue_;
  std::size_t tx_queue_capacity_ = kDefaultTxQueue;
  std::uint32_t retransmit_limit_ = 8;
  std::uint32_t current_attempts_ = 0;
  std::optional<Frame> in_flight_;

  std::vector<AcceptanceFilter> filters_;
  std::vector<CanId> quarantined_;  // tiny; linear scan
  WireMac* wire_mac_ = nullptr;     // borrowed; see set_wire_mac
  RxHandler rx_handler_;
  std::deque<Frame> rx_fifo_;
  std::size_t rx_fifo_capacity_ = kDefaultRxFifo;

  ControllerStats stats_;
  ErrorCounters errors_;
};

}  // namespace psme::can
