#include "can/controller.h"

#include <algorithm>

#include "can/wire_mac.h"

namespace psme::can {

Controller::Controller(sim::Scheduler& sched, Channel& channel,
                       std::string name, sim::Trace* trace)
    : sched_(sched),
      channel_(channel),
      name_(std::move(name)),
      trace_(trace),
      trace_component_("can.ctrl." + name_) {
  tx_queue_.reserve(tx_queue_capacity_);
  channel_.set_sink(this);
}

Controller::~Controller() { channel_.set_sink(nullptr); }

bool Controller::transmit(const Frame& frame) {
  if (!errors_.can_transmit()) {
    ++stats_.tx_dropped;
    trace(sim::TraceLevel::kError, "transmit refused: node is bus-off");
    return false;
  }
  if (tx_queue_.size() >= tx_queue_capacity_) {
    ++stats_.tx_dropped;
    trace(sim::TraceLevel::kError, "transmit refused: TX queue full");
    return false;
  }
  // Insert keeping priority order (stable among equal identifiers).
  const auto key = frame.id().arbitration_key();
  auto it = std::find_if(tx_queue_.begin(), tx_queue_.end(),
                         [key](const Frame& f) {
                           return f.id().arbitration_key() > key;
                         });
  tx_queue_.insert(it, frame);
  ++stats_.tx_queued;
  pump();
  return true;
}

void Controller::pump() {
  while (!in_flight_.has_value() && !tx_queue_.empty() &&
         errors_.can_transmit()) {
    const Frame head = tx_queue_.front();
    if (channel_.submit(head)) {
      in_flight_ = head;
      tx_queue_.erase(tx_queue_.begin());
      return;
    }
    if (channel_.busy()) return;  // slot occupied; retry on completion
    // Not busy yet refused: a policy shim blocked the frame outright. Drop
    // it and keep pumping — a deep queue must not stall behind a blocked
    // head.
    if (tracing(sim::TraceLevel::kSecurity)) {
      trace(sim::TraceLevel::kSecurity,
            "TX blocked by policy shim: " + head.to_string());
    }
    ++stats_.tx_dropped;
    tx_queue_.erase(tx_queue_.begin());
    current_attempts_ = 0;
  }
}

void Controller::set_filters(std::vector<AcceptanceFilter> filters) {
  filters_ = std::move(filters);
}

void Controller::set_rx_handler(RxHandler handler) {
  rx_handler_ = std::move(handler);
  // Drain anything that accumulated while no handler was registered.
  while (rx_handler_ && !rx_fifo_.empty()) {
    const Frame f = rx_fifo_.front();
    rx_fifo_.pop_front();
    rx_handler_(f, sched_.now());
  }
}

bool Controller::receive(Frame& out) {
  if (rx_fifo_.empty()) return false;
  out = rx_fifo_.front();
  rx_fifo_.pop_front();
  return true;
}

void Controller::quarantine_id(CanId id) {
  if (std::find(quarantined_.begin(), quarantined_.end(), id) ==
      quarantined_.end()) {
    quarantined_.push_back(id);
  }
}

bool Controller::release_quarantined_id(CanId id) {
  const auto it = std::find(quarantined_.begin(), quarantined_.end(), id);
  if (it == quarantined_.end()) return false;
  quarantined_.erase(it);
  return true;
}

bool Controller::accepts(CanId id) const noexcept {
  if (filters_.empty()) return true;
  return std::any_of(filters_.begin(), filters_.end(),
                     [id](const AcceptanceFilter& f) { return f.matches(id); });
}

void Controller::on_frame(const Frame& frame, sim::SimTime at) {
  ++stats_.rx_seen;
  errors_.on_receive_success();
  if (!quarantined_.empty() &&
      std::find(quarantined_.begin(), quarantined_.end(), frame.id()) !=
          quarantined_.end()) {
    ++stats_.rx_quarantined;
    if (tracing(sim::TraceLevel::kSecurity)) {
      trace(sim::TraceLevel::kSecurity,
            "RX dropped by quarantine block: " + frame.to_string());
    }
    return;
  }
  if (!accepts(frame.id())) {
    ++stats_.rx_filtered;
    return;
  }
  // Wire MAC runs strictly AFTER the acceptance filter: a frame the
  // hardware would never deliver must not cost a SID lookup (ordering
  // pinned by test_controller's stage-counter test).
  if (wire_mac_ != nullptr && !wire_mac_->admit(frame, at)) {
    ++stats_.rx_wire_denied;
    if (tracing(sim::TraceLevel::kSecurity)) {
      trace(sim::TraceLevel::kSecurity,
            "RX dropped by wire MAC: " + frame.to_string());
    }
    return;
  }
  ++stats_.rx_accepted;
  if (rx_handler_) {
    rx_handler_(frame, at);
    return;
  }
  if (rx_fifo_.size() >= rx_fifo_capacity_) {
    ++stats_.rx_overflow;
    trace(sim::TraceLevel::kError, "RX FIFO overflow, frame lost");
    return;
  }
  rx_fifo_.push_back(frame);
}

void Controller::on_transmit_complete(const Frame& frame, bool success,
                                      sim::SimTime /*at*/) {
  if (success) {
    in_flight_.reset();
    errors_.on_transmit_success();
    ++stats_.tx_sent;
    current_attempts_ = 0;
    pump();
    return;
  }

  // Transmission destroyed by a bus error: standard CAN behaviour is
  // automatic retransmission of the same frame; we bound attempts so that
  // a jammed bus cannot wedge the simulation.
  errors_.on_transmit_error();
  ++current_attempts_;
  if (!errors_.can_transmit()) {
    trace(sim::TraceLevel::kError, "entered bus-off, dropping TX queue");
    stats_.tx_dropped += tx_queue_.size() + 1;  // queue plus in-flight frame
    tx_queue_.clear();
    in_flight_.reset();
    current_attempts_ = 0;
    return;
  }
  if (current_attempts_ >= retransmit_limit_) {
    if (tracing(sim::TraceLevel::kError)) {
      trace(sim::TraceLevel::kError,
            "retransmit limit reached, dropping " + frame.to_string());
    }
    in_flight_.reset();
    ++stats_.tx_dropped;
    current_attempts_ = 0;
    pump();
    return;
  }
  ++stats_.tx_retransmits;
  // Resubmit the in-flight frame directly: the slot just freed, and CAN
  // retransmits the same frame rather than letting the queue overtake it.
  if (!channel_.submit(*in_flight_)) {
    // Shim refusal or unexpected slot contention: drop rather than wedge.
    ++stats_.tx_dropped;
    in_flight_.reset();
    current_attempts_ = 0;
    pump();
  }
}

bool Controller::tracing(sim::TraceLevel level) const noexcept {
  return trace_ != nullptr && trace_->keeps(level);
}

void Controller::trace(sim::TraceLevel level, std::string_view msg) {
  if (tracing(level)) {
    trace_->record(sched_.now(), level, trace_component_, std::string(msg));
  }
}

}  // namespace psme::can
