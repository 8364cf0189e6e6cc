#include "can/bus.h"

#include <limits>

namespace psme::can {

Port::Port(Bus& bus, std::size_t index, std::string name)
    : bus_(bus), index_(index), name_(std::move(name)) {}

bool Port::submit(const Frame& frame) {
  if (!connected_ || pending_.has_value()) return false;
  pending_ = frame;
  bus_.kick();
  return true;
}

Bus::Bus(sim::Scheduler& sched, std::uint32_t bit_rate, sim::Trace* trace,
         std::uint64_t seed)
    : sched_(sched), bit_rate_(bit_rate), trace_(trace), rng_(seed) {
  if (bit_rate_ == 0) {
    throw std::invalid_argument("Bus: bit rate must be positive");
  }
}

Port& Bus::attach(std::string name) {
  ports_.push_back(std::make_unique<Port>(*this, ports_.size(), std::move(name)));
  return *ports_.back();
}

void Bus::kick() {
  // Defer arbitration to an event at the current time: several ports may
  // submit within the same instant, and all of them must compete.
  if (wire_busy_ || kick_scheduled_) return;
  kick_scheduled_ = true;
  sched_.schedule_in(sim::SimDuration::zero(), [this] {
    kick_scheduled_ = false;
    arbitrate();
  }, "can.bus.arbitrate");
}

void Bus::arbitrate() {
  if (wire_busy_) return;

  std::size_t winner = ports_.size();
  std::uint64_t best_key = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_tiebreak = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = *ports_[i];
    if (!p.connected_ || !p.pending_.has_value()) continue;
    const std::uint64_t key = p.pending_->id().arbitration_key();
    // Two nodes transmitting the same identifier simultaneously is a
    // protocol violation; we resolve deterministically by port index so the
    // simulation stays reproducible (the attack module exploits this to
    // model spoofing races).
    if (key < best_key || (key == best_key && i < best_tiebreak)) {
      best_key = key;
      best_tiebreak = i;
      winner = i;
    }
  }
  if (winner == ports_.size()) return;  // nothing pending

  ++arbitration_rounds_;
  wire_busy_ = true;
  const Frame& frame = *ports_[winner]->pending_;
  const auto duration = bit_time() * static_cast<std::int64_t>(frame.wire_bits());
  busy_time_ += duration;
  if (tracing(sim::TraceLevel::kDebug)) {
    trace(sim::TraceLevel::kDebug,
          ports_[winner]->name() + " wins arbitration: " + frame.to_string());
  }
  sched_.schedule_in(duration, [this, winner] { complete(winner); },
                     "can.bus.complete");
}

void Bus::complete(std::size_t winner_index) {
  Port& tx = *ports_[winner_index];
  const Frame frame = *tx.pending_;
  tx.pending_.reset();
  wire_busy_ = false;

  const bool corrupted = rng_.chance(error_rate_);
  const sim::SimTime now = sched_.now();

  if (corrupted) {
    ++frames_corrupted_;
    if (tracing(sim::TraceLevel::kError)) {
      trace(sim::TraceLevel::kError,
            "frame destroyed by bus error: " + frame.to_string());
    }
    if (tx.sink_ != nullptr) tx.sink_->on_transmit_complete(frame, false, now);
  } else {
    ++frames_delivered_;
    const std::uint64_t id_key =
        (static_cast<std::uint64_t>(frame.id().is_extended()) << 32) |
        frame.id().raw();
    auto& counts = tx_by_id_[id_key];
    if (counts.size() < ports_.size()) counts.resize(ports_.size(), 0);
    ++counts[winner_index];
    if (tx.sink_ != nullptr) tx.sink_->on_transmit_complete(frame, true, now);
    // CAN is broadcast: every other connected node observes the frame.
    for (const auto& port : ports_) {
      if (port.get() == &tx || !port->connected_) continue;
      if (port->sink_ != nullptr) port->sink_->on_frame(frame, now);
    }
  }

  // Losers of the previous round (and the retransmitting sender) compete
  // again as soon as the wire is free.
  kick();
}

std::vector<std::uint64_t> Bus::tx_attribution(CanId id) const {
  const std::uint64_t id_key =
      (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
  std::vector<std::uint64_t> counts(ports_.size(), 0);
  const auto it = tx_by_id_.find(id_key);
  if (it != tx_by_id_.end()) {
    for (std::size_t i = 0; i < it->second.size() && i < counts.size(); ++i) {
      counts[i] = it->second[i];
    }
  }
  return counts;
}

double Bus::utilisation() const noexcept {
  const auto elapsed = sched_.now();
  if (elapsed <= sim::SimTime::zero()) return 0.0;
  return static_cast<double>(busy_time_.count()) /
         static_cast<double>(elapsed.count());
}

bool Bus::tracing(sim::TraceLevel level) const noexcept {
  return trace_ != nullptr && trace_->keeps(level);
}

void Bus::trace(sim::TraceLevel level, std::string msg) {
  trace_->record(sched_.now(), level, "can.bus", std::move(msg));
}

}  // namespace psme::can
