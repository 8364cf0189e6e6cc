// psme::can — shared CAN bus with bitwise-priority arbitration.
//
// The bus models ISO 11898 medium access at frame granularity:
//  * when the wire goes idle, all ports with a pending frame enter
//    arbitration and the lowest arbitration key (most dominant bits) wins;
//  * the winning frame occupies the wire for its exact stuffed bit length
//    at the configured bit rate;
//  * on completion the frame is broadcast to every other attached port
//    (CAN is a broadcast medium — the paper's Sec. V notes this is the root
//    of the security problem);
//  * an error-injection hook can destroy frames in flight, which exercises
//    CRC/error-counter handling in the controllers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/channel.h"
#include "can/frame.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace psme::can {

/// Nominal bit rates commonly used on automotive buses.
inline constexpr std::uint32_t kBitRate500k = 500'000;  // high-speed CAN
inline constexpr std::uint32_t kBitRate125k = 125'000;  // comfort/body CAN

class Bus;

/// A physical attachment point on the bus. Created via Bus::attach().
class Port final : public Channel {
 public:
  Port(Bus& bus, std::size_t index, std::string name);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  bool submit(const Frame& frame) override;
  void set_sink(FrameSink* sink) override { sink_ = sink; }
  [[nodiscard]] bool busy() const override { return pending_.has_value(); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  /// Disconnects the port: no further submissions or deliveries. Models a
  /// node physically removed or in bus-off state.
  void disconnect() noexcept { connected_ = false; }
  void reconnect() noexcept { connected_ = true; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }

 private:
  friend class Bus;

  Bus& bus_;
  std::size_t index_;
  std::string name_;
  FrameSink* sink_ = nullptr;
  std::optional<Frame> pending_;
  bool connected_ = true;
};

/// The shared differential pair. Owns its ports.
class Bus {
 public:
  /// `trace` may be nullptr (no tracing).
  Bus(sim::Scheduler& sched, std::uint32_t bit_rate = kBitRate500k,
      sim::Trace* trace = nullptr, std::uint64_t seed = 1);

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Attaches a new port. The reference stays valid for the bus lifetime.
  Port& attach(std::string name);

  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }
  [[nodiscard]] Port& port(std::size_t i) { return *ports_.at(i); }

  [[nodiscard]] std::uint32_t bit_rate() const noexcept { return bit_rate_; }
  [[nodiscard]] sim::SimDuration bit_time() const noexcept {
    return sim::SimDuration{1'000'000'000ULL / bit_rate_};
  }

  /// Probability in [0,1] that any frame in flight is destroyed by a bus
  /// error (EMI model / deliberate error injection by the attack module).
  void set_error_rate(double p) noexcept { error_rate_ = p; }

  /// Fraction of wire-busy time over total elapsed time since construction.
  [[nodiscard]] double utilisation() const noexcept;

  /// Aggregate statistics.
  [[nodiscard]] std::uint64_t frames_delivered() const noexcept {
    return frames_delivered_;
  }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept {
    return frames_corrupted_;
  }
  [[nodiscard]] std::uint64_t arbitration_rounds() const noexcept {
    return arbitration_rounds_;
  }

  /// Per-port attribution of successful transmissions of `id`: entry i is
  /// how many frames carrying `id` port i has put on the wire so far. On a
  /// broadcast medium the receivers cannot tell transmitters apart, but the
  /// wire itself can — this is the physical-layer evidence a quarantine
  /// response layer uses to tell an attacker port spoofing a known id from
  /// the id's legitimate owner. Returns port_count() entries (all zero when
  /// the id was never transmitted).
  [[nodiscard]] std::vector<std::uint64_t> tx_attribution(CanId id) const;

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }

 private:
  friend class Port;

  /// Called by ports when a frame lands in an empty transmit slot.
  void kick();

  /// Starts arbitration if the wire is idle and a frame is pending.
  void arbitrate();

  /// Completes the in-flight transmission: clears the winner's slot,
  /// notifies it, broadcasts to all other ports, then re-arbitrates.
  void complete(std::size_t winner_index);

  /// True when an attached trace keeps `level`; every trace() call is
  /// guarded by it, so unkept messages are never formatted.
  [[nodiscard]] bool tracing(sim::TraceLevel level) const noexcept;
  void trace(sim::TraceLevel level, std::string msg);

  sim::Scheduler& sched_;
  std::uint32_t bit_rate_;
  sim::Trace* trace_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Port>> ports_;
  bool wire_busy_ = false;
  bool kick_scheduled_ = false;
  double error_rate_ = 0.0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t arbitration_rounds_ = 0;
  /// id key -> per-port successful-transmission counts (see tx_attribution).
  std::map<std::uint64_t, std::vector<std::uint64_t>> tx_by_id_;
  sim::SimDuration busy_time_{0};
};

}  // namespace psme::can
