// psme::can — bus traffic recording and replay.
//
// Two security workflows need a faithful capture of the wire:
//  * forensics / evidence identification — after an incident, the trace of
//    timestamped frames is what the analyst works from (cf. Akatyev &
//    James, which the paper builds on);
//  * replay attacks — the classic CAN attack primitive: record a
//    legitimate frame (an unlock command, say) and inject it later.
//    Replayer models exactly that, which is also why freshness cannot
//    come from the frame itself and policy filters must gate by
//    mode/context instead. Its callers are the ReplayAttack tests and
//    examples/intrusion_detection.cpp; no library code uses it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "can/channel.h"
#include "can/frame.h"
#include "sim/event_queue.h"

namespace psme::can {

struct RecordedFrame {
  sim::SimTime at{};
  Frame frame;
};

/// Passive tap storing every observed frame with its timestamp. Attach as
/// the sink of a dedicated bus port.
class FrameRecorder final : public FrameSink {
 public:
  /// `capacity` bounds memory; older frames are dropped once exceeded
  /// (count kept in dropped()).
  explicit FrameRecorder(std::size_t capacity = 65536);

  void on_frame(const Frame& frame, sim::SimTime at) override;

  [[nodiscard]] const std::vector<RecordedFrame>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  void clear() noexcept { records_.clear(); }

  /// Frames matching an id, in capture order.
  [[nodiscard]] std::vector<RecordedFrame> filter_by_id(CanId id) const;

  /// Frames captured within [from, to].
  [[nodiscard]] std::vector<RecordedFrame> between(sim::SimTime from,
                                                   sim::SimTime to) const;

  /// First captured frame with the given id, if any.
  [[nodiscard]] const RecordedFrame* find_first(CanId id) const noexcept;

  /// CSV export: time_ns,id,extended,rtr,dlc,data-hex.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::size_t capacity_;
  std::vector<RecordedFrame> records_;
  std::uint64_t dropped_ = 0;
};

/// Schedules captured frames back onto a bus through a transmit function
/// (typically a controller's or an attacker node's transmit).
class Replayer {
 public:
  using TransmitFn = std::function<bool(const Frame&)>;

  Replayer(sim::Scheduler& sched, TransmitFn transmit);

  /// Replays the given records starting now, preserving their original
  /// inter-frame spacing (timestamps are re-based to the current time).
  /// `speedup` > 1 compresses the timeline. Returns the number scheduled.
  /// Throws std::invalid_argument, scheduling nothing, unless `speedup`
  /// is finite and > 0, the records are in non-decreasing time, and
  /// every stretched offset fits a sim::SimDuration.
  std::size_t replay(const std::vector<RecordedFrame>& records,
                     double speedup = 1.0);

  /// Replays one frame `count` times with fixed spacing — the classic
  /// replay-attack loop.
  void replay_repeated(const Frame& frame, std::uint32_t count,
                       sim::SimDuration spacing);

  [[nodiscard]] std::uint64_t transmitted() const noexcept {
    return transmitted_;
  }
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }

 private:
  void fire(const Frame& frame);

  sim::Scheduler& sched_;
  TransmitFn transmit_;
  std::uint64_t transmitted_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace psme::can
