#include "can/recorder.h"

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace psme::can {

FrameRecorder::FrameRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FrameRecorder: capacity must be positive");
  }
}

void FrameRecorder::on_frame(const Frame& frame, sim::SimTime at) {
  if (records_.size() >= capacity_) {
    records_.erase(records_.begin());
    ++dropped_;
  }
  records_.push_back(RecordedFrame{at, frame});
}

std::vector<RecordedFrame> FrameRecorder::filter_by_id(CanId id) const {
  std::vector<RecordedFrame> out;
  for (const auto& record : records_) {
    if (record.frame.id() == id) out.push_back(record);
  }
  return out;
}

std::vector<RecordedFrame> FrameRecorder::between(sim::SimTime from,
                                                  sim::SimTime to) const {
  std::vector<RecordedFrame> out;
  for (const auto& record : records_) {
    if (record.at >= from && record.at <= to) out.push_back(record);
  }
  return out;
}

const RecordedFrame* FrameRecorder::find_first(CanId id) const noexcept {
  for (const auto& record : records_) {
    if (record.frame.id() == id) return &record;
  }
  return nullptr;
}

std::string FrameRecorder::to_csv() const {
  std::ostringstream out;
  out << "time_ns,id,extended,rtr,dlc,data\n";
  for (const auto& record : records_) {
    out << record.at.count() << ",0x" << std::hex << record.frame.id().raw()
        << std::dec << ',' << (record.frame.id().is_extended() ? 1 : 0) << ','
        << (record.frame.is_remote() ? 1 : 0) << ','
        << static_cast<int>(record.frame.dlc()) << ',';
    for (const auto byte : record.frame.data()) {
      out << std::hex << std::setw(2) << std::setfill('0')
          << static_cast<int>(byte);
    }
    out << std::dec << '\n';
  }
  return out.str();
}

Replayer::Replayer(sim::Scheduler& sched, TransmitFn transmit)
    : sched_(sched), transmit_(std::move(transmit)) {
  if (!transmit_) {
    throw std::invalid_argument("Replayer: transmit function required");
  }
}

void Replayer::fire(const Frame& frame) {
  if (transmit_(frame)) {
    ++transmitted_;
  } else {
    ++refused_;
  }
}

std::size_t Replayer::replay(const std::vector<RecordedFrame>& records,
                             double speedup) {
  if (records.empty()) return 0;
  if (!std::isfinite(speedup) || speedup <= 0.0) {
    throw std::invalid_argument(
        "Replayer: speedup must be finite and positive");
  }
  // Everything is checked before anything is scheduled, so a rejected
  // replay leaves the scheduler as it was.
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].at < records[i - 1].at) {
      throw std::invalid_argument("Replayer: records out of time order");
    }
  }
  const sim::SimTime base = records.front().at;
  const auto stretched = [&](const RecordedFrame& record) {
    return static_cast<double>((record.at - base).count()) / speedup;
  };
  // In time order the last offset is the largest; 2^63 is the first
  // double past every sim::SimDuration count.
  if (stretched(records.back()) >= 0x1p63) {
    throw std::invalid_argument(
        "Replayer: stretched replay overflows the simulation clock");
  }
  for (const auto& record : records) {
    sched_.schedule_in(
        sim::SimDuration{static_cast<std::int64_t>(stretched(record))},
        [this, frame = record.frame] { fire(frame); }, "replay");
  }
  return records.size();
}

void Replayer::replay_repeated(const Frame& frame, std::uint32_t count,
                               sim::SimDuration spacing) {
  for (std::uint32_t i = 0; i < count; ++i) {
    sched_.schedule_in(spacing * static_cast<std::int64_t>(i),
                       [this, frame] { fire(frame); }, "replay");
  }
}

}  // namespace psme::can
