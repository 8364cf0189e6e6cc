#include "can/isotp.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace psme::can {

namespace {

/// Conversation key: format bit above the 29 identifier bits.
[[nodiscard]] std::uint64_t id_key(CanId id) noexcept {
  return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
}

[[nodiscard]] CanId key_id(std::uint64_t key) {
  const auto raw = static_cast<std::uint32_t>(key & 0x1FFF'FFFF);
  return (key >> 32) != 0 ? CanId::extended(raw) : CanId::standard(raw);
}

}  // namespace

std::string_view to_string(IsoTpFrameType type) noexcept {
  switch (type) {
    case IsoTpFrameType::kSingle: return "single";
    case IsoTpFrameType::kFirst: return "first";
    case IsoTpFrameType::kConsecutive: return "consecutive";
    case IsoTpFrameType::kFlowControl: return "flow-control";
    case IsoTpFrameType::kInvalid: break;
  }
  return "invalid";
}

std::string_view to_string(IsoTpError error) noexcept {
  switch (error) {
    case IsoTpError::kNone: return "none";
    case IsoTpError::kMalformedPci: return "malformed-pci";
    case IsoTpError::kUnexpectedConsecutive: return "unexpected-cf";
    case IsoTpError::kWrongSequence: return "wrong-sequence";
    case IsoTpError::kOverlappingStart: return "overlapping-start";
    case IsoTpError::kTimeout: return "timeout";
  }
  return "invalid";
}

IsoTpFrameType isotp_frame_type(const Frame& frame) noexcept {
  if (frame.is_remote() || frame.dlc() == 0) return IsoTpFrameType::kInvalid;
  const std::uint8_t nibble = frame.byte0() >> 4;
  if (nibble > 3) return IsoTpFrameType::kInvalid;
  return static_cast<IsoTpFrameType>(nibble);
}

void IsoTpReassembler::open(std::uint64_t key, const Frame& frame,
                            std::size_t len, sim::SimTime at) {
  Conversation& conv = conversations_[key];
  conv.payload.clear();
  conv.payload.reserve(len);
  const std::span<const std::uint8_t> data = frame.data();
  conv.payload.assign(data.begin() + 2, data.end());
  conv.expected_len = len;
  conv.next_seq = 1;
  conv.last_activity = at;
}

IsoTpReassembler::Event IsoTpReassembler::feed(const Frame& frame,
                                               sim::SimTime at) {
  ++stats_.frames;
  const std::uint64_t key = id_key(frame.id());
  const IsoTpFrameType type = isotp_frame_type(frame);
  const std::span<const std::uint8_t> data = frame.data();

  switch (type) {
    case IsoTpFrameType::kSingle: {
      const std::size_t len = frame.byte0() & 0x0F;
      // SF length must be 1..7 and must fit the frame behind the PCI byte.
      if (len == 0 || len > Frame::kMaxData - 1 || len > data.size() - 1) {
        ++stats_.malformed;
        return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
      }
      // An SF tears down any half-open conversation on the same id: the
      // sender evidently abandoned it.
      if (conversations_.erase(key) != 0) ++stats_.restarts;
      ++stats_.single;
      completed_.id = frame.id();
      completed_.payload.assign(data.begin() + 1, data.begin() + 1 + len);
      ++stats_.completed;
      return Event{EventKind::kMessageComplete, IsoTpError::kNone, &completed_};
    }

    case IsoTpFrameType::kFirst: {
      // FF carries a 12-bit total length and must be a full 8-byte frame;
      // lengths 0..7 belong in an SF and are malformed here.
      if (data.size() != Frame::kMaxData) {
        ++stats_.malformed;
        return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
      }
      const std::size_t len =
          (static_cast<std::size_t>(frame.byte0() & 0x0F) << 8) | data[1];
      if (len < Frame::kMaxData || len > kIsoTpMaxPayload) {
        ++stats_.malformed;
        return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
      }
      ++stats_.first;
      const bool overlapping = conversations_.contains(key);
      if (overlapping) ++stats_.restarts;
      open(key, frame, len, at);
      return Event{EventKind::kMessageStart,
                   overlapping ? IsoTpError::kOverlappingStart
                               : IsoTpError::kNone,
                   nullptr};
    }

    case IsoTpFrameType::kConsecutive: {
      const auto it = conversations_.find(key);
      if (it == conversations_.end()) {
        ++stats_.unexpected_cf;
        return Event{EventKind::kError, IsoTpError::kUnexpectedConsecutive,
                     nullptr};
      }
      Conversation& conv = it->second;
      const std::uint8_t seq = frame.byte0() & 0x0F;
      if (seq != conv.next_seq) {
        // A dropped, duplicated or reordered CF is unrecoverable for a
        // passive observer: abort the conversation rather than guess.
        ++stats_.wrong_sequence;
        conversations_.erase(it);
        return Event{EventKind::kError, IsoTpError::kWrongSequence, nullptr};
      }
      const std::size_t remaining = conv.expected_len - conv.payload.size();
      const std::size_t take = std::min<std::size_t>(remaining, 7);
      if (data.size() - 1 < take) {
        // Truncated CF: the sender owed `take` bytes.
        ++stats_.malformed;
        conversations_.erase(it);
        return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
      }
      ++stats_.consecutive;
      conv.payload.insert(conv.payload.end(), data.begin() + 1,
                          data.begin() + 1 + take);
      conv.next_seq = static_cast<std::uint8_t>((conv.next_seq + 1) & 0x0F);
      conv.last_activity = at;
      if (conv.payload.size() < conv.expected_len) {
        return Event{EventKind::kPayloadFrame, IsoTpError::kNone, nullptr};
      }
      completed_.id = frame.id();
      completed_.payload = std::move(conv.payload);
      conversations_.erase(it);
      ++stats_.completed;
      return Event{EventKind::kMessageComplete, IsoTpError::kNone, &completed_};
    }

    case IsoTpFrameType::kFlowControl: {
      // FC = PCI byte, block size, STmin. Flow status 0..2; 3+ reserved.
      if (data.size() < 3 || (frame.byte0() & 0x0F) > 2) {
        ++stats_.malformed;
        return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
      }
      ++stats_.flow_control;
      return Event{EventKind::kNone, IsoTpError::kNone, nullptr};
    }

    case IsoTpFrameType::kInvalid: break;
  }
  ++stats_.malformed;
  return Event{EventKind::kError, IsoTpError::kMalformedPci, nullptr};
}

std::vector<CanId> IsoTpReassembler::expire(sim::SimTime now) {
  std::vector<CanId> expired;
  for (auto it = conversations_.begin(); it != conversations_.end();) {
    if (now - it->second.last_activity > cf_timeout_) {
      expired.push_back(key_id(it->first));
      ++stats_.timeouts;
      it = conversations_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

bool IsoTpReassembler::in_conversation(CanId id) const noexcept {
  return conversations_.contains(id_key(id));
}

void IsoTpReassembler::reset() {
  conversations_.clear();
  completed_ = IsoTpMessage{};
}

std::vector<Frame> isotp_segment(CanId id,
                                 std::span<const std::uint8_t> payload) {
  if (payload.empty()) {
    throw std::invalid_argument("isotp_segment: empty payload");
  }
  if (payload.size() > kIsoTpMaxPayload) {
    throw std::length_error("isotp_segment: payload exceeds 4095 bytes");
  }
  std::vector<Frame> frames;
  std::array<std::uint8_t, Frame::kMaxData> buf{};
  if (payload.size() <= Frame::kMaxData - 1) {
    buf[0] = static_cast<std::uint8_t>(payload.size());
    std::copy(payload.begin(), payload.end(), buf.begin() + 1);
    frames.emplace_back(id, std::span<const std::uint8_t>(
                                buf.data(), payload.size() + 1));
    return frames;
  }
  buf[0] = static_cast<std::uint8_t>(0x10 | (payload.size() >> 8));
  buf[1] = static_cast<std::uint8_t>(payload.size() & 0xFF);
  std::copy(payload.begin(), payload.begin() + 6, buf.begin() + 2);
  frames.emplace_back(id, std::span<const std::uint8_t>(buf.data(), 8));
  std::size_t offset = 6;
  std::uint8_t seq = 1;
  while (offset < payload.size()) {
    const std::size_t take = std::min<std::size_t>(payload.size() - offset, 7);
    buf[0] = static_cast<std::uint8_t>(0x20 | seq);
    std::copy(payload.begin() + offset, payload.begin() + offset + take,
              buf.begin() + 1);
    frames.emplace_back(id,
                        std::span<const std::uint8_t>(buf.data(), take + 1));
    offset += take;
    seq = static_cast<std::uint8_t>((seq + 1) & 0x0F);
  }
  return frames;
}

}  // namespace psme::can
