// psme::can — ISO 15765-2 (ISO-TP) transport-layer reassembly.
//
// Diagnostic and firmware payloads larger than one CAN frame travel as
// ISO-TP conversations: a FirstFrame announcing the total length, then
// ConsecutiveFrames carrying 7 bytes each under a 4-bit rolling sequence
// number, paced by FlowControl frames from the receiver. The wire MAC
// needs the conversation view — a 4 KiB firmware block must be
// adjudicated ONCE as a flow, not 587 times as unrelated frames — so
// this module provides a passive reassembler: it observes frames (it
// never transmits FlowControl itself; the simulated peers do) and turns
// them into message-start / message-complete events with strict sequence
// checking and receive-side (N_Cr) timeout expiry.
//
// Robustness contract: feed() accepts ANY frame, including adversarial
// garbage — malformed PCI nibbles, impossible lengths, truncated frames,
// RTR frames — and classifies it as an error event without undefined
// behaviour. test_isotp fuzzes this promise under ASan/UBSan.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "can/frame.h"
#include "sim/time.h"

namespace psme::can {

/// Largest payload one ISO-TP conversation can carry (12-bit FF length).
inline constexpr std::size_t kIsoTpMaxPayload = 4095;

/// Protocol control information: high nibble of the first payload byte.
enum class IsoTpFrameType : std::uint8_t {
  kSingle = 0,       // SF: whole payload (1..7 bytes) in one frame
  kFirst = 1,        // FF: opens a multi-frame conversation
  kConsecutive = 2,  // CF: next 1..7 payload bytes, 4-bit sequence
  kFlowControl = 3,  // FC: receiver pacing (CTS / WAIT / OVFLW)
  kInvalid = 4,      // reserved PCI nibble, RTR, or empty frame
};

[[nodiscard]] std::string_view to_string(IsoTpFrameType type) noexcept;

/// Why a frame was rejected or a conversation aborted.
enum class IsoTpError : std::uint8_t {
  kNone = 0,
  kMalformedPci,          // reserved PCI, impossible length, truncated frame
  kUnexpectedConsecutive, // CF with no conversation open on the id
  kWrongSequence,         // CF sequence number mismatch (aborts the flow)
  kOverlappingStart,      // FF while a conversation was already open
  kTimeout,               // conversation expired waiting for the next CF
};

[[nodiscard]] std::string_view to_string(IsoTpError error) noexcept;

/// One reassembled transport message.
struct IsoTpMessage {
  CanId id;
  std::vector<std::uint8_t> payload;
};

struct IsoTpStats {
  std::uint64_t frames = 0;          // frames fed
  std::uint64_t single = 0;          // valid SF frames
  std::uint64_t first = 0;           // valid FF frames (conversations opened)
  std::uint64_t consecutive = 0;     // valid, in-sequence CF frames
  std::uint64_t flow_control = 0;    // valid FC frames observed
  std::uint64_t completed = 0;       // conversations fully reassembled
  std::uint64_t malformed = 0;       // kMalformedPci events
  std::uint64_t wrong_sequence = 0;  // kWrongSequence aborts
  std::uint64_t unexpected_cf = 0;   // kUnexpectedConsecutive events
  std::uint64_t restarts = 0;        // kOverlappingStart restarts
  std::uint64_t timeouts = 0;        // conversations dropped by expire()
};

/// Passive per-identifier ISO-TP reassembler. Conversations are keyed by
/// the full CAN identifier (format bit included), so flows on distinct
/// ids interleave freely — the classic request/response id pair of a
/// diagnostic session reassembles as two independent conversations.
class IsoTpReassembler {
 public:
  /// Receive-side inter-CF timeout (ISO 15765-2 N_Cr; 1 s default).
  static constexpr sim::SimDuration kDefaultCfTimeout =
      std::chrono::milliseconds{1000};

  enum class EventKind : std::uint8_t {
    kNone = 0,         // frame consumed, nothing to report (e.g. FC)
    kMessageStart,     // valid FF opened (or restarted) a conversation
    kPayloadFrame,     // valid mid-conversation CF
    kMessageComplete,  // SF, or final CF: `message` holds the payload
    kError,            // `error` says why; offending flow (if any) aborted
  };

  struct Event {
    EventKind kind = EventKind::kNone;
    IsoTpError error = IsoTpError::kNone;
    /// Set only for kMessageComplete. Points into the reassembler; valid
    /// until the next feed()/expire()/reset() call.
    const IsoTpMessage* message = nullptr;
  };

  explicit IsoTpReassembler(sim::SimDuration cf_timeout = kDefaultCfTimeout)
      : cf_timeout_(cf_timeout) {}

  /// Classifies one frame and advances the conversation state machine.
  /// Never throws; adversarial input yields kError events.
  Event feed(const Frame& frame, sim::SimTime at);

  /// Aborts every conversation whose last frame is older than the CF
  /// timeout; returns the identifiers dropped (newest state first is not
  /// guaranteed). Call with a monotone clock; feed() does NOT expire.
  std::vector<CanId> expire(sim::SimTime now);

  [[nodiscard]] const IsoTpStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t open_conversations() const noexcept {
    return conversations_.size();
  }
  /// True while a conversation is open on `id`: an FF opened it, and no
  /// completion, aborting error, SF or expiry has ended it since.
  [[nodiscard]] bool in_conversation(CanId id) const noexcept;
  [[nodiscard]] sim::SimDuration cf_timeout() const noexcept {
    return cf_timeout_;
  }

  /// Drops all conversation state and the last completed message.
  void reset();

 private:
  struct Conversation {
    std::vector<std::uint8_t> payload;  // bytes received so far
    std::size_t expected_len = 0;
    std::uint8_t next_seq = 1;  // FF is implicitly sequence 0
    sim::SimTime last_activity{};
  };

  /// Opens (or restarts) the conversation for `key` from a validated FF.
  void open(std::uint64_t key, const Frame& frame, std::size_t len,
            sim::SimTime at);

  sim::SimDuration cf_timeout_;
  std::unordered_map<std::uint64_t, Conversation> conversations_;
  IsoTpMessage completed_;  // storage behind Event::message
  IsoTpStats stats_;
};

/// PCI classification of one frame (pure; no conversation state).
[[nodiscard]] IsoTpFrameType isotp_frame_type(const Frame& frame) noexcept;

/// Segments `payload` into the ISO-TP frame sequence a sender would emit
/// (SF for <= 7 bytes, otherwise FF + CFs with wrapping sequence
/// numbers). Throws std::length_error above kIsoTpMaxPayload and
/// std::invalid_argument for an empty payload. The inverse of
/// reassembly; tests and benches round-trip through it.
[[nodiscard]] std::vector<Frame> isotp_segment(
    CanId id, std::span<const std::uint8_t> payload);

}  // namespace psme::can
