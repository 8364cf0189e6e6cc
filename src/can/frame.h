// psme::can — CAN data link layer frame model (ISO 11898-1).
//
// Models the fields that matter to policy enforcement and to faithful bus
// timing: identifier (11-bit base or 29-bit extended), RTR, DLC, payload,
// the real CRC-15 polynomial, and the actual bit-stuffed frame length used
// to compute transmission time on the simulated bus.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

namespace psme::can {

class CanId;
class Frame;

/// Text of an id or a frame in a fixed buffer held by value, so a trace
/// emitter can format one without a heap string. Views its own buffer:
/// keep it alive while the view is used.
template <std::size_t N>
class FixedText {
 public:
  // Implicit so that text() passes wherever a std::string_view is taken.
  operator std::string_view() const noexcept { return {chars_.data(), size_}; }

 private:
  friend class CanId;
  friend class Frame;

  std::array<char, N> chars_{};
  std::size_t size_ = 0;  // <= N
};

/// CAN identifier. Standard frames carry 11 bits, extended frames 29.
/// Lower numeric values are higher priority during arbitration (a 0 bit is
/// dominant on the wire).
class CanId {
 public:
  static constexpr std::uint32_t kMaxStandard = 0x7FF;
  static constexpr std::uint32_t kMaxExtended = 0x1FFF'FFFF;
  /// Longest to_string() text: "0x1FFFFFFFx".
  static constexpr std::size_t kMaxText = 11;

  constexpr CanId() noexcept = default;

  /// Standard (11-bit) identifier. Throws std::out_of_range if raw > 0x7FF.
  static CanId standard(std::uint32_t raw);

  /// Extended (29-bit) identifier. Throws std::out_of_range if raw > 0x1FFFFFFF.
  static CanId extended(std::uint32_t raw);

  [[nodiscard]] constexpr std::uint32_t raw() const noexcept { return raw_; }
  [[nodiscard]] constexpr bool is_extended() const noexcept { return extended_; }

  /// Arbitration sort key: the frame whose arbitration field has the first
  /// dominant (0) bit where the other has recessive (1) wins. For frames of
  /// mixed format sharing the 11-bit prefix, standard wins over extended
  /// (the IDE bit of a standard frame is dominant).
  [[nodiscard]] std::uint64_t arbitration_key() const noexcept;

  /// "0x123" for a standard id, "0x18DAF110x" for an extended one.
  [[nodiscard]] FixedText<kMaxText> text() const noexcept;
  [[nodiscard]] std::string to_string() const;
  /// Writes text() at `out` (at most kMaxText characters); returns its end.
  char* put_text(char* out) const noexcept;

  /// The id in the low 30 bits: the raw value in bits 0-28 and the
  /// extended flag in bit 29, so a caller may keep two flags of its own
  /// above it (as a deferred trace message's argument does).
  [[nodiscard]] constexpr std::uint32_t packed() const noexcept {
    return raw_ | (static_cast<std::uint32_t>(extended_) << 29);
  }
  /// The id whose packed() is `bits`; bits 30 and 31 are ignored, and a
  /// standard id keeps only its 11 bits.
  [[nodiscard]] static constexpr CanId unpack(std::uint32_t bits) noexcept {
    const bool extended = ((bits >> 29) & 1) != 0;
    return CanId(bits & (extended ? kMaxExtended : kMaxStandard), extended);
  }

  friend constexpr bool operator==(CanId a, CanId b) noexcept = default;
  friend constexpr auto operator<=>(CanId a, CanId b) noexcept {
    // Ordering is by bus priority: a < b means a wins arbitration over b.
    const std::uint64_t ka = a.arbitration_key_constexpr();
    const std::uint64_t kb = b.arbitration_key_constexpr();
    return ka <=> kb;
  }

 private:
  constexpr CanId(std::uint32_t raw, bool extended) noexcept
      : raw_(raw), extended_(extended) {}

  [[nodiscard]] constexpr std::uint64_t arbitration_key_constexpr() const noexcept {
    // Standard: 11 id bits, then IDE=0 (dominant).
    // Extended: 11 base bits, SRR=1, IDE=1, then 18 extension bits.
    if (!extended_) {
      return (static_cast<std::uint64_t>(raw_) << 20);  // 11 bits | 0....
    }
    const std::uint64_t base = (raw_ >> 18) & 0x7FF;
    const std::uint64_t ext = raw_ & 0x3FFFF;
    return (base << 20) | (0b11ULL << 18) | ext;
  }

  std::uint32_t raw_ = 0;
  bool extended_ = false;
};

/// A CAN 2.0 frame. DLC is limited to the classic 0..8 bytes.
class Frame {
 public:
  static constexpr std::size_t kMaxData = 8;
  /// Longest to_string() text: "id=0x1FFFFFFFx dlc=8 [00 11 22 33 44 55 66 77]".
  static constexpr std::size_t kMaxText = 46;

  Frame() = default;

  /// Data frame. Throws std::length_error if data.size() > 8.
  Frame(CanId id, std::span<const std::uint8_t> data);

  /// Remote transmission request frame (no payload; dlc conveys the
  /// requested length).
  static Frame remote(CanId id, std::uint8_t dlc);

  [[nodiscard]] CanId id() const noexcept { return id_; }
  [[nodiscard]] bool is_remote() const noexcept { return rtr_; }
  [[nodiscard]] std::uint8_t dlc() const noexcept { return dlc_; }
  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
    return {data_.data(), rtr_ ? 0u : dlc_};
  }

  /// First payload byte or 0 — common idiom for command frames.
  [[nodiscard]] std::uint8_t byte0() const noexcept {
    return (rtr_ || dlc_ == 0) ? 0 : data_[0];
  }

  /// CRC-15 over SOF..data as transmitted (polynomial x^15+x^14+x^10+x^8+
  /// x^7+x^4+x^3+1, i.e. 0x4599), per ISO 11898-1.
  [[nodiscard]] std::uint16_t crc15() const noexcept;

  /// Exact number of bits on the wire including stuff bits, CRC, ACK, EOF
  /// and the 3-bit interframe space. Determines transmission time.
  /// Computed a byte at a time from constant tables for the CRC-15 and the
  /// stuffing state, with the same result as a walk over every bit; only
  /// the header's leading partial byte and the CRC's last 7 bits step one
  /// bit at a time.
  [[nodiscard]] std::size_t wire_bits() const noexcept;

  /// "id=0x123 dlc=8 [de ad be ef ...]" for traces.
  [[nodiscard]] FixedText<kMaxText> text() const noexcept;
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Frame& a, const Frame& b) noexcept = default;

 private:
  CanId id_{};
  bool rtr_ = false;
  std::uint8_t dlc_ = 0;
  std::array<std::uint8_t, kMaxData> data_{};
};

/// Convenience builder for command-style frames: id + opcode + up to 7 args.
[[nodiscard]] Frame make_frame(std::uint32_t standard_id,
                               std::initializer_list<std::uint8_t> bytes);

}  // namespace psme::can
