#include "can/frame.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>

namespace psme::can {

namespace {

constexpr char kUpperHex[] = "0123456789ABCDEF";
constexpr char kLowerHex[] = "0123456789abcdef";

char* put_literal(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

/// Writes CanId::text() at `out`; returns its end.
char* put_id(char* out, CanId id) {
  *out++ = '0';
  *out++ = 'x';
  const std::uint32_t raw = id.raw();
  int shift = 28;
  while (shift > 0 && ((raw >> shift) & 0xF) == 0) shift -= 4;
  for (; shift >= 0; shift -= 4) *out++ = kUpperHex[(raw >> shift) & 0xF];
  if (id.is_extended()) *out++ = 'x';  // suffix marks extended format
  return out;
}

// -- CRC-15 -------------------------------------------------------------
//
// ISO 11898-1 CRC: polynomial 0xC599 (x^15+x^14+x^10+x^8+x^7+x^4+x^3+1),
// computed over SOF through the last data bit, initial value 0. The table
// gives the register after a byte is shifted in from zero, so one lookup
// advances the CRC by eight bits.

constexpr std::uint16_t kCrcPoly = 0x4599;  // 0xC599 without its x^15 term
constexpr std::uint16_t kCrcMask = 0x7FFF;

constexpr std::array<std::uint16_t, 256> make_crc_table() {
  std::array<std::uint16_t, 256> table{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    unsigned crc = byte << 7;  // the byte in the register's top 8 bits
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x4000u) != 0 ? (crc << 1) ^ kCrcPoly : crc << 1;
    }
    table[byte] = static_cast<std::uint16_t>(crc & kCrcMask);
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrcTable = make_crc_table();

constexpr std::uint16_t crc_byte(std::uint16_t crc, std::uint8_t byte) noexcept {
  return static_cast<std::uint16_t>(
      ((crc << 8) ^ kCrcTable[((crc >> 7) ^ byte) & 0xFFu]) & kCrcMask);
}

// -- Bit stuffing -------------------------------------------------------
//
// After five consecutive equal bits the transmitter inserts a stuff bit of
// opposite polarity, and that bit starts the next run. So the state
// between bits is the last bit and its run length (1..4; a fifth equal bit
// is a stuff point), plus a start state before the first bit: 9 states.
// The byte table maps (state, byte) to the state after the byte's 8 bits,
// most significant first, and the stuff bits inserted among them (at most
// 2). The bit table does the same for one bit.

constexpr std::uint8_t kStuffStates = 9;
constexpr std::uint8_t kStuffStart = 0;

struct StuffStep {
  std::uint8_t state = kStuffStart;
  std::uint8_t stuffed = 0;
};

/// States 1..4 are runs of 1..4 zeros, 5..8 runs of 1..4 ones.
constexpr StuffStep stuff_bit(std::uint8_t state, bool bit) noexcept {
  const std::uint8_t run_of_one = bit ? 5 : 1;
  if (state == kStuffStart || bit != (state > 4)) return {run_of_one, 0};
  if (state == 4 || state == 8) {
    // Fifth equal bit: the stuff bit follows, a run of one of !bit.
    return {static_cast<std::uint8_t>(bit ? 1 : 5), 1};
  }
  return {static_cast<std::uint8_t>(state + 1), 0};
}

/// stuff_bit() for every (state, bit). The bit-by-bit walks look it up
/// rather than branch on the data, which a predictor cannot learn.
using BitTable = std::array<std::array<StuffStep, 2>, kStuffStates>;

constexpr BitTable make_bit_table() {
  BitTable table{};
  for (std::uint8_t state = 0; state < kStuffStates; ++state) {
    table[state] = {stuff_bit(state, false), stuff_bit(state, true)};
  }
  return table;
}

constexpr BitTable kBitTable = make_bit_table();

using StuffTable = std::array<std::array<StuffStep, 256>, kStuffStates>;

constexpr StuffTable make_stuff_table() {
  StuffTable table{};
  for (std::uint8_t state = 0; state < kStuffStates; ++state) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      StuffStep step{state, 0};
      for (int i = 7; i >= 0; --i) {
        const StuffStep next = kBitTable[step.state][(byte >> i) & 1u];
        step = {next.state, static_cast<std::uint8_t>(step.stuffed + next.stuffed)};
      }
      table[state][byte] = step;
    }
  }
  return table;
}

constexpr StuffTable kStuffTable = make_stuff_table();

/// Counts the stuff bits inserted into a bit sequence fed in wire order.
struct StuffCounter {
  std::uint8_t state = kStuffStart;
  std::size_t stuffed = 0;

  void push(const StuffStep& step) noexcept {
    state = step.state;
    stuffed += step.stuffed;
  }
  void push_byte(std::uint8_t byte) noexcept {
    push(kStuffTable[state][byte]);
  }
  /// The low `width` bits of `value`, most significant first.
  void push_bits(std::uint64_t value, int width) noexcept {
    for (int i = width - 1; i >= 0; --i) {
      push(kBitTable[state][(value >> i) & 1u]);
    }
  }
};

// -- Frame header -------------------------------------------------------

/// SOF through DLC as transmitted, right-aligned: 19 bits for a standard
/// id, 39 for an extended one. Zero bits in front leave a CRC that starts
/// at 0 unchanged, so the CRC can take the header as whole bytes.
struct Header {
  std::uint64_t bits = 0;
  int width = 0;
};

/// SOF through DLC of `frame`.
Header header_of(const Frame& frame) noexcept {
  const CanId id = frame.id();
  const std::uint64_t rtr = frame.is_remote() ? 1u : 0u;
  const std::uint64_t dlc = frame.dlc();
  if (!id.is_extended()) {
    // SOF=0 | id(11) | RTR | IDE=0 | r0=0 | DLC(4)
    return {(std::uint64_t{id.raw()} << 7) | (rtr << 6) | dlc, 19};
  }
  // SOF=0 | base id(11) | SRR=1 | IDE=1 | id extension(18) | RTR | r1=0 |
  // r0=0 | DLC(4)
  const std::uint64_t base = (id.raw() >> 18) & 0x7FF;
  const std::uint64_t ext = id.raw() & 0x3FFFF;
  return {(base << 27) | (0b11u << 25) | (ext << 7) | (rtr << 6) | dlc, 39};
}

/// The frame's CRC-15, taken a byte at a time over its zero-padded header
/// and its data. `on_byte` sees each byte the CRC takes after the first,
/// the one that holds the header's leading partial byte: so every whole
/// header byte, then every data byte, in wire order.
template <typename OnByte>
std::uint16_t crc_over(const Frame& frame, const Header& header,
                       OnByte&& on_byte) noexcept {
  const int whole = header.width / 8 * 8;  // bits after the partial byte
  std::uint16_t crc =
      crc_byte(0, static_cast<std::uint8_t>(header.bits >> whole));
  for (int shift = whole - 8; shift >= 0; shift -= 8) {
    const auto byte = static_cast<std::uint8_t>(header.bits >> shift);
    crc = crc_byte(crc, byte);
    on_byte(byte);
  }
  for (const std::uint8_t byte : frame.data()) {
    crc = crc_byte(crc, byte);
    on_byte(byte);
  }
  return crc;
}

}  // namespace

CanId CanId::standard(std::uint32_t raw) {
  if (raw > kMaxStandard) {
    throw std::out_of_range("CanId::standard: id exceeds 11 bits");
  }
  return CanId(raw, /*extended=*/false);
}

CanId CanId::extended(std::uint32_t raw) {
  if (raw > kMaxExtended) {
    throw std::out_of_range("CanId::extended: id exceeds 29 bits");
  }
  return CanId(raw, /*extended=*/true);
}

std::uint64_t CanId::arbitration_key() const noexcept {
  return arbitration_key_constexpr();
}

FixedText<CanId::kMaxText> CanId::text() const noexcept {
  FixedText<kMaxText> text;
  text.size_ = static_cast<std::size_t>(put_id(text.chars_.data(), *this) -
                                        text.chars_.data());
  return text;
}

char* CanId::put_text(char* out) const noexcept { return put_id(out, *this); }

std::string CanId::to_string() const { return std::string(text()); }

Frame::Frame(CanId id, std::span<const std::uint8_t> data) : id_(id) {
  if (data.size() > kMaxData) {
    throw std::length_error("Frame: classic CAN carries at most 8 data bytes");
  }
  dlc_ = static_cast<std::uint8_t>(data.size());
  std::copy(data.begin(), data.end(), data_.begin());
}

Frame Frame::remote(CanId id, std::uint8_t dlc) {
  if (dlc > kMaxData) {
    throw std::length_error("Frame::remote: dlc exceeds 8");
  }
  Frame f;
  f.id_ = id;
  f.rtr_ = true;
  f.dlc_ = dlc;
  return f;
}

std::uint16_t Frame::crc15() const noexcept {
  return crc_over(*this, header_of(*this), [](std::uint8_t) {});
}

std::size_t Frame::wire_bits() const noexcept {
  // Stuffing applies from SOF through the CRC sequence. The header's
  // leading partial byte (3 bits standard, 7 extended) is stepped bit by
  // bit; every later header byte and data byte goes through the table on
  // the same pass as the CRC, and then the CRC's top byte does too.
  const Header header = header_of(*this);
  const int lead = header.width % 8;
  StuffCounter stuffing;
  stuffing.push_bits(header.bits >> (header.width - lead), lead);
  const std::uint16_t crc = crc_over(
      *this, header, [&stuffing](std::uint8_t byte) { stuffing.push_byte(byte); });
  stuffing.push_byte(static_cast<std::uint8_t>(crc >> 7));
  stuffing.push_bits(crc, 7);

  // CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7)
  // + interframe space (3); none of these are subject to stuffing.
  return static_cast<std::size_t>(header.width) + 8 * data().size() + 15 +
         stuffing.stuffed + 1 + 1 + 1 + 7 + 3;
}

FixedText<Frame::kMaxText> Frame::text() const noexcept {
  FixedText<kMaxText> text;
  char* out = put_literal(text.chars_.data(), "id=");
  out = put_id(out, id_);
  out = put_literal(out, rtr_ ? " RTR dlc=" : " dlc=");
  out = std::to_chars(out, out + 3, dlc_).ptr;  // a u8 has <= 3 digits
  if (!rtr_) {
    out = put_literal(out, " [");
    // dlc_ <= kMaxData holds by construction; the bound lets the compiler
    // prove the writes stay inside `text`.
    const std::size_t n = std::min<std::size_t>(dlc_, kMaxData);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) *out++ = ' ';
      *out++ = kLowerHex[data_[i] >> 4];
      *out++ = kLowerHex[data_[i] & 0xF];
    }
    *out++ = ']';
  }
  text.size_ = static_cast<std::size_t>(out - text.chars_.data());
  return text;
}

std::string Frame::to_string() const { return std::string(text()); }

Frame make_frame(std::uint32_t standard_id,
                 std::initializer_list<std::uint8_t> bytes) {
  return Frame(CanId::standard(standard_id),
               std::span<const std::uint8_t>(bytes.begin(), bytes.size()));
}

}  // namespace psme::can
