#include "can/frame.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>

namespace psme::can {

namespace {

constexpr char kUpperHex[] = "0123456789ABCDEF";
constexpr char kLowerHex[] = "0123456789abcdef";

/// "0x" + the upper-case hex id + an "x" suffix for the extended format:
/// at most 2 + 8 + 1 characters.
constexpr std::size_t kMaxIdText = 11;

char* put_literal(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

/// Writes CanId::to_string()'s text at `out`; returns its end.
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

/// Visits every bit of `frame` from SOF through the last data bit, in
/// wire order (each field most significant bit first).
template <typename Visit>
void for_each_bit(const Frame& frame, Visit&& visit) {
  const auto field = [&visit](std::uint32_t value, int width) {
    for (int i = width - 1; i >= 0; --i) visit(((value >> i) & 1u) != 0);
  };
  const CanId id = frame.id();
  const std::uint32_t rtr = frame.is_remote() ? 1u : 0u;
  field(0, 1);  // SOF (dominant)
  if (!id.is_extended()) {
    field(id.raw(), 11);
    field(rtr << 2, 3);  // RTR, IDE = 0 (standard), r0
  } else {
    field((id.raw() >> 18) & 0x7FF, 11);  // base id
    field(0b11, 2);                       // SRR (recessive), IDE = 1
    field(id.raw() & 0x3FFFF, 18);        // id extension
    field(rtr << 2, 3);                   // RTR, r1, r0
  }
  field(frame.dlc(), 4);
  for (const std::uint8_t byte : frame.data()) field(byte, 8);
}

std::uint16_t crc15_step(std::uint16_t crc, bool bit) noexcept {
  const bool crc_next = bit ^ (((crc >> 14) & 1u) != 0);
  crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
  if (crc_next) crc ^= 0x4599;
  return crc;
}

/// Counts bits on the wire, stuff bits included: after five consecutive
/// equal bits a stuff bit of opposite polarity is inserted, and it starts
/// the next run.
struct BitStuffer {
  std::size_t bits = 0;
  bool prev = false;
  int run = 0;  // 0 until the first bit

  void push(bool bit) noexcept {
    ++bits;
    if (run != 0 && bit == prev) {
      if (++run == 5) {
        ++bits;       // the stuff bit
        prev = !bit;  // becomes the new "previous"
        run = 1;
        return;
      }
    } else {
      run = 1;
    }
    prev = bit;
  }
};

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

std::string CanId::to_string() const {
  std::array<char, kMaxIdText> text{};
  return std::string(text.data(), put_id(text.data(), *this));
}

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
  // ISO 11898-1 CRC: polynomial 0xC599 (x^15+x^14+x^10+x^8+x^7+x^4+x^3+1),
  // computed over SOF through the last data bit, initial value 0.
  std::uint16_t crc = 0;
  for_each_bit(*this, [&crc](bool bit) { crc = crc15_step(crc, bit); });
  return crc;
}

std::size_t Frame::wire_bits() const noexcept {
  // Stuffing applies from SOF through the CRC sequence: after five
  // consecutive equal bits a stuff bit of opposite polarity is inserted.
  // One walk feeds each bit to the CRC and to the stuffing count.
  std::uint16_t crc = 0;
  BitStuffer stuffer;
  for_each_bit(*this, [&](bool bit) {
    crc = crc15_step(crc, bit);
    stuffer.push(bit);
  });
  for (int i = 14; i >= 0; --i) stuffer.push(((crc >> i) & 1u) != 0);

  // CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7)
  // + interframe space (3); none of these are subject to stuffing.
  return stuffer.bits + 1 + 1 + 1 + 7 + 3;
}

std::string Frame::to_string() const {
  // Longest text: "id=0x1FFFFFFFx dlc=8 [00 11 22 33 44 55 66 77]".
  std::array<char, 48> text{};
  char* out = put_literal(text.data(), "id=");
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
  return std::string(text.data(), out);
}

Frame make_frame(std::uint32_t standard_id,
                 std::initializer_list<std::uint8_t> bytes) {
  return Frame(CanId::standard(standard_id),
               std::span<const std::uint8_t>(bytes.begin(), bytes.size()));
}

}  // namespace psme::can
