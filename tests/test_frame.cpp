// Unit tests for CAN frames, identifiers, CRC-15 and wire-length
// computation (psme::can).
#include <gtest/gtest.h>

#include <array>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "can/frame.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

// A std::vector<bool> walk over every bit and std::ostringstream
// formatters: the reference that Frame's table-driven CRC and stuffing
// count and its buffer-writing text are diffed against below.
namespace reference {

void push_bits(std::vector<bool>& bits, std::uint32_t value, int width) {
  for (int i = width - 1; i >= 0; --i) {
    bits.push_back(((value >> i) & 1u) != 0);
  }
}

std::vector<bool> bitstream(const Frame& frame) {
  std::vector<bool> bits;
  const CanId id = frame.id();
  bits.push_back(false);  // SOF
  if (!id.is_extended()) {
    push_bits(bits, id.raw(), 11);
    bits.push_back(frame.is_remote());  // RTR
    bits.push_back(false);              // IDE
    bits.push_back(false);              // r0
  } else {
    push_bits(bits, (id.raw() >> 18) & 0x7FF, 11);
    bits.push_back(true);  // SRR
    bits.push_back(true);  // IDE
    push_bits(bits, id.raw() & 0x3FFFF, 18);
    bits.push_back(frame.is_remote());  // RTR
    bits.push_back(false);              // r1
    bits.push_back(false);              // r0
  }
  push_bits(bits, frame.dlc(), 4);
  for (const std::uint8_t byte : frame.data()) push_bits(bits, byte, 8);
  return bits;
}

std::uint16_t crc15(const Frame& frame) {
  std::uint16_t crc = 0;
  for (const bool bit : bitstream(frame)) {
    const bool crc_next = bit ^ (((crc >> 14) & 1u) != 0);
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (crc_next) crc ^= 0x4599;
  }
  return crc;
}

/// The stuffing rule walked over the first `n` bits of `bits`: the stuff
/// bits inserted, and the last bit on the wire with its run length.
struct Stuffing {
  std::size_t stuffed = 0;
  bool prev = false;
  int run = 0;
};

Stuffing stuff(const std::vector<bool>& bits, std::size_t n) {
  Stuffing s;
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    const bool b = bits[i];
    if (!first && b == s.prev) {
      ++s.run;
      if (s.run == 5) {
        ++s.stuffed;
        s.prev = !b;
        s.run = 1;
        continue;
      }
    } else {
      s.run = 1;
    }
    s.prev = b;
    first = false;
  }
  return s;
}

std::size_t wire_bits(const Frame& frame) {
  std::vector<bool> bits = bitstream(frame);
  push_bits(bits, crc15(frame), 15);
  return bits.size() + stuff(bits, bits.size()).stuffed + 1 + 1 + 1 + 7 + 3;
}

std::string id_text(CanId id) {
  std::ostringstream out;
  out << "0x" << std::hex << std::uppercase << id.raw();
  if (id.is_extended()) out << "x";
  return out.str();
}

std::string frame_text(const Frame& frame) {
  std::ostringstream out;
  out << "id=" << id_text(frame.id());
  if (frame.is_remote()) {
    out << " RTR dlc=" << static_cast<int>(frame.dlc());
    return out.str();
  }
  out << " dlc=" << static_cast<int>(frame.dlc()) << " [";
  for (std::size_t i = 0; i < frame.data().size(); ++i) {
    if (i != 0) out << ' ';
    out << std::hex << std::setw(2) << std::setfill('0')
        << static_cast<int>(frame.data()[i]);
  }
  out << ']';
  return out.str();
}

}  // namespace reference

void expect_matches_reference(const Frame& frame) {
  EXPECT_EQ(frame.crc15(), reference::crc15(frame)) << frame.to_string();
  EXPECT_EQ(frame.wire_bits(), reference::wire_bits(frame))
      << frame.to_string();
  EXPECT_EQ(frame.id().to_string(), reference::id_text(frame.id()));
  EXPECT_EQ(frame.to_string(), reference::frame_text(frame));
}

Frame make(CanId id, bool remote, std::span<const std::uint8_t> payload) {
  return remote ? Frame::remote(id, static_cast<std::uint8_t>(payload.size()))
                : Frame(id, payload);
}

TEST(CanId, StandardBounds) {
  EXPECT_NO_THROW(CanId::standard(0));
  EXPECT_NO_THROW(CanId::standard(0x7FF));
  EXPECT_THROW(CanId::standard(0x800), std::out_of_range);
}

TEST(CanId, ExtendedBounds) {
  EXPECT_NO_THROW(CanId::extended(0));
  EXPECT_NO_THROW(CanId::extended(0x1FFFFFFF));
  EXPECT_THROW(CanId::extended(0x20000000), std::out_of_range);
}

TEST(CanId, LowerIdWinsArbitration) {
  EXPECT_LT(CanId::standard(0x100).arbitration_key(),
            CanId::standard(0x200).arbitration_key());
  EXPECT_LT(CanId::extended(0x100).arbitration_key(),
            CanId::extended(0x200).arbitration_key());
}

TEST(CanId, StandardBeatsExtendedWithSameBaseId) {
  // IDE bit is dominant (0) for standard frames, so a standard frame wins
  // against an extended frame sharing the 11 base bits.
  const CanId std_id = CanId::standard(0x123);
  const CanId ext_id = CanId::extended((0x123u << 18) | 0x5);
  EXPECT_LT(std_id.arbitration_key(), ext_id.arbitration_key());
}

TEST(CanId, ExtendedWithLowerBaseBeatsStandardWithHigherBase) {
  const CanId ext_id = CanId::extended(0x100u << 18);
  const CanId std_id = CanId::standard(0x101);
  EXPECT_LT(ext_id.arbitration_key(), std_id.arbitration_key());
}

TEST(CanId, ToStringMarksExtended) {
  EXPECT_EQ(CanId::standard(0x123).to_string(), "0x123");
  EXPECT_EQ(CanId::extended(0x123).to_string(), "0x123x");
}

TEST(Frame, DataFrameBasics) {
  const std::array<std::uint8_t, 3> data{0xDE, 0xAD, 0xBE};
  const Frame f(CanId::standard(0x42), data);
  EXPECT_EQ(f.dlc(), 3);
  EXPECT_FALSE(f.is_remote());
  EXPECT_EQ(f.data().size(), 3u);
  EXPECT_EQ(f.byte0(), 0xDE);
}

TEST(Frame, RejectsOversizedPayload) {
  const std::array<std::uint8_t, 9> data{};
  EXPECT_THROW(Frame(CanId::standard(1), data), std::length_error);
}

TEST(Frame, RemoteFrameHasNoData) {
  const Frame f = Frame::remote(CanId::standard(0x42), 4);
  EXPECT_TRUE(f.is_remote());
  EXPECT_EQ(f.dlc(), 4);
  EXPECT_TRUE(f.data().empty());
  EXPECT_EQ(f.byte0(), 0);
  EXPECT_THROW(Frame::remote(CanId::standard(1), 9), std::length_error);
}

TEST(Frame, EqualityIsValueBased) {
  const Frame a = make_frame(0x100, {1, 2});
  const Frame b = make_frame(0x100, {1, 2});
  const Frame c = make_frame(0x100, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Frame, CrcChangesWithAnyBit) {
  const Frame base = make_frame(0x100, {0x00});
  const Frame diff_data = make_frame(0x100, {0x01});
  const Frame diff_id = make_frame(0x101, {0x00});
  EXPECT_NE(base.crc15(), diff_data.crc15());
  EXPECT_NE(base.crc15(), diff_id.crc15());
}

TEST(Frame, CrcIs15Bits) {
  for (std::uint32_t id = 0; id < 64; ++id) {
    const Frame f = make_frame(id, {static_cast<std::uint8_t>(id)});
    EXPECT_LT(f.crc15(), 0x8000);
  }
}

TEST(Frame, CrcDeterministic) {
  const Frame a = make_frame(0x2A7, {9, 8, 7, 6});
  const Frame b = make_frame(0x2A7, {9, 8, 7, 6});
  EXPECT_EQ(a.crc15(), b.crc15());
}

TEST(Frame, WireBitsWithinProtocolBounds) {
  // Standard data frame, n data bytes: minimum unstuffed length is
  // 1+11+1+1+1+4+8n+15 (+delims/ack/eof/ifs = 13); stuffing adds at most
  // ~20% of the stuffable region.
  for (std::uint8_t n = 0; n <= 8; ++n) {
    std::vector<std::uint8_t> data(n, 0x55);  // alternating bits: no stuffing
    const Frame f(CanId::standard(0x555), data);
    const std::size_t unstuffed = 34 + 8u * n + 13;
    EXPECT_GE(f.wire_bits(), unstuffed);
    EXPECT_LE(f.wire_bits(), unstuffed + (34 + 8u * n) / 4 + 1);
  }
}

TEST(Frame, AllZeroPayloadTriggersStuffing) {
  const std::vector<std::uint8_t> zeros(8, 0x00);
  const std::vector<std::uint8_t> alt(8, 0x55);
  const Frame stuffy(CanId::standard(0x000), zeros);
  const Frame smooth(CanId::standard(0x555), alt);
  EXPECT_GT(stuffy.wire_bits(), smooth.wire_bits());
}

TEST(Frame, ExtendedFrameLongerThanStandard) {
  const std::array<std::uint8_t, 4> data{1, 2, 3, 4};
  const Frame std_f(CanId::standard(0x123), data);
  const Frame ext_f(CanId::extended(0x123), data);
  EXPECT_GT(ext_f.wire_bits(), std_f.wire_bits());
}

TEST(Frame, ToStringShowsIdAndPayload) {
  const Frame f = make_frame(0x1A0, {0xDE, 0xAD});
  const std::string s = f.to_string();
  EXPECT_NE(s.find("0x1A0"), std::string::npos);
  EXPECT_NE(s.find("de ad"), std::string::npos);
  const Frame r = Frame::remote(CanId::standard(0x1A0), 2);
  EXPECT_NE(r.to_string().find("RTR"), std::string::npos);
}

TEST(CanId, ToStringGolden) {
  EXPECT_EQ(CanId::standard(0x1A0).to_string(), "0x1A0");
  EXPECT_EQ(CanId::extended(0x18DAF110).to_string(), "0x18DAF110x");
  EXPECT_EQ(CanId::standard(0).to_string(), "0x0");
}

TEST(Frame, ToStringGolden) {
  EXPECT_EQ(Frame::remote(CanId::standard(0x1A0), 2).to_string(),
            "id=0x1A0 RTR dlc=2");
  EXPECT_EQ(Frame(CanId::standard(0x7FF), {}).to_string(), "id=0x7FF dlc=0 []");
  EXPECT_EQ(make_frame(0x123, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0xFF})
                .to_string(),
            "id=0x123 dlc=8 [de ad be ef 00 11 22 ff]");
  EXPECT_EQ(make_frame(0x1A0, {0x05, 0x0F}).to_string(),
            "id=0x1A0 dlc=2 [05 0f]");
  const std::array<std::uint8_t, 1> one{0x0A};
  EXPECT_EQ(Frame(CanId::extended(0x18DAF110), one).to_string(),
            "id=0x18DAF110x dlc=1 [0a]");
}

// Every DLC, both id formats, data and remote frames, at the ids and
// payloads that stuff hardest (all dominant / all recessive) and least.
TEST(Frame, BitWalkAndTextMatchReferenceAtEdges) {
  const std::array<CanId, 8> ids{
      CanId::standard(0),          CanId::standard(0x7FF),
      CanId::standard(0x555),      CanId::standard(0x2AA),
      CanId::extended(0),          CanId::extended(0x1FFFFFFF),
      CanId::extended(0x15555555), CanId::extended(0x18DAF110)};
  for (const CanId id : ids) {
    for (const std::uint8_t fill : {0x00, 0xFF, 0x55, 0x0F}) {
      for (std::size_t dlc = 0; dlc <= Frame::kMaxData; ++dlc) {
        const std::vector<std::uint8_t> payload(dlc, fill);
        expect_matches_reference(make(id, false, payload));
        expect_matches_reference(make(id, true, payload));
      }
    }
  }
}

TEST(Frame, BitWalkAndTextMatchReferenceOnSeededFrames) {
  sim::Rng rng(20261016);
  std::array<std::uint8_t, Frame::kMaxData> bytes{};
  for (int i = 0; i < 100'000; ++i) {
    const bool extended = rng.chance(0.5);
    const CanId id = extended
                         ? CanId::extended(static_cast<std::uint32_t>(
                               rng.uniform(0, CanId::kMaxExtended)))
                         : CanId::standard(static_cast<std::uint32_t>(
                               rng.uniform(0, CanId::kMaxStandard)));
    const auto dlc = static_cast<std::size_t>(rng.uniform(0, Frame::kMaxData));
    for (std::size_t b = 0; b < dlc; ++b) {
      bytes[b] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    const Frame frame =
        make(id, rng.chance(0.1), std::span<const std::uint8_t>(bytes.data(), dlc));
    expect_matches_reference(frame);
    if (HasFailure()) return;  // one diff is enough to report
  }
}

// Every two-byte payload under ids whose headers end in different runs
// of both polarities. The stuffing state entering the second data byte
// then takes every reachable value (last bit 0 or 1, run 1..4), so each
// state's row of the stuffing table meets every byte value.
TEST(Frame, WireBitsMatchReferenceOnEveryTwoBytePayload) {
  const std::array<CanId, 6> ids{
      CanId::standard(0x000),  CanId::standard(0x7FF),
      CanId::standard(0x555),  CanId::standard(0x2AA),
      CanId::extended(0),      CanId::extended(0x1FFFFFFF)};
  std::set<std::pair<bool, int>> entering_second_byte;
  for (const CanId id : ids) {
    const std::size_t header_bits = id.is_extended() ? 39 : 19;
    for (unsigned payload = 0; payload <= 0xFFFF; ++payload) {
      const std::array<std::uint8_t, 2> bytes{
          static_cast<std::uint8_t>(payload >> 8),
          static_cast<std::uint8_t>(payload & 0xFF)};
      const Frame frame(id, bytes);
      ASSERT_EQ(frame.crc15(), reference::crc15(frame)) << frame.to_string();
      ASSERT_EQ(frame.wire_bits(), reference::wire_bits(frame))
          << frame.to_string();
      const reference::Stuffing s =
          reference::stuff(reference::bitstream(frame), header_bits + 8);
      entering_second_byte.emplace(s.prev, s.run);
    }
  }
  EXPECT_EQ(entering_second_byte.size(), 8u);
}

TEST(MakeFrame, BuildsStandardFrame) {
  const Frame f = make_frame(0x123, {1, 2, 3});
  EXPECT_EQ(f.id().raw(), 0x123u);
  EXPECT_FALSE(f.id().is_extended());
  EXPECT_EQ(f.dlc(), 3);
}

// Property sweep: arbitration key ordering must agree with raw-id ordering
// within a single format.
class ArbitrationOrderProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ArbitrationOrderProperty, KeyOrderMatchesIdOrder) {
  const auto [lo, hi] = GetParam();
  ASSERT_LT(lo, hi);
  EXPECT_LT(CanId::standard(lo).arbitration_key(),
            CanId::standard(hi).arbitration_key());
  EXPECT_LT(CanId::extended(lo).arbitration_key(),
            CanId::extended(hi).arbitration_key());
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ArbitrationOrderProperty,
    ::testing::Values(std::make_pair(0u, 1u), std::make_pair(1u, 2u),
                      std::make_pair(0x0FFu, 0x100u),
                      std::make_pair(0x3FFu, 0x400u),
                      std::make_pair(0x7FEu, 0x7FFu),
                      std::make_pair(0x123u, 0x124u)));

}  // namespace
}  // namespace psme::can
