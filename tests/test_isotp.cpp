// Property tests for the ISO-TP reassembler (psme::can::IsoTpReassembler):
// round-trip at every payload length, interleaved conversations, strict
// sequence checking, timeout expiry, and a seeded fuzz loop over
// adversarial frames (run under ASan/UBSan in the asan-ubsan CI leg).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "can/isotp.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;
using Event = IsoTpReassembler::Event;
using Kind = IsoTpReassembler::EventKind;

[[nodiscard]] std::vector<std::uint8_t> pattern_payload(std::size_t len) {
  std::vector<std::uint8_t> payload(len);
  for (std::size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 13 + len) & 0xFF);
  }
  return payload;
}

/// Feeds a frame sequence; returns the payload of the completed message
/// (empty + failure when it never completes).
[[nodiscard]] bool feed_all(IsoTpReassembler& rx,
                            const std::vector<Frame>& frames,
                            std::vector<std::uint8_t>& out) {
  sim::SimTime t{};
  for (const Frame& f : frames) {
    t += 1ms;
    const Event ev = rx.feed(f, t);
    if (ev.kind == Kind::kError) return false;
    if (ev.kind == Kind::kMessageComplete) {
      out = ev.message->payload;
      return true;
    }
  }
  return false;
}

TEST(IsoTpSegment, RejectsEmptyAndOversized) {
  const CanId id = CanId::standard(0x500);
  EXPECT_THROW((void)isotp_segment(id, {}), std::invalid_argument);
  const std::vector<std::uint8_t> big(kIsoTpMaxPayload + 1, 0);
  EXPECT_THROW((void)isotp_segment(id, big), std::length_error);
}

TEST(IsoTp, RoundTripEveryLength) {
  // The full SF/FF/CF length space: 1..7 single-frame, 8..4095 multi.
  const CanId id = CanId::standard(0x500);
  for (std::size_t len = 1; len <= kIsoTpMaxPayload; ++len) {
    IsoTpReassembler rx;
    const std::vector<std::uint8_t> payload = pattern_payload(len);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(feed_all(rx, isotp_segment(id, payload), got)) << len;
    ASSERT_EQ(got, payload) << len;
    ASSERT_EQ(rx.open_conversations(), 0u) << len;
  }
}

TEST(IsoTp, SequenceNumbersWrapAcrossLongPayloads) {
  // 16 CFs wrap the 4-bit sequence: 6 + 16*7 = 118 < 200, so a 200-byte
  // payload exercises the 15 -> 0 wrap.
  const std::vector<Frame> frames =
      isotp_segment(CanId::standard(0x600), pattern_payload(200));
  ASSERT_GT(frames.size(), 17u);
  // frames[0] is the FF; CFs start at seq 1 on frames[1].
  EXPECT_EQ(frames[15].byte0() & 0x0F, 0x0F);  // seq 15...
  EXPECT_EQ(frames[16].byte0() & 0x0F, 0x00);  // ...wraps to 0
  EXPECT_EQ(frames[17].byte0() & 0x0F, 0x01);  // ...and keeps counting
  IsoTpReassembler rx;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(feed_all(rx, frames, got));
  EXPECT_EQ(got, pattern_payload(200));
}

TEST(IsoTp, InterleavedConversationsOnDistinctIds) {
  IsoTpReassembler rx;
  const auto pa = pattern_payload(100);
  const auto pb = pattern_payload(333);
  const auto fa = isotp_segment(CanId::standard(0x500), pa);
  const auto fb = isotp_segment(CanId::extended(0x18DA10F1), pb);
  // Strict alternation: the per-id keying must keep the flows apart.
  std::vector<std::uint8_t> got_a, got_b;
  sim::SimTime t{};
  std::size_t ia = 0, ib = 0;
  while (ia < fa.size() || ib < fb.size()) {
    t += 1ms;
    if (ia < fa.size()) {
      const Event ev = rx.feed(fa[ia++], t);
      ASSERT_NE(ev.kind, Kind::kError);
      if (ev.kind == Kind::kMessageComplete) got_a = ev.message->payload;
    }
    if (ib < fb.size()) {
      const Event ev = rx.feed(fb[ib++], t);
      ASSERT_NE(ev.kind, Kind::kError);
      if (ev.kind == Kind::kMessageComplete) got_b = ev.message->payload;
    }
  }
  EXPECT_EQ(got_a, pa);
  EXPECT_EQ(got_b, pb);
  EXPECT_EQ(rx.stats().completed, 2u);
}

TEST(IsoTp, MissingConsecutiveAborts) {
  IsoTpReassembler rx;
  auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(50));
  frames.erase(frames.begin() + 2);  // drop one CF
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(feed_all(rx, frames, got));
  EXPECT_EQ(rx.stats().wrong_sequence, 1u);
  EXPECT_EQ(rx.open_conversations(), 0u);  // aborted, not half-open
}

TEST(IsoTp, DuplicateConsecutiveAborts) {
  IsoTpReassembler rx;
  auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(50));
  frames.insert(frames.begin() + 2, frames[1]);  // duplicate first CF
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(feed_all(rx, frames, got));
  EXPECT_EQ(rx.stats().wrong_sequence, 1u);
}

TEST(IsoTp, ReorderedConsecutiveAborts) {
  IsoTpReassembler rx;
  auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(50));
  std::swap(frames[1], frames[2]);
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(feed_all(rx, frames, got));
  EXPECT_EQ(rx.stats().wrong_sequence, 1u);
}

TEST(IsoTp, UnexpectedConsecutiveRejected) {
  IsoTpReassembler rx;
  const Frame cf = make_frame(0x500, {0x21, 1, 2, 3});
  const Event ev = rx.feed(cf, sim::SimTime{});
  EXPECT_EQ(ev.kind, Kind::kError);
  EXPECT_EQ(ev.error, IsoTpError::kUnexpectedConsecutive);
}

TEST(IsoTp, OverlappingFirstFrameRestartsConversation) {
  IsoTpReassembler rx;
  const auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(64));
  sim::SimTime t{};
  ASSERT_EQ(rx.feed(frames[0], t).kind, Kind::kMessageStart);
  ASSERT_EQ(rx.feed(frames[1], t).kind, Kind::kPayloadFrame);
  // A fresh FF abandons the half-done flow and starts over.
  const Event restart = rx.feed(frames[0], t);
  EXPECT_EQ(restart.kind, Kind::kMessageStart);
  EXPECT_EQ(restart.error, IsoTpError::kOverlappingStart);
  EXPECT_EQ(rx.stats().restarts, 1u);
  // The restarted conversation still completes correctly.
  std::vector<std::uint8_t> got;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const Event ev = rx.feed(frames[i], t);
    ASSERT_NE(ev.kind, Kind::kError);
    if (ev.kind == Kind::kMessageComplete) got = ev.message->payload;
  }
  EXPECT_EQ(got, pattern_payload(64));
}

TEST(IsoTp, FlowControlTimeoutExpiresConversation) {
  IsoTpReassembler rx;  // default 1 s N_Cr
  const auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(64));
  sim::SimTime t{};
  ASSERT_EQ(rx.feed(frames[0], t).kind, Kind::kMessageStart);
  ASSERT_EQ(rx.open_conversations(), 1u);
  // Under the timeout: nothing expires.
  EXPECT_TRUE(rx.expire(t + 999ms).empty());
  ASSERT_EQ(rx.open_conversations(), 1u);
  // Over it: the conversation is dropped and reported.
  const auto expired = rx.expire(t + 1001ms);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].raw(), 0x500u);
  EXPECT_EQ(rx.open_conversations(), 0u);
  EXPECT_EQ(rx.stats().timeouts, 1u);
  // A late CF now reads as unexpected.
  EXPECT_EQ(rx.feed(frames[1], t + 1002ms).error,
            IsoTpError::kUnexpectedConsecutive);
}

TEST(IsoTp, ActivityRefreshesTimeout) {
  IsoTpReassembler rx;
  const auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(64));
  sim::SimTime t{};
  ASSERT_EQ(rx.feed(frames[0], t).kind, Kind::kMessageStart);
  t += 900ms;
  ASSERT_EQ(rx.feed(frames[1], t).kind, Kind::kPayloadFrame);
  // 1.7 s after the FF but only 800 ms after the last CF: still alive.
  EXPECT_TRUE(rx.expire(t + 800ms).empty());
  EXPECT_EQ(rx.open_conversations(), 1u);
}

TEST(IsoTp, FlowControlFramesCountedAndStateless) {
  IsoTpReassembler rx;
  // CTS, WAIT, OVFLW all valid; status 3 reserved -> malformed.
  for (std::uint8_t status = 0; status <= 2; ++status) {
    const Event ev = rx.feed(
        make_frame(0x501, {static_cast<std::uint8_t>(0x30 | status), 0, 0}),
        sim::SimTime{});
    EXPECT_EQ(ev.kind, Kind::kNone);
  }
  EXPECT_EQ(rx.stats().flow_control, 3u);
  const Event bad =
      rx.feed(make_frame(0x501, {0x33, 0, 0}), sim::SimTime{});
  EXPECT_EQ(bad.kind, Kind::kError);
  EXPECT_EQ(bad.error, IsoTpError::kMalformedPci);
}

TEST(IsoTp, MalformedPciCases) {
  IsoTpReassembler rx;
  const sim::SimTime t{};
  const auto expect_malformed = [&](const Frame& f) {
    const Event ev = rx.feed(f, t);
    EXPECT_EQ(ev.kind, Kind::kError);
    EXPECT_EQ(ev.error, IsoTpError::kMalformedPci);
  };
  expect_malformed(make_frame(0x500, {0x00, 1, 2}));  // SF length 0
  expect_malformed(make_frame(0x500, {0x05, 1, 2}));  // SF len > dlc-1
  expect_malformed(make_frame(0x500, {0x10, 0x05, 1, 2, 3, 4, 5, 6}));  // FF len < 8
  expect_malformed(make_frame(0x500, {0x1F, 0xFF, 1, 2, 3, 4}));  // FF dlc != 8
  expect_malformed(make_frame(0x500, {0x42, 1, 2}));  // reserved PCI 4
  expect_malformed(make_frame(0x500, {0xF0}));        // reserved PCI 15
  expect_malformed(make_frame(0x500, {0x30}));        // FC dlc < 3
  expect_malformed(Frame::remote(CanId::standard(0x500), 8));  // RTR
  EXPECT_EQ(rx.stats().malformed, 8u);
  EXPECT_EQ(rx.open_conversations(), 0u);
}

TEST(IsoTp, TruncatedConsecutiveAborts) {
  IsoTpReassembler rx;
  const auto frames = isotp_segment(CanId::standard(0x500), pattern_payload(64));
  sim::SimTime t{};
  ASSERT_EQ(rx.feed(frames[0], t).kind, Kind::kMessageStart);
  // First CF owes 7 bytes but carries 3.
  const Event ev = rx.feed(make_frame(0x500, {0x21, 1, 2, 3}), t);
  EXPECT_EQ(ev.kind, Kind::kError);
  EXPECT_EQ(ev.error, IsoTpError::kMalformedPci);
  EXPECT_EQ(rx.open_conversations(), 0u);
}

TEST(IsoTp, FuzzNeverMisbehaves) {
  // 100k frames of seeded garbage mixed with valid traffic: every
  // outcome must be a classified event, never UB (the ASan/UBSan CI leg
  // is the real assertion here), and reassembled payloads must match
  // what a real segmenter produced.
  for (const std::uint64_t seed : {0xD1CEu, 0xBEEFu, 0x5EEDu}) {
    sim::Rng rng(seed);
    IsoTpReassembler rx(50ms);
    sim::SimTime t{};
    std::uint64_t events = 0;
    for (int i = 0; i < 100'000; ++i) {
      t += sim::SimDuration{rng.uniform(0, 2'000'000)};
      (void)rx.expire(t);
      Frame frame;
      if (rng.chance(0.25)) {
        // Valid mid-size flow, occasionally abandoned by the generator.
        const auto frames = isotp_segment(
            CanId::standard(0x500 + static_cast<std::uint32_t>(
                                        rng.uniform(0, 3))),
            pattern_payload(1 + rng.uniform(0, 99)));
        const std::size_t cutoff =
            rng.chance(0.2) ? rng.uniform(1, frames.size())
                            : frames.size();
        for (std::size_t k = 0; k < cutoff; ++k) {
          const Event ev = rx.feed(frames[k], t);
          events += ev.kind != Kind::kNone;
        }
        continue;
      }
      // Pure garbage: random id, random dlc, random bytes.
      std::array<std::uint8_t, Frame::kMaxData> bytes{};
      const std::size_t dlc = rng.uniform(0, Frame::kMaxData);
      for (std::size_t b = 0; b < dlc; ++b) {
        bytes[b] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      }
      frame = Frame(CanId::standard(0x500 + static_cast<std::uint32_t>(
                                                rng.uniform(0, 3))),
                    std::span<const std::uint8_t>(bytes.data(), dlc));
      const Event ev = rx.feed(frame, t);
      events += ev.kind != Kind::kNone;
    }
    EXPECT_GT(events, 0u);
    const IsoTpStats& s = rx.stats();
    // Conservation: every fed frame is classified exactly once.
    EXPECT_EQ(s.frames, s.single + s.first + s.consecutive + s.flow_control +
                            s.malformed + s.wrong_sequence + s.unexpected_cf);
  }
}

}  // namespace
}  // namespace psme::can
