// Unit and property tests for the shared CAN bus (psme::can::Bus):
// arbitration order, broadcast semantics, timing, error injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "can/bus.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

/// Test sink recording every delivery.
class Recorder final : public FrameSink {
 public:
  void on_frame(const Frame& frame, sim::SimTime at) override {
    received.push_back(frame);
    times.push_back(at);
  }
  void on_transmit_complete(const Frame& frame, bool success,
                            sim::SimTime) override {
    if (success) {
      ++tx_ok;
    } else {
      ++tx_fail;
    }
    last_tx = frame;
  }

  std::vector<Frame> received;
  std::vector<sim::SimTime> times;
  int tx_ok = 0;
  int tx_fail = 0;
  Frame last_tx;
};

TEST(Bus, DeliversToAllOtherPorts) {
  sim::Scheduler sched;
  Bus bus(sched);
  Recorder a, b, c;
  Port& pa = bus.attach("a");
  Port& pb = bus.attach("b");
  Port& pc = bus.attach("c");
  pa.set_sink(&a);
  pb.set_sink(&b);
  pc.set_sink(&c);

  ASSERT_TRUE(pa.submit(make_frame(0x100, {1})));
  sched.run();

  EXPECT_EQ(a.received.size(), 0u);  // no self-delivery
  EXPECT_EQ(a.tx_ok, 1);
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(b.received[0].id().raw(), 0x100u);
  EXPECT_EQ(bus.frames_delivered(), 1u);
}

TEST(Bus, LowestIdWinsSimultaneousArbitration) {
  sim::Scheduler sched;
  Bus bus(sched);
  Recorder sink;
  Port& pa = bus.attach("a");
  Port& pb = bus.attach("b");
  Port& observer = bus.attach("obs");
  observer.set_sink(&sink);
  Recorder dummy_a, dummy_b;
  pa.set_sink(&dummy_a);
  pb.set_sink(&dummy_b);

  ASSERT_TRUE(pa.submit(make_frame(0x300, {1})));
  ASSERT_TRUE(pb.submit(make_frame(0x100, {2})));
  sched.run();

  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(sink.received[0].id().raw(), 0x100u);  // higher priority first
  EXPECT_EQ(sink.received[1].id().raw(), 0x300u);
}

TEST(Bus, TransmissionTakesWireBitsTimesBitTime) {
  sim::Scheduler sched;
  Bus bus(sched, kBitRate500k);
  Recorder rx;
  Port& tx = bus.attach("tx");
  Port& obs = bus.attach("rx");
  obs.set_sink(&rx);
  Recorder txsink;
  tx.set_sink(&txsink);

  const Frame f = make_frame(0x123, {1, 2, 3, 4});
  ASSERT_TRUE(tx.submit(f));
  sched.run();

  ASSERT_EQ(rx.times.size(), 1u);
  const auto expected =
      bus.bit_time() * static_cast<std::int64_t>(f.wire_bits());
  EXPECT_EQ(rx.times[0], expected);
}

TEST(Bus, SlowerBitRateTakesLonger) {
  sim::Scheduler s1, s2;
  Bus fast(s1, kBitRate500k);
  Bus slow(s2, kBitRate125k);
  Recorder rf, rs, d1, d2;
  Port& ft = fast.attach("t");
  Port& fr = fast.attach("r");
  Port& st = slow.attach("t");
  Port& sr = slow.attach("r");
  ft.set_sink(&d1);
  st.set_sink(&d2);
  fr.set_sink(&rf);
  sr.set_sink(&rs);
  ft.submit(make_frame(0x10, {1}));
  st.submit(make_frame(0x10, {1}));
  s1.run();
  s2.run();
  ASSERT_EQ(rf.times.size(), 1u);
  ASSERT_EQ(rs.times.size(), 1u);
  EXPECT_EQ(rs.times[0], rf.times[0] * 4);  // 125k = 500k / 4
}

TEST(Bus, SubmitWhileBusyIsRefusedAtSamePort) {
  sim::Scheduler sched;
  Bus bus(sched);
  Recorder sink;
  Port& p = bus.attach("p");
  p.set_sink(&sink);
  bus.attach("other");

  EXPECT_TRUE(p.submit(make_frame(0x1, {})));
  EXPECT_FALSE(p.submit(make_frame(0x2, {})));  // slot occupied
  sched.run();
  EXPECT_TRUE(p.submit(make_frame(0x2, {})));  // free again after completion
}

TEST(Bus, DisconnectedPortNeitherSendsNorReceives) {
  sim::Scheduler sched;
  Bus bus(sched);
  Recorder a, b;
  Port& pa = bus.attach("a");
  Port& pb = bus.attach("b");
  pa.set_sink(&a);
  pb.set_sink(&b);

  pb.disconnect();
  EXPECT_FALSE(pb.submit(make_frame(0x5, {})));
  ASSERT_TRUE(pa.submit(make_frame(0x6, {})));
  sched.run();
  EXPECT_TRUE(b.received.empty());

  pb.reconnect();
  ASSERT_TRUE(pa.submit(make_frame(0x7, {})));
  sched.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Bus, ErrorInjectionReportsFailureToTransmitter) {
  sim::Scheduler sched;
  Bus bus(sched);
  bus.set_error_rate(1.0);  // every frame destroyed
  Recorder tx, rx;
  Port& pt = bus.attach("t");
  Port& pr = bus.attach("r");
  pt.set_sink(&tx);
  pr.set_sink(&rx);

  ASSERT_TRUE(pt.submit(make_frame(0x10, {1})));
  sched.run();

  EXPECT_EQ(tx.tx_fail, 1);
  EXPECT_EQ(tx.tx_ok, 0);
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(bus.frames_corrupted(), 1u);
  EXPECT_EQ(bus.frames_delivered(), 0u);
}

TEST(Bus, UtilisationGrowsWithTraffic) {
  sim::Scheduler sched;
  Bus bus(sched);
  Recorder d, r;
  Port& pt = bus.attach("t");
  Port& pr = bus.attach("r");
  pt.set_sink(&d);
  pr.set_sink(&r);
  pt.submit(make_frame(0x10, {1, 2, 3, 4, 5, 6, 7, 8}));
  sched.run();
  EXPECT_GT(bus.utilisation(), 0.99);  // wire busy the whole elapsed time
  sched.run_until(sched.now() * 2);
  EXPECT_NEAR(bus.utilisation(), 0.5, 0.01);
}

/// Drives two contending frames through a bus that records into `trace`.
sim::Trace& trace_two_frames(sim::Trace& trace) {
  sim::Scheduler sched;
  Bus bus(sched, kBitRate500k, &trace);
  Recorder a, b;
  Port& pa = bus.attach("a");
  Port& pb = bus.attach("b");
  pa.set_sink(&a);
  pb.set_sink(&b);
  EXPECT_TRUE(pa.submit(make_frame(0x300, {0x01})));
  EXPECT_TRUE(pb.submit(make_frame(0x100, {0xAB, 0x02})));
  sched.run();
  return trace;
}

TEST(Bus, DebugTraceRecordsEveryArbitrationWin) {
  sim::Trace trace(sim::TraceLevel::kDebug);
  std::vector<std::string> wins;
  trace_two_frames(trace).for_each("can.bus", [&](const sim::TraceEntry& e) {
    EXPECT_EQ(e.level, sim::TraceLevel::kDebug);
    wins.push_back(e.message);
  });
  EXPECT_EQ(wins, (std::vector<std::string>{
                      "b wins arbitration: id=0x100 dlc=2 [ab 02]",
                      "a wins arbitration: id=0x300 dlc=1 [01]"}));
}

TEST(Bus, SecurityTraceRecordsNoArbitration) {
  sim::Trace trace(sim::TraceLevel::kSecurity);
  EXPECT_EQ(trace_two_frames(trace).size(), 0u);
}

TEST(Bus, ZeroBitRateRejected) {
  sim::Scheduler sched;
  EXPECT_THROW(Bus(sched, 0), std::invalid_argument);
}

// Property: with N ports each holding a distinct pending id, delivery
// order over repeated arbitration is exactly ascending id order.
class BusArbitrationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusArbitrationProperty, RepeatedArbitrationSortsById) {
  sim::Scheduler sched;
  Bus bus(sched);
  sim::Rng rng(GetParam());

  constexpr std::size_t kPorts = 8;
  std::vector<Recorder> sinks(kPorts + 1);
  std::vector<Port*> ports;
  for (std::size_t i = 0; i < kPorts; ++i) {
    ports.push_back(&bus.attach("p" + std::to_string(i)));
    ports.back()->set_sink(&sinks[i]);
  }
  Port& observer = bus.attach("obs");
  observer.set_sink(&sinks[kPorts]);

  // Distinct random ids, one per port, all submitted at t=0.
  std::vector<std::uint32_t> ids;
  while (ids.size() < kPorts) {
    const auto candidate = static_cast<std::uint32_t>(rng.uniform(0, 0x7FF));
    if (std::find(ids.begin(), ids.end(), candidate) == ids.end()) {
      ids.push_back(candidate);
    }
  }
  for (std::size_t i = 0; i < kPorts; ++i) {
    ASSERT_TRUE(ports[i]->submit(make_frame(ids[i], {})));
  }
  sched.run();

  std::vector<std::uint32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sinks[kPorts].received.size(), kPorts);
  for (std::size_t i = 0; i < kPorts; ++i) {
    EXPECT_EQ(sinks[kPorts].received[i].id().raw(), sorted[i])
        << "delivery position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusArbitrationProperty,
                         ::testing::Values(1, 7, 21, 42, 1234, 9999));

}  // namespace
}  // namespace psme::can
