// Unit tests for the CAN controller (psme::can::Controller): transmit
// queueing, acceptance filtering, FIFO behaviour, fault confinement.
#include <gtest/gtest.h>

#include <memory>

#include "can/bus.h"
#include "can/controller.h"
#include "can/errors.h"
#include "can/node.h"
#include "can/wire_mac.h"
#include "core/policy.h"
#include "core/policy_image.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

struct Rig {
  sim::Scheduler sched;
  Bus bus{sched};
  Port& pa{bus.attach("a")};
  Port& pb{bus.attach("b")};
  Controller a{sched, pa, "a"};
  Controller b{sched, pb, "b"};
};

TEST(ErrorCounters, StateTransitions) {
  ErrorCounters c;
  EXPECT_EQ(c.state(), ErrorState::kErrorActive);
  for (int i = 0; i < 16; ++i) c.on_transmit_error();  // TEC = 128
  EXPECT_EQ(c.state(), ErrorState::kErrorPassive);
  for (int i = 0; i < 16; ++i) c.on_transmit_error();  // TEC = 256
  EXPECT_EQ(c.state(), ErrorState::kBusOff);
  EXPECT_FALSE(c.can_transmit());
  c.reset();
  EXPECT_EQ(c.state(), ErrorState::kErrorActive);
}

TEST(ErrorCounters, ReceiveErrorsReachPassiveOnly) {
  ErrorCounters c;
  for (int i = 0; i < 200; ++i) c.on_receive_error();
  EXPECT_EQ(c.state(), ErrorState::kErrorPassive);
  EXPECT_TRUE(c.can_transmit());
}

TEST(ErrorCounters, SuccessDecrementsFloorZero) {
  ErrorCounters c;
  c.on_transmit_error();  // 8
  for (int i = 0; i < 20; ++i) c.on_transmit_success();
  EXPECT_EQ(c.tec(), 0u);
}

TEST(Controller, TransmitDeliversToPeer) {
  Rig rig;
  Frame got;
  int count = 0;
  rig.b.set_rx_handler([&](const Frame& f, sim::SimTime) {
    got = f;
    ++count;
  });
  ASSERT_TRUE(rig.a.transmit(make_frame(0x123, {7})));
  rig.sched.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(got.id().raw(), 0x123u);
  EXPECT_EQ(rig.a.stats().tx_sent, 1u);
  EXPECT_EQ(rig.b.stats().rx_accepted, 1u);
}

TEST(Controller, TxQueueDrainsInPriorityOrder) {
  Rig rig;
  std::vector<std::uint32_t> order;
  rig.b.set_rx_handler(
      [&](const Frame& f, sim::SimTime) { order.push_back(f.id().raw()); });
  // Queue several frames while the first occupies the wire.
  ASSERT_TRUE(rig.a.transmit(make_frame(0x700, {})));
  ASSERT_TRUE(rig.a.transmit(make_frame(0x300, {})));
  ASSERT_TRUE(rig.a.transmit(make_frame(0x100, {})));
  ASSERT_TRUE(rig.a.transmit(make_frame(0x200, {})));
  rig.sched.run();
  // 0x700 went first (already in flight), the rest by priority.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x700, 0x100, 0x200, 0x300}));
}

TEST(Controller, QueueFullDrops) {
  Rig rig;
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    if (rig.a.transmit(make_frame(0x100 + (i % 0x400), {}))) ++accepted;
  }
  // Queue capacity (64) + the in-flight slot.
  EXPECT_LE(accepted, 65);
  EXPECT_GT(rig.a.stats().tx_dropped, 0u);
}

TEST(Controller, AcceptanceFilterRejectsUnmatched) {
  Rig rig;
  rig.b.set_filters({AcceptanceFilter::exact(0x200)});
  int received = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++received; });
  rig.a.transmit(make_frame(0x100, {}));
  rig.a.transmit(make_frame(0x200, {}));
  rig.sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.b.stats().rx_filtered, 1u);
  EXPECT_EQ(rig.b.stats().rx_seen, 2u);
}

TEST(Controller, MaskFilterMatchesFamily) {
  AcceptanceFilter family{0x700, 0x200, false};  // 0x200..0x2FF
  EXPECT_TRUE(family.matches(CanId::standard(0x200)));
  EXPECT_TRUE(family.matches(CanId::standard(0x2FF)));
  EXPECT_FALSE(family.matches(CanId::standard(0x300)));
  EXPECT_FALSE(family.matches(CanId::extended(0x200)));
}

TEST(Controller, EmptyFilterSetAcceptsEverything) {
  Rig rig;
  int received = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++received; });
  rig.a.transmit(make_frame(0x001, {}));
  rig.a.transmit(make_frame(0x7FF, {}));
  rig.sched.run();
  EXPECT_EQ(received, 2);
}

TEST(Controller, RxFifoHoldsFramesUntilHandlerSet) {
  Rig rig;
  rig.a.transmit(make_frame(0x10, {1}));
  rig.a.transmit(make_frame(0x11, {2}));
  rig.sched.run();
  EXPECT_EQ(rig.b.rx_fifo_depth(), 2u);
  Frame f;
  ASSERT_TRUE(rig.b.receive(f));
  EXPECT_EQ(f.id().raw(), 0x10u);
  ASSERT_TRUE(rig.b.receive(f));
  EXPECT_FALSE(rig.b.receive(f));
}

TEST(Controller, SettingHandlerDrainsFifo) {
  Rig rig;
  rig.a.transmit(make_frame(0x10, {1}));
  rig.sched.run();
  ASSERT_EQ(rig.b.rx_fifo_depth(), 1u);
  int received = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++received; });
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.b.rx_fifo_depth(), 0u);
}

TEST(Controller, RxFifoOverflowCounted) {
  Rig rig;
  rig.b.set_rx_fifo_capacity(2);
  for (int i = 0; i < 5; ++i) rig.a.transmit(make_frame(0x20, {}));
  rig.sched.run();
  EXPECT_EQ(rig.b.rx_fifo_depth(), 2u);
  EXPECT_EQ(rig.b.stats().rx_overflow, 3u);
}

TEST(Controller, RetransmitsOnBusErrorUntilSuccess) {
  Rig rig;
  rig.bus.set_error_rate(1.0);
  int received = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++received; });
  rig.a.set_retransmit_limit(3);
  rig.a.transmit(make_frame(0x50, {}));
  rig.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(rig.a.stats().tx_retransmits, 2u);  // attempts 2..3 after first
  EXPECT_EQ(rig.a.stats().tx_dropped, 1u);

  rig.bus.set_error_rate(0.0);
  rig.a.transmit(make_frame(0x51, {}));
  rig.sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Controller, EntersBusOffUnderPersistentErrors) {
  Rig rig;
  rig.bus.set_error_rate(1.0);
  rig.a.set_retransmit_limit(1000);  // keep retrying until bus-off
  rig.a.transmit(make_frame(0x60, {}));
  rig.sched.run();
  EXPECT_EQ(rig.a.error_state(), ErrorState::kBusOff);
  // Further transmissions refused until reset.
  EXPECT_FALSE(rig.a.transmit(make_frame(0x61, {})));
  rig.a.reset_errors();
  rig.bus.set_error_rate(0.0);
  EXPECT_TRUE(rig.a.transmit(make_frame(0x62, {})));
}

TEST(Controller, ReceiverErrorCountersRecoverOnGoodFrames) {
  Rig rig;
  int received = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++received; });
  for (int i = 0; i < 10; ++i) rig.a.transmit(make_frame(0x70, {}));
  rig.sched.run();
  EXPECT_EQ(received, 10);
  EXPECT_EQ(rig.b.errors().rec(), 0u);
}

// -- wire-MAC ingress -------------------------------------------------------
//
// A minimal image-backed wire MAC: id 0x100 allowed, id 0x120 denied,
// [0x420, 0x43F] structural pass, everything else unbound (denied).
struct WireRig : Rig {
  std::shared_ptr<const core::CompiledPolicyImage> image = make_image();
  WireMac wire{make_table(*image), *image};

  WireRig() { b.set_wire_mac(&wire); }

  /// ecu may write engine; ivi is explicitly denied it.
  static std::shared_ptr<const core::CompiledPolicyImage> make_image() {
    core::PolicySet policy("wire", 1);
    core::PolicyRule ecu;
    ecu.id = "ecu-engine";
    ecu.subject = "ecu";
    ecu.object = "engine";
    ecu.permission = threat::Permission::kWrite;
    policy.add_rule(ecu);
    core::PolicyRule ivi = ecu;
    ivi.id = "ivi-engine";
    ivi.subject = "ivi";
    ivi.permission = threat::Permission::kNone;
    policy.add_rule(ivi);
    return policy.image_ptr();
  }

  static WireBindingTable make_table(const core::CompiledPolicyImage& image) {
    const mac::SidTable& sids = image.sids();
    WireBindingTable::Builder builder;
    const std::array<mac::Sid, 1> ecu{sids.find("ecu")};
    const std::array<mac::Sid, 1> ivi{sids.find("ivi")};
    builder.bind_standard(0x100, ecu, sids.find("engine"),
                          core::AccessType::kWrite);
    builder.bind_standard(0x120, ivi, sids.find("engine"),
                          core::AccessType::kWrite);
    builder.pass_standard_range(0x420, 0x43F);
    return builder.build();
  }
};

TEST(ControllerWireMac, DeniedFrameNeverReachesNodeRx) {
  // A Node subclass records what its application processor sees; a
  // denied frame must be dropped at the controller, below it.
  sim::Scheduler sched;
  Bus bus{sched};
  Port& pa{bus.attach("a")};
  Port& pb{bus.attach("b")};
  Controller tx{sched, pa, "tx"};

  struct RecordingNode final : Node {
    using Node::Node;
    std::vector<std::uint32_t> seen;
    void handle_frame(const Frame& f, sim::SimTime) override {
      seen.push_back(f.id().raw());
    }
  };
  RecordingNode rx{sched, pb, "rx"};

  const auto image = WireRig::make_image();
  WireBindingTable::Builder builder;
  const std::array<mac::Sid, 1> ivi{image->sids().find("ivi")};
  builder.bind_standard(0x120, ivi, image->sids().find("engine"),
                        core::AccessType::kWrite);  // explicit deny
  builder.pass_standard(0x100);
  WireMac wire{builder.build(), *image};
  rx.controller().set_wire_mac(&wire);

  ASSERT_TRUE(tx.transmit(make_frame(0x120, {1})));  // denied
  ASSERT_TRUE(tx.transmit(make_frame(0x100, {2})));  // pass
  sched.run();

  EXPECT_EQ(rx.seen, (std::vector<std::uint32_t>{0x100}));
  EXPECT_EQ(rx.controller().stats().rx_wire_denied, 1u);
  EXPECT_EQ(rx.controller().stats().rx_accepted, 1u);
}

TEST(ControllerWireMac, DropCounterIncrementsExactlyOncePerFrame) {
  WireRig rig;
  int delivered = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rig.a.transmit(make_frame(0x120, {})));  // denied every time
  }
  ASSERT_TRUE(rig.a.transmit(make_frame(0x100, {})));  // allowed
  rig.sched.run();
  EXPECT_EQ(rig.b.stats().rx_wire_denied, 5u);
  EXPECT_EQ(rig.b.stats().rx_seen, 6u);
  EXPECT_EQ(rig.b.stats().rx_accepted, 1u);
  EXPECT_EQ(delivered, 1);
  // The wire MAC itself agrees: 6 frames presented, 5 denied.
  EXPECT_EQ(rig.wire.stats().frames, 6u);
  EXPECT_EQ(rig.wire.stats().denied, 5u);
}

TEST(ControllerWireMac, NmRangePassesUntouched) {
  // The allowlisted OSEK-NM window [0x420, 0x43F] — the PR 9 5-bit
  // regression — must pass the wire MAC with zero adjudications.
  WireRig rig;
  std::vector<std::uint32_t> seen;
  rig.b.set_rx_handler(
      [&](const Frame& f, sim::SimTime) { seen.push_back(f.id().raw()); });
  for (const std::uint32_t id : {0x420u, 0x42Au, 0x43Fu}) {
    ASSERT_TRUE(rig.a.transmit(make_frame(id, {0x01})));
  }
  rig.sched.run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0x420, 0x42A, 0x43F}));
  EXPECT_EQ(rig.b.stats().rx_wire_denied, 0u);
  EXPECT_EQ(rig.wire.stats().adjudicated, 0u);
  EXPECT_EQ(rig.wire.stats().passed, 3u);
  // Just outside the 5-bit window: unbound, denied.
  ASSERT_TRUE(rig.a.transmit(make_frame(0x440, {})));
  rig.sched.run();
  EXPECT_EQ(rig.b.stats().rx_wire_denied, 1u);
}

TEST(ControllerWireMac, FilterRunsBeforeWireMac) {
  // Stage-counter ordering pin: a frame rejected by the acceptance
  // filter (and one dropped by quarantine, which precedes both) must
  // never reach the wire MAC — WireMacStats::frames is the stage
  // counter proving no SID lookup was burned.
  WireRig rig;
  rig.b.set_filters({AcceptanceFilter::exact(0x100)});
  rig.b.quarantine_id(CanId::standard(0x100));

  ASSERT_TRUE(rig.a.transmit(make_frame(0x120, {})));  // filtered out
  rig.sched.run();
  EXPECT_EQ(rig.b.stats().rx_filtered, 1u);
  EXPECT_EQ(rig.wire.stats().frames, 0u);  // wire MAC never consulted

  ASSERT_TRUE(rig.a.transmit(make_frame(0x100, {})));  // quarantined
  rig.sched.run();
  EXPECT_EQ(rig.b.stats().rx_quarantined, 1u);
  EXPECT_EQ(rig.wire.stats().frames, 0u);  // still never consulted

  rig.b.clear_quarantine();
  ASSERT_TRUE(rig.a.transmit(make_frame(0x100, {})));  // passes all stages
  rig.sched.run();
  EXPECT_EQ(rig.wire.stats().frames, 1u);
  EXPECT_EQ(rig.b.stats().rx_accepted, 1u);
  EXPECT_EQ(rig.b.stats().rx_wire_denied, 0u);
}

TEST(ControllerWireMac, DetachRestoresOpenIngress) {
  WireRig rig;
  int delivered = 0;
  rig.b.set_rx_handler([&](const Frame&, sim::SimTime) { ++delivered; });
  ASSERT_TRUE(rig.a.transmit(make_frame(0x300, {})));  // unbound: denied
  rig.sched.run();
  EXPECT_EQ(delivered, 0);
  rig.b.set_wire_mac(nullptr);
  ASSERT_TRUE(rig.a.transmit(make_frame(0x300, {})));
  rig.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.b.stats().rx_wire_denied, 1u);
}

}  // namespace
}  // namespace psme::can
