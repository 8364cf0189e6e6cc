// Unit tests for the hardware policy engine (psme::hpe): approved lists,
// read/write filtering, transparency, mode snooping, tamper resistance.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "can/bus.h"
#include "can/controller.h"
#include "core/update.h"
#include "hpe/approved_list.h"
#include "hpe/hpe.h"

namespace psme::hpe {
namespace {

using can::CanId;
using can::make_frame;

TEST(ApprovedIdList, ExactMembership) {
  ApprovedIdList list;
  list.add(CanId::standard(0x100));
  EXPECT_TRUE(list.contains(CanId::standard(0x100)));
  EXPECT_FALSE(list.contains(CanId::standard(0x101)));
  // Format matters: the same raw value in extended format is different.
  EXPECT_FALSE(list.contains(CanId::extended(0x100)));
}

TEST(ApprovedIdList, MaskedEntryMatchesFamily) {
  ApprovedIdList list;
  list.add_masked(MaskedEntry{0x700, 0x200, false});  // 0x200..0x2FF
  EXPECT_TRUE(list.contains(CanId::standard(0x200)));
  EXPECT_TRUE(list.contains(CanId::standard(0x27F)));
  EXPECT_FALSE(list.contains(CanId::standard(0x300)));
}

TEST(ApprovedIdList, RemoveAndClear) {
  ApprovedIdList list;
  list.add(CanId::standard(1));
  EXPECT_TRUE(list.remove(CanId::standard(1)));
  EXPECT_FALSE(list.remove(CanId::standard(1)));
  list.add(CanId::standard(2));
  list.add_masked(MaskedEntry{0x7FF, 3, false});
  list.clear();
  EXPECT_TRUE(list.empty());
}

TEST(ApprovedIdList, ToStringListsEntries) {
  ApprovedIdList list;
  list.add(CanId::standard(0x42));
  list.add_masked(MaskedEntry{0x700, 0x100, false});
  const std::string s = list.to_string();
  EXPECT_NE(s.find("0x42"), std::string::npos);
  EXPECT_NE(s.find("mask=0x700"), std::string::npos);
}

TEST(PayloadRule, AppliesOnlyToItsId) {
  const PayloadRule rule{0x100, 0, 2, 2};
  EXPECT_TRUE(rule.satisfied_by(make_frame(0x200, {0})));  // other id: pass
  EXPECT_TRUE(rule.satisfied_by(make_frame(0x100, {2})));
  EXPECT_FALSE(rule.satisfied_by(make_frame(0x100, {1})));
  EXPECT_FALSE(rule.satisfied_by(make_frame(0x100, {})));  // byte absent
}

/// Test rig: bus with two raw ports plus one HPE-protected port.
struct Rig {
  Rig() {
    HpeConfig config;
    config.default_lists.read.add(CanId::standard(0x100));
    config.default_lists.write.add(CanId::standard(0x200));
    engine = std::make_unique<HardwarePolicyEngine>(protected_port, config,
                                                    "victim");
    ctrl = std::make_unique<can::Controller>(sched, *engine, "victim");
    peer_ctrl = std::make_unique<can::Controller>(sched, peer_port, "peer");
  }

  sim::Scheduler sched;
  can::Bus bus{sched};
  can::Port& protected_port{bus.attach("victim")};
  can::Port& peer_port{bus.attach("peer")};
  std::unique_ptr<HardwarePolicyEngine> engine;
  std::unique_ptr<can::Controller> ctrl;       // behind the HPE
  std::unique_ptr<can::Controller> peer_ctrl;  // unprotected peer
};

TEST(Hpe, ReadingFilterDropsUnapprovedIds) {
  Rig rig;
  int received = 0;
  rig.ctrl->set_rx_handler([&](const can::Frame&, sim::SimTime) { ++received; });
  rig.peer_ctrl->transmit(make_frame(0x100, {1}));  // approved
  rig.peer_ctrl->transmit(make_frame(0x150, {2}));  // not approved
  rig.sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rig.engine->stats().read_granted, 1u);
  EXPECT_EQ(rig.engine->stats().read_blocked, 1u);
}

TEST(Hpe, WritingFilterBlocksUnapprovedTransmissions) {
  Rig rig;
  int peer_received = 0;
  rig.peer_ctrl->set_rx_handler(
      [&](const can::Frame&, sim::SimTime) { ++peer_received; });
  rig.ctrl->transmit(make_frame(0x200, {1}));  // approved write
  rig.ctrl->transmit(make_frame(0x300, {2}));  // blocked write
  rig.sched.run();
  EXPECT_EQ(peer_received, 1);
  EXPECT_EQ(rig.engine->stats().write_blocked, 1u);
  // The controller saw the rejection as a drop, not a wedged queue.
  EXPECT_EQ(rig.ctrl->stats().tx_dropped, 1u);
  EXPECT_EQ(rig.ctrl->tx_queue_depth(), 0u);
}

TEST(Hpe, TransparentToControllerForApprovedTraffic) {
  // A controller behind an HPE whose lists cover all used ids behaves
  // byte-for-byte like an unprotected controller.
  Rig rig;
  can::Frame got;
  rig.ctrl->set_rx_handler([&](const can::Frame& f, sim::SimTime) { got = f; });
  rig.peer_ctrl->transmit(make_frame(0x100, {0xAB, 0xCD}));
  rig.sched.run();
  EXPECT_EQ(got, make_frame(0x100, {0xAB, 0xCD}));
  EXPECT_EQ(rig.ctrl->stats().rx_accepted, 1u);
}

TEST(Hpe, AuditLogRecordsBlocks) {
  Rig rig;
  rig.peer_ctrl->transmit(make_frame(0x155, {1}));
  rig.sched.run();
  ASSERT_EQ(rig.engine->audit_log().size(), 1u);
  EXPECT_EQ(rig.engine->audit_log()[0].id.raw(), 0x155u);
  EXPECT_EQ(rig.engine->audit_log()[0].direction, Direction::kRead);
}

TEST(Hpe, ContentRuleNarrowsApprovedId) {
  sim::Scheduler sched;
  can::Bus bus(sched);
  can::Port& victim_port = bus.attach("victim");
  can::Port& peer_port = bus.attach("peer");
  HpeConfig config;
  config.default_lists.read.add(CanId::standard(0x100));
  config.default_lists.content_rules.push_back(PayloadRule{0x100, 0, 2, 2});
  HardwarePolicyEngine engine(victim_port, config, "victim");
  can::Controller ctrl(sched, engine, "victim");
  can::Controller peer(sched, peer_port, "peer");
  int received = 0;
  ctrl.set_rx_handler([&](const can::Frame&, sim::SimTime) { ++received; });

  peer.transmit(make_frame(0x100, {2}));  // satisfies rule
  peer.transmit(make_frame(0x100, {9}));  // violates rule
  sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(engine.stats().read_blocked, 1u);
}

TEST(Hpe, ModeSnoopingSwitchesLists) {
  sim::Scheduler sched;
  can::Bus bus(sched);
  can::Port& victim_port = bus.attach("victim");
  can::Port& peer_port = bus.attach("peer");
  HpeConfig config;
  config.mode_frame_id = 0x20;
  // Mode 0: only 0x100 readable. Mode 2: only 0x300 readable.
  config.per_mode[0].read.add(CanId::standard(0x100));
  config.per_mode[2].read.add(CanId::standard(0x300));
  HardwarePolicyEngine engine(victim_port, config, "victim");
  can::Controller ctrl(sched, engine, "victim");
  can::Controller peer(sched, peer_port, "peer");
  std::vector<std::uint32_t> seen;
  ctrl.set_rx_handler([&](const can::Frame& f, sim::SimTime) {
    seen.push_back(f.id().raw());
  });

  // Transmit strictly one at a time: the controller's priority queue would
  // otherwise reorder (0x20 beats 0x300 in arbitration).
  auto send_now = [&](const can::Frame& f) {
    peer.transmit(f);
    sched.run();
  };
  send_now(make_frame(0x100, {1}));  // mode 0: accepted
  send_now(make_frame(0x300, {1}));  // mode 0: blocked
  send_now(make_frame(0x20, {2}));   // mode change broadcast
  send_now(make_frame(0x300, {1}));  // mode 2: accepted
  send_now(make_frame(0x100, {1}));  // mode 2: blocked

  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0x100, 0x300}));
  EXPECT_EQ(engine.current_mode(), 2);
  EXPECT_EQ(engine.stats().mode_switches, 1u);
}

TEST(Hpe, LockPreventsReconfiguration) {
  Rig rig;
  rig.engine->lock();
  EXPECT_TRUE(rig.engine->locked());
  EXPECT_THROW(rig.engine->set_config(HpeConfig{}), std::logic_error);
  EXPECT_EQ(rig.engine->stats().tamper_attempts, 1u);
}

TEST(Hpe, UnlockedReconfigurationWorks) {
  Rig rig;
  HpeConfig open;
  open.default_lists.read.add(CanId::standard(0x150));
  rig.engine->set_config(std::move(open));
  int received = 0;
  rig.ctrl->set_rx_handler([&](const can::Frame&, sim::SimTime) { ++received; });
  rig.peer_ctrl->transmit(make_frame(0x150, {1}));
  rig.sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Hpe, AuthenticatedUpdatePath) {
  Rig rig;
  rig.engine->lock();
  const core::PolicySigner oem(0xA11CE);

  core::PolicySet newer("fleet", 2);
  core::PolicyBundle good{newer, oem.sign(newer), "oem"};
  HpeConfig cfg;
  cfg.default_lists.read.add(CanId::standard(0x150));
  EXPECT_TRUE(rig.engine->apply_update(good, oem, cfg));
  EXPECT_EQ(rig.engine->policy_version(), 2u);

  // Forged bundle rejected.
  core::PolicySet evil("fleet", 3);
  core::PolicyBundle forged{evil, 0xBAD, "mallory"};
  EXPECT_FALSE(rig.engine->apply_update(forged, oem, HpeConfig{}));

  // Replay/rollback rejected.
  core::PolicySet old_set("fleet", 2);
  core::PolicyBundle replay{old_set, oem.sign(old_set), "oem"};
  EXPECT_FALSE(rig.engine->apply_update(replay, oem, HpeConfig{}));
  EXPECT_GE(rig.engine->stats().tamper_attempts, 2u);
}

TEST(Hpe, CycleAccountingGrowsPerDecision) {
  Rig rig;
  const auto before = rig.engine->cycles_spent();
  rig.peer_ctrl->transmit(make_frame(0x100, {1}));
  rig.sched.run();
  EXPECT_GT(rig.engine->cycles_spent(), before);
}

TEST(Hpe, BlockEntriesNameTheEngineAndTheId) {
  sim::Scheduler sched;
  sim::Trace trace(sim::TraceLevel::kSecurity);
  can::Bus bus(sched, can::kBitRate500k, &trace);
  can::Port& protected_port = bus.attach("victim");
  can::Port& peer_port = bus.attach("peer");
  HpeConfig config;
  config.default_lists.read.add(CanId::standard(0x100));
  HardwarePolicyEngine engine(protected_port, config, "victim", &trace);
  can::Controller ctrl(sched, engine, "victim");
  can::Controller peer(sched, peer_port, "peer");

  const std::array<std::uint8_t, 1> payload{0x02};
  peer.transmit(make_frame(0x100, {0x01}));  // approved: no entry
  peer.transmit(make_frame(0x1A0, {0x02}));
  peer.transmit(can::Frame(CanId::extended(0x18DAF110), payload));
  ctrl.transmit(make_frame(0x300, {0x03}));  // not on the write list
  sched.run();

  std::vector<std::string> messages;
  trace.for_each("hpe.victim", [&](const sim::TraceEntry& e) {
    EXPECT_EQ(e.level, sim::TraceLevel::kSecurity);
    messages.emplace_back(e.message);
  });
  EXPECT_EQ(messages, (std::vector<std::string>{
                          "write blocked id=0x300", "read blocked id=0x1A0",
                          "read blocked id=0x18DAF110x"}));
  EXPECT_EQ(trace.size(), messages.size());
}

TEST(Hpe, TransmitCompleteForwardedThroughShim) {
  Rig rig;
  // Successful transmissions increment the controller's tx_sent, which is
  // only possible if the HPE forwards on_transmit_complete.
  rig.ctrl->transmit(make_frame(0x200, {1}));
  rig.sched.run();
  EXPECT_EQ(rig.ctrl->stats().tx_sent, 1u);
}

}  // namespace
}  // namespace psme::hpe
