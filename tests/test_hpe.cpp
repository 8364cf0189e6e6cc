// Unit tests for the hardware policy engine (psme::hpe): approved lists,
// read/write filtering, transparency, mode snooping, tamper resistance.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "can/bus.h"
#include "can/controller.h"
#include "core/update.h"
#include "hpe/approved_list.h"
#include "hpe/hpe.h"
#include "sim/rng.h"
#include "trace_reads.h"

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

/// The list as a std::set of (extended << 32 | raw) keys, the storage the
/// list had before 11-bit ids moved into a table: the reference the
/// differential test compares every answer and to_string() against.
class ReferenceIdList {
 public:
  void add(CanId id) { exact_.insert(key(id)); }
  void add_masked(MaskedEntry entry) { masked_.push_back(entry); }
  bool remove(CanId id) { return exact_.erase(key(id)) != 0; }
  void clear() {
    exact_.clear();
    masked_.clear();
  }
  [[nodiscard]] bool contains(CanId id) const {
    if (exact_.count(key(id)) != 0) return true;
    for (const MaskedEntry& e : masked_) {
      if (e.matches(id)) return true;
    }
    return false;
  }
  [[nodiscard]] std::size_t exact_count() const { return exact_.size(); }
  [[nodiscard]] std::size_t masked_count() const { return masked_.size(); }
  [[nodiscard]] std::string to_string() const {
    std::ostringstream out;
    for (const std::uint64_t k : exact_) {
      out << ((k >> 32) != 0 ? "ext " : "std ") << "0x" << std::hex
          << static_cast<std::uint32_t>(k) << std::dec << '\n';
    }
    for (const MaskedEntry& m : masked_) {
      out << (m.extended ? "ext " : "std ") << "value=0x" << std::hex
          << m.value << " mask=0x" << m.mask << std::dec << '\n';
    }
    return out.str();
  }
  [[nodiscard]] const std::set<std::uint64_t>& keys() const { return exact_; }

 private:
  static std::uint64_t key(CanId id) {
    return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
  }

  std::set<std::uint64_t> exact_;
  std::vector<MaskedEntry> masked_;
};

/// Every answer of `list` equals the reference's: membership of every
/// 11-bit id in both formats, of every id the reference holds and of
/// random 29-bit ids, the counts and to_string() byte for byte.
void expect_same(const ApprovedIdList& list, const ReferenceIdList& ref,
                 sim::Rng& rng) {
  for (std::uint32_t raw = 0; raw <= CanId::kMaxStandard; ++raw) {
    for (const CanId id : {CanId::standard(raw), CanId::extended(raw)}) {
      ASSERT_EQ(list.contains(id), ref.contains(id)) << id.to_string();
    }
  }
  for (const std::uint64_t k : ref.keys()) {
    const auto raw = static_cast<std::uint32_t>(k);
    const CanId id =
        (k >> 32) != 0 ? CanId::extended(raw) : CanId::standard(raw);
    ASSERT_TRUE(list.contains(id)) << id.to_string();
  }
  for (int i = 0; i < 2000; ++i) {
    const CanId id = CanId::extended(
        static_cast<std::uint32_t>(rng.uniform(0, CanId::kMaxExtended)));
    ASSERT_EQ(list.contains(id), ref.contains(id)) << id.to_string();
  }
  EXPECT_EQ(list.exact_count(), ref.exact_count());
  EXPECT_EQ(list.masked_count(), ref.masked_count());
  EXPECT_EQ(list.empty(), ref.exact_count() == 0 && ref.masked_count() == 0);
  EXPECT_EQ(list.to_string(), ref.to_string());
}

TEST(ApprovedIdList, MatchesSetReference) {
  sim::Rng rng(20261016);
  ApprovedIdList list;
  ReferenceIdList ref;
  // Extended ids the random draws would rarely hit: the ends of the
  // range and the raw values a standard id can share.
  const std::vector<std::uint32_t> edges = {0, 1, 0x7FF, 0x800,
                                            CanId::kMaxExtended};
  const auto random_id = [&]() -> CanId {
    const std::uint64_t pick = rng.uniform(0, 9);
    if (pick < 5) {
      return CanId::standard(
          static_cast<std::uint32_t>(rng.uniform(0, CanId::kMaxStandard)));
    }
    if (pick < 7) {
      return CanId::extended(edges[rng.uniform(0, edges.size() - 1)]);
    }
    if (pick < 8) {
      return CanId::extended(
          static_cast<std::uint32_t>(rng.uniform(0, CanId::kMaxStandard)));
    }
    return CanId::extended(
        static_cast<std::uint32_t>(rng.uniform(0, CanId::kMaxExtended)));
  };
  expect_same(list, ref, rng);
  for (int round = 0; round < 24; ++round) {
    // Rounds alternate between filling (mostly adds) and draining (mostly
    // removes, of ids held and not held); every sixth ends in clear().
    const bool filling = round % 2 == 0;
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t pick = rng.uniform(0, 99);
      const CanId id = random_id();
      if (pick < (filling ? 70u : 25u)) {
        list.add(id);
        ref.add(id);
      } else if (pick < 99) {
        ASSERT_EQ(list.remove(id), ref.remove(id)) << id.to_string();
      } else {
        const bool extended = rng.chance(0.5);
        const std::uint32_t max =
            extended ? CanId::kMaxExtended : CanId::kMaxStandard;
        const MaskedEntry entry{
            static_cast<std::uint32_t>(rng.uniform(0, max)),
            static_cast<std::uint32_t>(rng.uniform(0, max)), extended};
        list.add_masked(entry);
        ref.add_masked(entry);
      }
    }
    expect_same(list, ref, rng);
    if (round % 6 == 5) {
      list.clear();
      ref.clear();
      expect_same(list, ref, rng);
    }
  }
  // Every standard id at once, then none: the table's full and empty ends.
  for (std::uint32_t raw = 0; raw <= CanId::kMaxStandard; ++raw) {
    list.add(CanId::standard(raw));
    ref.add(CanId::standard(raw));
  }
  expect_same(list, ref, rng);
  for (std::uint32_t raw = 0; raw <= CanId::kMaxStandard; ++raw) {
    ASSERT_TRUE(list.remove(CanId::standard(raw)));
    ref.remove(CanId::standard(raw));
  }
  expect_same(list, ref, rng);
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

// The log is a ring of the most recent blocks: past its capacity each
// block replaces the oldest, and the snapshot lists them oldest first.
TEST(Hpe, AuditLogKeepsTheMostRecentBlocks) {
  Rig rig;
  constexpr std::size_t kBlocks = 1500;
  constexpr std::size_t kCapacity = HardwarePolicyEngine::kAuditCapacity;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    // Unapproved read ids arriving straight from the bus side, each
    // stamped with its own time.
    const auto id = static_cast<std::uint32_t>(0x300 + i % 0x400);
    rig.engine->on_frame(make_frame(id, {}),
                         sim::SimTime{static_cast<std::int64_t>(i)});
  }
  EXPECT_EQ(rig.engine->stats().read_blocked, kBlocks);
  const std::vector<AuditRecord> log = rig.engine->audit_log();
  ASSERT_EQ(log.size(), kCapacity);
  for (std::size_t k = 0; k < kCapacity; ++k) {
    const std::size_t block = kBlocks - kCapacity + k;
    ASSERT_EQ(log[k].at, sim::SimTime{static_cast<std::int64_t>(block)})
        << "record " << k;
    EXPECT_EQ(log[k].id.raw(), 0x300 + block % 0x400);
    EXPECT_EQ(log[k].direction, Direction::kRead);
  }
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

// A block's entry is recorded deferred. Through each read that renders
// it, it reads as its pieces joined by sim::TraceText: here for blocks
// off the bus, then for read and write blocks at both ends of each id
// range.
TEST(Hpe, BlockEntriesNameTheEngineAndTheId) {
  const std::array edge_ids = {CanId::standard(0x000), CanId::standard(0x7FF),
                               CanId::extended(0x0),
                               CanId::extended(0x18DAF110),
                               CanId::extended(0x1FFFFFFF)};
  for (const tracetest::Read read : tracetest::kReads) {
    SCOPED_TRACE(tracetest::to_string(read));
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
    std::vector<std::string> expected = {
        "hpe.victim: write blocked id=0x300",
        "hpe.victim: read blocked id=0x1A0",
        "hpe.victim: read blocked id=0x18DAF110x"};

    // Straight at the engine: a frame off the bus and one from the node.
    for (const CanId id : edge_ids) {
      engine.on_frame(can::Frame(id, payload), sched.now());
      EXPECT_FALSE(engine.submit(can::Frame(id, payload)));
      for (const Direction direction : {Direction::kRead, Direction::kWrite}) {
        expected.push_back(
            "hpe.victim: " +
            std::string(sim::TraceText{to_string(direction),
                                       " blocked id=", id.text()}));
      }
    }
    EXPECT_EQ(expected[3], "hpe.victim: read blocked id=0x0");
    EXPECT_EQ(expected.back(), "hpe.victim: write blocked id=0x1FFFFFFFx");

    EXPECT_EQ(trace.count(sim::TraceLevel::kSecurity), expected.size());
    EXPECT_EQ(tracetest::read_lines(trace, read), expected);
    EXPECT_EQ(trace.size(), expected.size());
  }
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
