// Tests for the wire-rate MAC (psme::can::WireMac): the differential
// oracle pinning batched wire verdicts to the scalar PolicySet::evaluate
// reference, J1939 classification, ISO-TP flow adjudication, drop
// telemetry, and the BindingCompiler wire-table equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "can/wire_mac.h"
#include "car/base_policy.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "monitor/wire_drops.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

// -- fixture: a small image-backed world ------------------------------------
//
// Entities: subjects ecu/ivi/diag, objects engine/telemetry/doors.
// Rules: ecu may write engine, ivi may read telemetry, and diag may write
// doors only in mode `diag`.
struct WireWorld {
  core::PolicySet policy = make_policy();
  std::shared_ptr<const core::CompiledPolicyImage> image = policy.image_ptr();

  static core::PolicySet make_policy() {
    core::PolicySet set("wire", 1);
    const auto add = [&](const char* id, const char* subject,
                         const char* object, threat::Permission permission,
                         std::vector<threat::ModeId> modes) {
      core::PolicyRule rule;
      rule.id = id;
      rule.subject = subject;
      rule.object = object;
      rule.permission = permission;
      rule.modes = std::move(modes);
      set.add_rule(std::move(rule));
    };
    add("ecu-engine", "ecu", "engine", threat::Permission::kWrite, {});
    add("ivi-telemetry", "ivi", "telemetry", threat::Permission::kRead, {});
    add("diag-doors", "diag", "doors", threat::Permission::kWrite,
        {threat::ModeId{"diag"}});
    return set;
  }

  [[nodiscard]] mac::Sid sid(const std::string& entity) const {
    return image->sids().find(entity);
  }

  /// The table the differential tests share, for `mode`. Ids:
  ///   0x100 ecu->engine write (allowed), 0x101 ivi->telemetry read
  ///   (allowed), 0x110 {ivi,diag}->doors write (allowed iff mode is
  ///   diag), 0x120 ivi->engine write (always denied), 0x420-0x43F pass
  ///   (NM), everything else unbound.
  [[nodiscard]] WireBindingTable table(
      const std::string& mode = "normal") const {
    WireBindingTable::Builder b;
    const std::array<mac::Sid, 1> ecu{sid("ecu")};
    const std::array<mac::Sid, 1> ivi{sid("ivi")};
    const std::array<mac::Sid, 2> ivi_or_diag{sid("ivi"), sid("diag")};
    b.bind_standard(0x100, ecu, sid("engine"), core::AccessType::kWrite);
    b.bind_standard(0x101, ivi, sid("telemetry"), core::AccessType::kRead);
    b.bind_standard(0x110, ivi_or_diag, sid("doors"),
                    core::AccessType::kWrite);
    b.bind_standard(0x120, ivi, sid("engine"), core::AccessType::kWrite);
    b.pass_standard_range(0x420, 0x43F);
    b.set_mode(image->mode_sid(threat::ModeId{mode}));
    return b.build();
  }

  /// Scalar reference verdict for one frame in `mode`, via the
  /// string-level PolicySet::evaluate path — deliberately NOT the batch
  /// machinery.
  [[nodiscard]] bool reference(const Frame& frame,
                               const std::string& mode) const {
    struct Rule {
      std::uint32_t id;
      std::vector<std::string> subjects;
      std::string object;
      core::AccessType access;
    };
    static const std::vector<Rule> rules = {
        {0x100, {"ecu"}, "engine", core::AccessType::kWrite},
        {0x101, {"ivi"}, "telemetry", core::AccessType::kRead},
        {0x110, {"ivi", "diag"}, "doors", core::AccessType::kWrite},
        {0x120, {"ivi"}, "engine", core::AccessType::kWrite},
    };
    const std::uint32_t raw = frame.id().raw();
    if (raw >= 0x420 && raw <= 0x43F) return true;  // pass range
    for (const Rule& rule : rules) {
      if (rule.id != raw) continue;
      return std::any_of(
          rule.subjects.begin(), rule.subjects.end(),
          [&](const std::string& subject) {
            return policy
                .evaluate(core::AccessRequest{subject, rule.object,
                                              rule.access,
                                              threat::ModeId{mode}})
                .allowed;
          });
    }
    return false;  // unbound
  }
};

[[nodiscard]] std::vector<Frame> shuffled_stream(std::uint64_t seed,
                                                 std::size_t count) {
  static const std::uint32_t kIds[] = {0x100, 0x101, 0x110, 0x120,
                                       0x420, 0x43F, 0x300, 0x6FF};
  sim::Rng rng(seed);
  std::vector<Frame> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = kIds[rng.uniform(0, std::size(kIds) - 1)];
    frames.push_back(make_frame(id, {static_cast<std::uint8_t>(i & 0xFF)}));
  }
  return frames;
}

TEST(WireMacDifferential, BatchedMatchesScalarReferenceAcrossReload) {
  // Every batched wire verdict must be byte-identical to the scalar
  // per-frame PolicySet::evaluate reference over shuffled streams at 3
  // pinned seeds — including across a mid-stream switch from WireMacs
  // over the `normal` table to WireMacs over the `diag` table.
  for (const std::uint64_t seed : {0xAAAAu, 0x1234u, 0xC0FEu}) {
    WireWorld world;
    const std::vector<Frame> stream = shuffled_stream(seed, 4000);
    const std::size_t half = stream.size() / 2;

    std::vector<std::uint8_t> want(stream.size());
    std::vector<std::uint8_t> got_batched(stream.size());
    std::vector<std::uint8_t> got_scalar(stream.size());

    const auto run_segment = [&](const std::string& mode, std::size_t begin,
                                 std::size_t end) {
      WireMac batched(world.table(mode), *world.image);
      WireMac scalar(world.table(mode), *world.image);
      for (std::size_t i = begin; i < end; ++i) {
        want[i] = world.reference(stream[i], mode) ? 1 : 0;
        got_scalar[i] =
            scalar.admit(stream[i], sim::SimTime{1ms} * (i + 1)) ? 1 : 0;
      }
      batched.adjudicate_batch(
          std::span<const Frame>(stream.data() + begin, end - begin),
          sim::SimTime{1ms} * end,
          std::span<std::uint8_t>(got_batched.data() + begin, end - begin));
      EXPECT_GT(batched.stats().adjudicated, 0u) << mode;
      EXPECT_GT(batched.stats().passed, 0u) << mode;
      EXPECT_GT(batched.stats().unbound, 0u) << mode;
    };

    run_segment("normal", 0, half);
    run_segment("diag", half, stream.size());

    EXPECT_EQ(got_batched, want) << "seed " << seed;
    EXPECT_EQ(got_scalar, want) << "seed " << seed;
    // The switch must actually have changed something: 0x110 flips.
    const auto is_doors = [](const Frame& f) { return f.id().raw() == 0x110; };
    const auto first = std::find_if(stream.begin(), stream.begin() + half,
                                    is_doors);
    const auto second = std::find_if(stream.begin() + half, stream.end(),
                                     is_doors);
    ASSERT_NE(first, stream.begin() + half);
    ASSERT_NE(second, stream.end());
    EXPECT_EQ(want[first - stream.begin()], 0u);
    EXPECT_EQ(want[second - stream.begin()], 1u);
  }
}

TEST(WireMac, MultiCandidateSubjectsAreExistentialOr) {
  WireWorld world;
  WireMac normal(world.table("normal"), *world.image);
  WireMac diag(world.table("diag"), *world.image);
  const Frame doors_cmd = make_frame(0x110, {1});
  // ivi may never write doors and diag only in mode diag — the OR over
  // candidates must follow the table's mode.
  EXPECT_FALSE(normal.admit(doors_cmd, sim::SimTime{}));
  EXPECT_TRUE(diag.admit(doors_cmd, sim::SimTime{}));
  // Two candidate lanes rode the batch for each admit.
  for (const WireMac* mac : {&normal, &diag}) {
    EXPECT_EQ(mac->stats().sid_requests, 2u);
    EXPECT_EQ(mac->stats().adjudicated, 1u);
  }
}

TEST(WireMac, UnboundDefaultDenyAndOptOut) {
  WireWorld world;
  WireMac deny(world.table(), *world.image);
  EXPECT_FALSE(deny.admit(make_frame(0x300, {}), sim::SimTime{}));
  EXPECT_EQ(deny.stats().unbound, 1u);

  WireBindingTable::Builder open_builder;
  open_builder.set_unbound_allowed(true);
  WireMac open(open_builder.build(), *world.image);
  EXPECT_TRUE(open.admit(make_frame(0x300, {}), sim::SimTime{}));
  EXPECT_EQ(open.stats().unbound, 0u);
}

// -- J1939 ------------------------------------------------------------------

TEST(J1939Id, DecomposePdu1AndPdu2) {
  // PDU1 (pf < 0xF0): PS is the destination, PGN masks it out.
  const J1939Id p1 = J1939Id::decompose(0x18DA10F1);
  EXPECT_EQ(p1.priority, 6);
  EXPECT_EQ(p1.pf, 0xDA);
  EXPECT_EQ(p1.dest, 0x10);
  EXPECT_EQ(p1.src, 0xF1);
  EXPECT_EQ(p1.pgn, 0xDA00u);
  EXPECT_FALSE(p1.broadcast);
  // PDU2 (pf >= 0xF0): broadcast, PS is part of the PGN.
  const J1939Id p2 = J1939Id::decompose(0x18FEF103);
  EXPECT_EQ(p2.pf, 0xFE);
  EXPECT_EQ(p2.src, 0x03);
  EXPECT_EQ(p2.pgn, 0xFEF1u);
  EXPECT_TRUE(p2.broadcast);
  EXPECT_EQ(p2.dest, 0xFF);
}

TEST(WireMac, J1939PgnBindingIgnoresDestination) {
  WireWorld world;
  WireBindingTable::Builder b;
  const std::array<mac::Sid, 1> ecu{world.sid("ecu")};
  b.bind_pgn(0xDA00, ecu, world.sid("engine"), core::AccessType::kWrite);
  WireMac mac(b.build(), *world.image);
  // Same PGN, two destinations: both classify to the same binding.
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18DA10F1), {}),
                        sim::SimTime{}));
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18DA22F1), {}),
                        sim::SimTime{}));
  // Different PGN: unbound.
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18DB10F1), {}),
                         sim::SimTime{}));
}

TEST(WireMac, J1939PerSourceSubjects) {
  WireWorld world;
  WireBindingTable::Builder b;
  // Empty subject list: the source address table supplies the subject.
  b.bind_pgn(0xFEF1, {}, world.sid("engine"), core::AccessType::kWrite);
  b.j1939_source(0x03, world.sid("ecu"));   // may write engine
  b.j1939_source(0x42, world.sid("ivi"));   // may not
  WireMac mac(b.build(), *world.image);
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18FEF103), {}),
                        sim::SimTime{}));
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18FEF142), {}),
                         sim::SimTime{}));
  EXPECT_EQ(mac.stats().denied, 1u);
  // Unmapped source: unbound, deny-by-default before any SID lookup.
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18FEF199), {}),
                         sim::SimTime{}));
  EXPECT_EQ(mac.stats().unbound, 1u);
}

// -- ISO-TP flows -----------------------------------------------------------

[[nodiscard]] WireBindingTable isotp_table(const WireWorld& world) {
  WireBindingTable::Builder b;
  const std::array<mac::Sid, 1> ecu{world.sid("ecu")};
  const std::array<mac::Sid, 1> ivi{world.sid("ivi")};
  b.bind_standard(0x500, ecu, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);
  b.bind_standard(0x510, ivi, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);  // always denied
  return b.build();
}

[[nodiscard]] std::vector<std::uint8_t> payload_of(std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(i);
  return p;
}

TEST(WireMacIsoTp, FlowAdjudicatedOnceCfsInherit) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames =
      isotp_segment(CanId::standard(0x500), payload_of(100));  // FF + 14 CFs
  std::vector<std::uint8_t> allowed(frames.size());
  mac.adjudicate_batch(frames, sim::SimTime{}, allowed);
  EXPECT_TRUE(std::all_of(allowed.begin(), allowed.end(),
                          [](std::uint8_t v) { return v == 1; }));
  // Exactly ONE policy verdict bought the whole flow.
  EXPECT_EQ(mac.stats().adjudicated, 1u);
  EXPECT_EQ(mac.stats().flow_starts, 1u);
  EXPECT_EQ(mac.stats().flow_frames, frames.size() - 1);
  EXPECT_EQ(mac.isotp_stats().completed, 1u);
}

TEST(WireMacIsoTp, CrossBatchFlowInheritsVerdict) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x500), payload_of(100));
  // FF alone in the first batch; CFs admitted one frame at a time.
  EXPECT_TRUE(mac.admit(frames[0], sim::SimTime{}));
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_TRUE(mac.admit(frames[i], sim::SimTime{1ms} * i)) << i;
  }
  EXPECT_EQ(mac.stats().adjudicated, 1u);
  EXPECT_EQ(mac.stats().flow_frames, frames.size() - 1);
}

TEST(WireMacIsoTp, DeniedFlowDropsEveryFrame) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x510), payload_of(64));
  std::vector<std::uint8_t> allowed(frames.size());
  mac.adjudicate_batch(frames, sim::SimTime{}, allowed);
  EXPECT_TRUE(std::all_of(allowed.begin(), allowed.end(),
                          [](std::uint8_t v) { return v == 0; }));
  // The FF is a policy denial; the CFs die under the flow verdict.
  EXPECT_EQ(mac.stats().denied, 1u);
  EXPECT_EQ(mac.stats().flow_denied_frames, frames.size() - 1);
}

TEST(WireMacIsoTp, FlowControlPassesMalformedDrops) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  // FC pacing frame on a bound ISO-TP id: structural pass, no verdict.
  EXPECT_TRUE(mac.admit(make_frame(0x500, {0x30, 0, 0}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().passed, 1u);
  EXPECT_EQ(mac.stats().adjudicated, 0u);
  // Transport garbage on the same id: dropped with its own reason.
  EXPECT_FALSE(mac.admit(make_frame(0x500, {0x42, 1}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().isotp_errors, 1u);
}

TEST(WireMacIsoTp, MalformedFrameMidFlowKeepsTheFlowVerdict) {
  // An FC with reserved flow status 3 is malformed, but it leaves the
  // reassembler's conversation open: it drops on its own, and the CFs
  // after it still ride the FF's verdict, per frame and in one batch.
  for (const bool batched : {false, true}) {
    for (const std::uint32_t id : {0x500u, 0x510u}) {
      WireWorld world;
      WireMac mac(isotp_table(world), *world.image);
      std::vector<Frame> frames =
          isotp_segment(CanId::standard(id), payload_of(20));  // FF + 2 CFs
      ASSERT_EQ(frames.size(), 3u);
      frames.insert(frames.begin() + 1, make_frame(id, {0x33, 0, 0}));
      std::vector<std::uint8_t> allowed(frames.size());
      if (batched) {
        mac.adjudicate_batch(frames, sim::SimTime{}, allowed);
      } else {
        for (std::size_t i = 0; i < frames.size(); ++i) {
          allowed[i] = mac.admit(frames[i], sim::SimTime{1ms} * i) ? 1 : 0;
        }
      }
      const bool flow_allowed = id == 0x500;
      const std::uint8_t verdict = flow_allowed ? 1 : 0;
      EXPECT_EQ(allowed,
                (std::vector<std::uint8_t>{verdict, 0, verdict, verdict}))
          << "batched " << batched << " id 0x" << std::hex << id;
      EXPECT_EQ(mac.drops_by_reason()[static_cast<std::size_t>(
                    WireDropReason::kMalformedIsoTp)],
                1u);
      EXPECT_EQ(mac.stats().flow_frames, flow_allowed ? 2u : 0u);
      EXPECT_EQ(mac.stats().flow_denied_frames, flow_allowed ? 0u : 2u);
      EXPECT_EQ(mac.isotp_stats().completed, 1u);
    }
  }
}

TEST(WireMacIsoTp, FlowTimeoutForgetsVerdict) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x500), payload_of(64));
  EXPECT_TRUE(mac.admit(frames[0], sim::SimTime{}));
  // Past N_Cr the flow expires; the late CF is transport garbage.
  EXPECT_FALSE(mac.admit(frames[1], sim::SimTime{2000ms}));
  EXPECT_EQ(mac.stats().flow_timeouts, 1u);
  EXPECT_EQ(mac.stats().isotp_errors, 1u);
}

// -- drop telemetry ---------------------------------------------------------

TEST(WireDropMonitor, CountsByReasonAndId) {
  WireWorld world;
  WireMac mac(world.table(), *world.image);
  monitor::WireDropMonitor drops;
  mac.set_drop_sink(&drops);

  EXPECT_FALSE(mac.admit(make_frame(0x120, {}), sim::SimTime{1ms}));  // denied
  EXPECT_FALSE(mac.admit(make_frame(0x120, {}), sim::SimTime{2ms}));
  EXPECT_FALSE(mac.admit(make_frame(0x300, {}), sim::SimTime{3ms}));  // unbound
  EXPECT_TRUE(mac.admit(make_frame(0x100, {}), sim::SimTime{4ms}));   // allowed

  EXPECT_EQ(drops.total(), 3u);
  EXPECT_EQ(drops.by_reason(WireDropReason::kPolicyDenied), 2u);
  EXPECT_EQ(drops.by_reason(WireDropReason::kUnbound), 1u);
  EXPECT_EQ(drops.by_id(CanId::standard(0x120)), 2u);
  EXPECT_EQ(drops.by_id(CanId::standard(0x100)), 0u);
  EXPECT_EQ(drops.distinct_ids(), 2u);
  EXPECT_EQ(drops.top_offender().id.raw(), 0x120u);
  EXPECT_EQ(drops.top_offender().drops, 2u);
  EXPECT_EQ(drops.last_drop_at(), sim::SimTime{3ms});

  drops.reset();
  EXPECT_EQ(drops.total(), 0u);
  EXPECT_EQ(drops.distinct_ids(), 0u);
}

// -- BindingCompiler wire table --------------------------------------------

TEST(WireTable, MatchesHpeReadListsOverCarPolicy) {
  // The compiled wire table must agree with the HPE read lists on every
  // comparable id: non-owned assets' status ids and owned assets'
  // command ids (the ∃-writer gate on the wire).
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);
  for (const char* node : {"ecu", "eps", "doors", "safety", "connectivity",
                           "infotainment", "sensors", "engine"}) {
    for (const car::CarMode mode : car::kAllModes) {
      car::BindingCompiler fresh(*image);
      WireMac mac(fresh.build_wire_table(node, mode), *image);
      const hpe::ListPair lists = compiler.build_lists(node, mode);
      for (const car::AssetBinding& asset : car::asset_bindings()) {
        const bool owns = asset.owner_node == node;
        if (!owns) {
          for (const std::uint32_t id : asset.status_ids) {
            if (id == car::msg::kFailSafeTrigger) continue;  // structural
            EXPECT_EQ(mac.admit(make_frame(id, {}), sim::SimTime{}),
                      lists.read.contains(CanId::standard(id)))
                << node << " mode " << static_cast<int>(mode) << " id 0x"
                << std::hex << id;
          }
        } else {
          for (const std::uint32_t id : asset.command_ids) {
            EXPECT_EQ(mac.admit(make_frame(id, {}), sim::SimTime{}),
                      lists.read.contains(CanId::standard(id)))
                << node << " mode " << static_cast<int>(mode) << " id 0x"
                << std::hex << id;
          }
        }
      }
    }
  }
}

TEST(WireTable, StructuralIdsAlwaysPass) {
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);
  WireMac mac(compiler.build_wire_table("eps", car::CarMode::kNormal), *image);
  EXPECT_TRUE(mac.admit(make_frame(car::msg::kModeChange, {0}), sim::SimTime{}));
  EXPECT_TRUE(
      mac.admit(make_frame(car::msg::kFailSafeTrigger, {1}), sim::SimTime{}));
  // The full 5-bit NM window [0x420, 0x43F] — the PR 9 regression pin.
  for (std::uint32_t id = 0x420; id <= 0x43F; ++id) {
    EXPECT_TRUE(mac.admit(make_frame(id, {0}), sim::SimTime{})) << std::hex << id;
  }
  EXPECT_FALSE(mac.admit(make_frame(0x41F, {0}), sim::SimTime{}));
  EXPECT_FALSE(mac.admit(make_frame(0x440, {0}), sim::SimTime{}));
}

}  // namespace
}  // namespace psme::can
