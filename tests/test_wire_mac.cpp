// Tests for the wire-rate MAC (psme::can::WireMac): the differential
// oracle pinning batched wire verdicts to the scalar MacEngine::evaluate
// reference, J1939 classification, ISO-TP flow adjudication, drop
// telemetry, the BindingCompiler wire-table equivalence, and the TSan
// torture drive through the concurrent shared-AVC path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "can/wire_mac.h"
#include "car/base_policy.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "mac/mac_engine.h"
#include "monitor/wire_drops.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

// -- fixture: a small engine-backed world -----------------------------------
//
// Entities: subjects ecu/ivi/diag, objects engine/telemetry/doors.
// Static rules: ecu may write engine, ivi may read telemetry.
// Conditional: diag may write doors only while `diag_mode` is set.
struct WireWorld {
  mac::MacEngine engine;

  WireWorld() {
    mac::PolicyModule m;
    m.name = "wire";
    m.types = {"ecu_t", "ivi_t", "diag_t", "engine_t", "telemetry_t",
               "doors_t"};
    m.allows.push_back({"ecu_t", "engine_t", "asset", {"write"}});
    m.allows.push_back({"ivi_t", "telemetry_t", "asset", {"read"}});
    m.booleans.emplace_back("diag_mode", false);
    m.conditional_allows.push_back(
        {"diag_mode", true,
         mac::TeRule{"diag_t", "doors_t", "asset", {"write"}}});
    engine.load_module(std::move(m));
    engine.label("ecu", mac::SecurityContext("system", "subject", "ecu_t"));
    engine.label("ivi", mac::SecurityContext("system", "subject", "ivi_t"));
    engine.label("diag", mac::SecurityContext("system", "subject", "diag_t"));
    engine.label("engine",
                 mac::SecurityContext("system", "object", "engine_t"));
    engine.label("telemetry",
                 mac::SecurityContext("system", "object", "telemetry_t"));
    engine.label("doors", mac::SecurityContext("system", "object", "doors_t"));
  }

  [[nodiscard]] mac::Sid sid(const std::string& entity) const {
    return engine.type_sid_of(entity);
  }

  /// The table the differential tests share. Ids:
  ///   0x100 ecu->engine write (allowed), 0x101 ivi->telemetry read
  ///   (allowed), 0x110 {ivi,diag}->doors write (allowed iff diag_mode),
  ///   0x120 ivi->engine write (always denied), 0x420-0x43F pass (NM),
  ///   everything else unbound.
  [[nodiscard]] WireBindingTable table() const {
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
    return b.build();
  }

  /// Scalar reference verdict for one frame, via the string-level
  /// MacEngine::evaluate path — deliberately NOT the batch machinery.
  [[nodiscard]] bool reference(const Frame& frame) {
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
            return engine
                .evaluate(core::AccessRequest{subject, rule.object,
                                              rule.access, {}})
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
  // per-frame MacEngine::evaluate reference over shuffled streams at 3
  // pinned seeds — including across a mid-stream policy reload.
  for (const std::uint64_t seed : {0xAAAAu, 0x1234u, 0xC0FEu}) {
    WireWorld world;
    WireMac batched(world.table(), world.engine);
    WireMac scalar(world.table(), world.engine);
    const std::vector<Frame> stream = shuffled_stream(seed, 4000);
    const std::size_t half = stream.size() / 2;

    std::vector<std::uint8_t> want(stream.size());
    std::vector<std::uint8_t> got_batched(stream.size());
    std::vector<std::uint8_t> got_scalar(stream.size());

    const auto run_segment = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        want[i] = world.reference(stream[i]) ? 1 : 0;
        got_scalar[i] =
            scalar.admit(stream[i], sim::SimTime{1ms} * (i + 1)) ? 1 : 0;
      }
      batched.adjudicate_batch(
          std::span<const Frame>(stream.data() + begin, end - begin),
          sim::SimTime{1ms} * end,
          std::span<std::uint8_t>(got_batched.data() + begin, end - begin));
    };

    run_segment(0, half);
    // Mid-stream policy reload: the conditional diag->doors rule flips.
    world.engine.set_boolean("diag_mode", true);
    run_segment(half, stream.size());

    EXPECT_EQ(got_batched, want) << "seed " << seed;
    EXPECT_EQ(got_scalar, want) << "seed " << seed;
    // The reload must actually have changed something (0x110 flips).
    EXPECT_TRUE(std::any_of(stream.begin(), stream.begin() + half,
                            [&](const Frame& f) {
                              return f.id().raw() == 0x110;
                            }));
    EXPECT_GT(batched.stats().adjudicated, 0u);
    EXPECT_GT(batched.stats().passed, 0u);
    EXPECT_GT(batched.stats().unbound, 0u);
  }
}

TEST(WireMac, MultiCandidateSubjectsAreExistentialOr) {
  WireWorld world;
  WireMac mac(world.table(), world.engine);
  const Frame doors_cmd = make_frame(0x110, {1});
  // ivi may not write doors; diag may not either until the boolean
  // opens the gate — the OR over candidates must flip with it.
  EXPECT_FALSE(mac.admit(doors_cmd, sim::SimTime{}));
  world.engine.set_boolean("diag_mode", true);
  EXPECT_TRUE(mac.admit(doors_cmd, sim::SimTime{}));
  // Two candidate lanes rode the batch for each admit.
  EXPECT_EQ(mac.stats().sid_requests, 4u);
  EXPECT_EQ(mac.stats().adjudicated, 2u);
}

TEST(WireMac, UnboundDefaultDenyAndOptOut) {
  WireWorld world;
  WireMac deny(world.table(), world.engine);
  EXPECT_FALSE(deny.admit(make_frame(0x300, {}), sim::SimTime{}));
  EXPECT_EQ(deny.stats().unbound, 1u);

  WireBindingTable::Builder open_builder;
  open_builder.set_unbound_allowed(true);
  WireMac open(open_builder.build(), world.engine);
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
  WireMac mac(b.build(), world.engine);
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
  WireMac mac(b.build(), world.engine);
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

[[nodiscard]] WireBindingTable isotp_table(WireWorld& world) {
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
  WireMac mac(isotp_table(world), world.engine);
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
  WireMac mac(isotp_table(world), world.engine);
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
  WireMac mac(isotp_table(world), world.engine);
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
  WireMac mac(isotp_table(world), world.engine);
  // FC pacing frame on a bound ISO-TP id: structural pass, no verdict.
  EXPECT_TRUE(mac.admit(make_frame(0x500, {0x30, 0, 0}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().passed, 1u);
  EXPECT_EQ(mac.stats().adjudicated, 0u);
  // Transport garbage on the same id: dropped with its own reason.
  EXPECT_FALSE(mac.admit(make_frame(0x500, {0x42, 1}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().isotp_errors, 1u);
}

TEST(WireMacIsoTp, FlowTimeoutForgetsVerdict) {
  WireWorld world;
  WireMac mac(isotp_table(world), world.engine);
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
  WireMac mac(world.table(), world.engine);
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

// -- verdict-only shared batch parity (the mac/ entry point) ----------------

TEST(MacEngineAllowedShared, MatchesDecisionPathExactly) {
  // Every verdict equals scalar evaluate() on the equivalent labelled
  // request: before a policy reload, after it, and in permissive mode.
  WireWorld world;
  const std::string entities[] = {"ecu", "ivi", "diag", "engine",
                                  "telemetry", "doors", "never-labelled"};
  std::vector<core::AccessRequest> labelled;
  std::vector<core::SidRequest> requests;
  for (const std::string& subject : entities) {
    for (const std::string& object : entities) {
      for (const core::AccessType access :
           {core::AccessType::kRead, core::AccessType::kWrite}) {
        labelled.push_back(core::AccessRequest{subject, object, access, {}});
        requests.push_back(world.engine.resolve(labelled.back()));
      }
    }
  }
  // Null SIDs have no labelled equivalent: they must read deny (allow
  // only in permissive mode), even next to a granted pair.
  for (const core::AccessType access :
       {core::AccessType::kRead, core::AccessType::kWrite}) {
    requests.push_back({mac::kNullSid, world.sid("engine"), access,
                        mac::kNullSid});
    requests.push_back({world.sid("ecu"), mac::kNullSid, access,
                        mac::kNullSid});
  }

  const auto check = [&](const char* phase) {
    std::vector<std::uint8_t> verdicts(requests.size());
    world.engine.evaluate_batch_allowed_shared(requests, verdicts);
    for (std::size_t i = 0; i < labelled.size(); ++i) {
      EXPECT_EQ(verdicts[i] != 0, world.engine.evaluate(labelled[i]).allowed)
          << phase << ": " << labelled[i].to_string();
    }
    const std::uint8_t null_verdict = world.engine.permissive() ? 1 : 0;
    for (std::size_t i = labelled.size(); i < requests.size(); ++i) {
      EXPECT_EQ(verdicts[i], null_verdict) << phase << ": null SID " << i;
    }
  };

  // The reload flips one answer the verdicts are compared on.
  const core::AccessRequest diag_write{"diag", "doors",
                                       core::AccessType::kWrite, {}};
  check("initial");
  EXPECT_FALSE(world.engine.evaluate(diag_write).allowed);
  world.engine.set_boolean("diag_mode", true);
  check("after reload");
  EXPECT_TRUE(world.engine.evaluate(diag_write).allowed);
  world.engine.set_permissive(true);
  check("permissive");

  std::vector<std::uint8_t> verdicts(requests.size());
  EXPECT_THROW(world.engine.evaluate_batch_allowed_shared(
                   requests, std::span<std::uint8_t>(verdicts.data(), 1)),
               std::invalid_argument);
}

TEST(MacEngineAllowedShared, PermissiveModeAllowsAndCounts) {
  WireWorld world;
  world.engine.set_permissive(true);
  const core::SidRequest denied{world.sid("ivi"), world.sid("engine"),
                                core::AccessType::kWrite, mac::kNullSid};
  std::uint8_t verdict = 0;
  const std::uint64_t before = world.engine.permissive_denials();
  world.engine.evaluate_batch_allowed_shared({&denied, 1}, {&verdict, 1});
  EXPECT_EQ(verdict, 1u);
  EXPECT_EQ(world.engine.permissive_denials(), before + 1);
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

// -- concurrency torture (run under TSan in the tsan CI leg) -----------------

TEST(WireMacTorture, ConcurrentPerBusAdjudicationDuringReload) {
  // 4 buses, each with its OWN WireMac, all sharing ONE MacEngine
  // through the seqlock read path, while the owner thread toggles a
  // boolean. Per the snapshot-pinning contract every batch adjudicates
  // entirely against generation A or generation B: the stable id is
  // allowed in every batch, and the toggled id's verdict is uniform
  // within each batch.
  WireWorld world;
  constexpr int kReaders = 4;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatch = 64;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&world, &violations, r]() {
      WireMac mac(world.table(), world.engine);
      std::vector<Frame> frames;
      for (std::size_t i = 0; i < kBatch; ++i) {
        // Alternate the always-allowed id and the toggled id.
        frames.push_back(make_frame(i % 2 == 0 ? 0x100 : 0x110,
                                    {static_cast<std::uint8_t>(r)}));
      }
      std::vector<std::uint8_t> allowed(frames.size());
      for (int batch = 0; batch < kBatches; ++batch) {
        mac.adjudicate_batch(frames, sim::SimTime{1ms} * batch, allowed);
        std::uint8_t toggled_first = 2;  // sentinel
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (i % 2 == 0) {
            if (allowed[i] != 1) violations.fetch_add(1);
            continue;
          }
          if (toggled_first == 2) toggled_first = allowed[i];
          if (allowed[i] != toggled_first) violations.fetch_add(1);
        }
      }
    });
  }
  std::thread owner([&world, &stop]() {
    bool value = true;
    while (!stop.load(std::memory_order_relaxed)) {
      world.engine.set_boolean("diag_mode", value);
      value = !value;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  owner.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace psme::can
