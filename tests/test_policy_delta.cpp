// Tests for the delta OTA channel (core/policy_delta.h) — the
// adversarial/differential harness is the headline:
//
//  * DIFFERENTIAL: >= 200 seeded random policy pairs (rules added,
//    removed, retargeted, mode-flipped, new types and modes) where the
//    delta-applied image must be fingerprint-equal and decision-BYTE-
//    identical to the directly compiled target, across shuffled batch
//    sweeps — and its serialised blob must byte-equal the direct
//    compile's.
//  * ADVERSARIAL: every single flipped byte of a delta, every
//    truncation, a wrong base image, a stale format version and crafted
//    count fields must raise PolicyDeltaError before any large
//    allocation — never UB (the ASan/UBSan CI job runs this file),
//    never a wrong image.
//  * SHARED TAXONOMY: the blob reader and the delta reader validate
//    their common header prefix through one helper
//    (core/wire_format.h), so both reject an endianness-mismatched
//    header with the same PolicyWireError class and message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_diff.h"
#include "core/policy_image.h"
#include "delta_oracle.h"
#include "mac/sid_table.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::AccessRequest;
using core::AccessType;
using core::CompiledPolicyImage;
using core::Decision;
using core::PolicyBlobError;
using core::PolicyBlobReader;
using core::PolicyBlobWriter;
using core::PolicyDeltaError;
using core::PolicyDeltaReader;
using core::PolicyDeltaStats;
using core::PolicyDeltaWriter;
using core::PolicySet;
using core::PolicyWireError;

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  EXPECT_EQ(got.allowed, want.allowed) << context;
  EXPECT_EQ(got.rule_id, want.rule_id) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

const PolicySet& car_policy_v1() {
  static const PolicySet policy =
      car::full_policy(car::connected_car_threat_model(), 1);
  return policy;
}

/// Car policy v2: the same rules in the same order plus the appended
/// car::quarantine_rule() — the canonical 1-rule OTA change.
PolicySet car_policy_v2() {
  PolicySet v2("derived", 2);
  for (const core::PolicyRule& rule : car_policy_v1().rules()) {
    v2.add_rule(rule);
  }
  v2.add_rule(car::quarantine_rule());
  return v2;
}

/// The canonical car delta: v1 -> v2, target compiled in v1's SID space.
std::vector<std::byte> car_delta(PolicyDeltaStats* stats = nullptr) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const CompiledPolicyImage target = CompiledPolicyImage::from_policy_set(
      car_policy_v2(),
      core::replicate_sid_prefix(base.sids(), base.sids().size()));
  return PolicyDeltaWriter::write(base, target, stats);
}

std::vector<AccessRequest> workload_requests() {
  const std::vector<std::string> modes = {"", "normal", "remote-diagnostic",
                                          "fail-safe", "never-seen-mode"};
  std::vector<AccessRequest> requests;
  for (const car::FleetCheck& check : car::default_fleet_checks()) {
    for (const std::string& mode : modes) {
      requests.push_back(AccessRequest{check.subject, check.object,
                                       check.access, threat::ModeId{mode}});
    }
  }
  return requests;
}

// =================================================== differential harness

TEST(PolicyDeltaDifferential, TwoHundredSeededPairsAreByteIdentical) {
  // The headline: across >= 200 seeded random policy pairs covering every
  // mutation class (add / remove / retarget / permission / priority /
  // mode flip / new types / new modes / default flip), applying the
  // delta to the base image reproduces the DIRECTLY compiled target —
  // fingerprint-equal, blob-byte-equal, and decision-byte-identical on
  // shuffled batch sweeps probing base names, new names and strangers.
  sim::Rng rng(20260731);
  constexpr int kCases = 220;
  for (int round = 0; round < kCases; ++round) {
    const std::string tag = "case " + std::to_string(round);
    deltatest::DeltaCase c = deltatest::random_case(rng);
    const CompiledPolicyImage& base = c.base.image();
    const CompiledPolicyImage target = deltatest::compile_target(c, base);

    PolicyDeltaStats stats;
    const std::vector<std::byte> delta =
        PolicyDeltaWriter::write(base, target, &stats);
    const CompiledPolicyImage applied = PolicyDeltaReader::apply(base, delta);

    ASSERT_EQ(applied.fingerprint(), target.fingerprint()) << tag;
    EXPECT_EQ(applied.name(), target.name()) << tag;
    EXPECT_EQ(applied.version(), target.version()) << tag;
    EXPECT_EQ(applied.default_allow(), target.default_allow()) << tag;
    ASSERT_EQ(applied.size(), target.size()) << tag;
    // The edit script must account for every entry on both sides.
    EXPECT_EQ(stats.copied + stats.changed + stats.added, target.size())
        << tag;
    EXPECT_EQ(stats.copied + stats.changed + stats.removed, base.size())
        << tag;
    // Byte-identical in the strongest sense: the applied image
    // serialises to the exact blob the direct compile serialises to
    // (entries, metas, mode table, SID table AND sealed index).
    EXPECT_EQ(PolicyBlobWriter::write(applied), PolicyBlobWriter::write(target))
        << tag;

    // Decision parity on a shuffled sweep, scalar and batch.
    std::vector<AccessRequest> requests =
        deltatest::random_requests(rng, c, 120);
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
    }
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(applied.resolve(request));
    }
    std::vector<Decision> batch(resolved.size());
    applied.evaluate_batch(resolved, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Decision want = target.evaluate(target.resolve(requests[i]));
      expect_same_decision(batch[i], want,
                           tag + ": " + requests[i].to_string());
      expect_same_decision(applied.evaluate(resolved[i]), want,
                           tag + ": " + requests[i].to_string());
    }
  }
}

TEST(PolicyDeltaDifferential, NewTypesAndModesResolveInTheAppliedImage) {
  // A target that introduces a brand-new subject and a brand-new mode:
  // the delta's SID-prefix extension must carry them, and the applied
  // image must resolve and adjudicate them exactly like the direct
  // compile.
  PolicySet base("base", 1);
  base.add_rule({"r0", "ecu.engine", "asset.can", threat::Permission::kRead,
                 {}, 0, ""});
  PolicySet target("target", 2);
  target.add_rule({"r0", "ecu.engine", "asset.can",
                   threat::Permission::kRead, {}, 0, ""});
  target.add_rule({"r1", "ecu.brandnew", "asset.can",
                   threat::Permission::kReadWrite,
                   {threat::ModeId{"valet"}}, 5, ""});

  const CompiledPolicyImage& base_image = base.image();
  const CompiledPolicyImage direct = CompiledPolicyImage::from_policy_set(
      target, core::replicate_sid_prefix(base_image.sids(),
                                         base_image.sids().size()));
  const CompiledPolicyImage applied = PolicyDeltaReader::apply(
      base_image, PolicyDeltaWriter::write(base_image, direct));

  EXPECT_EQ(applied.fingerprint(), direct.fingerprint());
  EXPECT_NE(applied.sids().find("ecu.brandnew"), mac::kNullSid);
  EXPECT_NE(applied.sids().find("valet"), mac::kNullSid);
  for (const char* mode : {"", "valet", "unknown"}) {
    const AccessRequest request{"ecu.brandnew", "asset.can",
                                AccessType::kWrite, threat::ModeId{mode}};
    expect_same_decision(applied.evaluate(applied.resolve(request)),
                         direct.evaluate(direct.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyDeltaDifferential, ModeOnlyChangeIsASinglePatch) {
  PolicySet base("m", 1);
  base.add_rule({"r0", "a", "x", threat::Permission::kRead, {}, 0, ""});
  base.add_rule({"r1", "b", "y", threat::Permission::kWrite,
                 {threat::ModeId{"normal"}}, 1, ""});
  base.add_rule({"r2", "c", "z", threat::Permission::kReadWrite, {}, 2, ""});
  PolicySet target("m", 2);
  target.add_rule({"r0", "a", "x", threat::Permission::kRead, {}, 0, ""});
  target.add_rule({"r1", "b", "y", threat::Permission::kWrite,
                   {threat::ModeId{"normal"}, threat::ModeId{"diag"}}, 1,
                   ""});
  target.add_rule({"r2", "c", "z", threat::Permission::kReadWrite, {}, 2, ""});

  const CompiledPolicyImage& base_image = base.image();
  const CompiledPolicyImage direct = CompiledPolicyImage::from_policy_set(
      target, core::replicate_sid_prefix(base_image.sids(),
                                         base_image.sids().size()));
  PolicyDeltaStats stats;
  const std::vector<std::byte> delta =
      PolicyDeltaWriter::write(base_image, direct, &stats);
  EXPECT_EQ(stats.changed, 1u);
  EXPECT_EQ(stats.copied, 2u);
  EXPECT_EQ(stats.added, 0u);
  EXPECT_EQ(stats.removed, 0u);
  const CompiledPolicyImage applied =
      PolicyDeltaReader::apply(base_image, delta);
  EXPECT_EQ(applied.fingerprint(), direct.fingerprint());
}

TEST(PolicyDeltaDifferential, IdenticalImagesYieldACopyOnlyDelta) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  PolicyDeltaStats stats;
  const std::vector<std::byte> delta =
      PolicyDeltaWriter::write(base, base, &stats);
  EXPECT_EQ(stats.copied, base.size());
  EXPECT_EQ(stats.added + stats.removed + stats.changed, 0u);
  const CompiledPolicyImage applied = PolicyDeltaReader::apply(base, delta);
  EXPECT_EQ(applied.fingerprint(), base.fingerprint());
}

// ===================================================== car policy + sizes

TEST(PolicyDelta, CarPolicyDeltaMatchesDirectCompileAcrossWorkload) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const CompiledPolicyImage target = CompiledPolicyImage::from_policy_set(
      car_policy_v2(),
      core::replicate_sid_prefix(base.sids(), base.sids().size()));
  const CompiledPolicyImage applied =
      PolicyDeltaReader::apply(base, PolicyDeltaWriter::write(base, target));
  ASSERT_EQ(applied.fingerprint(), target.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(applied.evaluate(applied.resolve(request)),
                         target.evaluate(target.resolve(request)),
                         request.to_string());
  }
  // The quarantine rule actually bites through the applied image.
  const AccessRequest quarantined{"ep.infotainment", "infotainment",
                                  AccessType::kRead, threat::ModeId{}};
  EXPECT_FALSE(applied.evaluate(applied.resolve(quarantined)).allowed);
}

TEST(PolicyDelta, OneRuleDeltaIsUnderTenPercentOfTheFullBlob) {
  // The acceptance criterion: shipping the 1-rule change as a delta
  // costs <= 10% of resending the whole sealed image
  // (bench_policy_delta records the measured ratio in
  // BENCH_policy_delta.json).
  PolicyDeltaStats stats;
  const std::vector<std::byte> delta = car_delta(&stats);
  const std::vector<std::byte> blob =
      PolicyBlobWriter::write(car_policy_v1().image());
  EXPECT_LE(delta.size() * 10, blob.size());
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.removed + stats.changed, 0u);
  EXPECT_EQ(stats.copied, car_policy_v1().image().size());
}

TEST(PolicyDelta, ProbeSurfacesTheHeader) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const std::vector<std::byte> delta = car_delta();
  const core::PolicyDeltaInfo info = PolicyDeltaReader::probe(delta);
  EXPECT_EQ(info.format_version, core::kPolicyDeltaFormatVersion);
  EXPECT_EQ(info.base_fingerprint, base.fingerprint());
  EXPECT_EQ(info.base_version, 1u);
  EXPECT_EQ(info.target_version, 2u);
  EXPECT_EQ(info.base_entry_count, base.size());
  EXPECT_EQ(info.target_entry_count, base.size() + 1);
  EXPECT_EQ(info.total_size, delta.size());
}

TEST(PolicyDelta, StatsAgreeWithPolicyDiffOnTheCarUpdate) {
  // The release-gate pairing: core::diff_policies reviews the change,
  // the delta ships it — on the canonical 1-rule update both see exactly
  // one addition (and the diff flags it as the rule it is).
  const core::PolicyDiff diff =
      core::diff_policies(car_policy_v1(), car_policy_v2());
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, core::RuleChangeKind::kAdded);
  EXPECT_EQ(diff.changes[0].rule_id, "T15.quarantine");
  PolicyDeltaStats stats;
  (void)car_delta(&stats);
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.removed + stats.changed, 0u);
}

TEST(PolicyDelta, FileRoundTripMatches) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const CompiledPolicyImage target = CompiledPolicyImage::from_policy_set(
      car_policy_v2(),
      core::replicate_sid_prefix(base.sids(), base.sids().size()));
  const std::string path = ::testing::TempDir() + "psme_policy.pdelta";
  PolicyDeltaWriter::write_file(base, target, path);
  const CompiledPolicyImage applied =
      PolicyDeltaReader::apply_file(base, path);
  EXPECT_EQ(applied.fingerprint(), target.fingerprint());
  std::remove(path.c_str());
}

TEST(PolicyDelta, ReplicateSidPrefixReplaysInterningHistory) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const auto replica =
      core::replicate_sid_prefix(base.sids(), base.sids().size());
  ASSERT_EQ(replica->size(), base.sids().size());
  for (mac::Sid sid = 1; sid <= replica->size(); ++sid) {
    EXPECT_EQ(replica->name_of(sid), base.sids().name_of(sid)) << sid;
  }
  EXPECT_THROW((void)core::replicate_sid_prefix(base.sids(),
                                                base.sids().size() + 1),
               std::out_of_range);
}

TEST(PolicyDelta, WriterRejectsANonPrefixCompatibleTarget) {
  // A target compiled against its OWN fresh table whose interning order
  // diverges from the base's: packed SIDs would denote different
  // identities, so the writer must refuse.
  PolicySet base("b", 1);
  base.add_rule({"r0", "ecu.engine", "asset.can", threat::Permission::kRead,
                 {}, 0, ""});
  PolicySet target("t", 2);
  target.add_rule({"r0", "ecu.OTHER", "asset.can", threat::Permission::kRead,
                   {}, 0, ""});
  target.add_rule({"r1", "ecu.engine", "asset.can",
                   threat::Permission::kRead, {}, 0, ""});
  try {
    (void)PolicyDeltaWriter::write(base.image(), target.image());
    FAIL() << "non-prefix-compatible target accepted";
  } catch (const PolicyDeltaError& e) {
    EXPECT_NE(std::string(e.what()).find("prefix-compatible"),
              std::string::npos);
  }
}

// ======================================================= FleetBoot OTA

TEST(FleetBootDelta, DeltaUpdateSwapsPolicyAndPreservesModes) {
  const std::vector<std::byte> blob_v1 =
      PolicyBlobWriter::write(car_policy_v1().image());

  car::FleetBoot boot(blob_v1, car::default_fleet_checks(), 8);
  boot.fleet().set_mode(3, car::CarMode::kFailSafe);
  const std::uint64_t denied_v1 = boot.fleet().tick().denied;
  EXPECT_EQ(boot.policy_version(), 1u);

  // A corrupted delta: rejected, live policy untouched.
  const std::vector<std::byte> delta = car_delta();
  std::vector<std::byte> corrupt = delta;
  corrupt[corrupt.size() - 1] ^= std::byte{0xFF};
  EXPECT_EQ(boot.try_apply_delta_update(corrupt),
            car::UpdateResult::kValidationFailed);
  EXPECT_EQ(boot.policy_version(), 1u);

  // The real delta: applied, modes preserved, the quarantine rule bites.
  EXPECT_EQ(boot.try_apply_delta_update(delta), car::UpdateResult::kOk);
  EXPECT_EQ(boot.policy_version(), 2u);
  EXPECT_EQ(boot.fleet().mode(3), car::CarMode::kFailSafe);
  EXPECT_GT(boot.fleet().tick().denied, denied_v1);

  // Replaying the SAME delta now fails its base anchor: the fleet runs
  // v2, the delta is anchored to v1's fingerprint.
  EXPECT_EQ(boot.try_apply_delta_update(delta),
            car::UpdateResult::kAnchorMismatch);
  EXPECT_EQ(boot.policy_version(), 2u);
}

TEST(FleetBootDelta, RollbackDeltaIsRefused) {
  // A well-formed delta anchored to the CURRENT image whose target is an
  // older version: validated, then refused — same rollback contract as
  // the blob channel.
  const std::vector<std::byte> blob_v2 = PolicyBlobWriter::write(
      CompiledPolicyImage::from_policy_set(car_policy_v2()));
  car::FleetBoot boot(blob_v2, car::default_fleet_checks(), 4);
  EXPECT_EQ(boot.policy_version(), 2u);

  const CompiledPolicyImage& running = boot.image();
  const CompiledPolicyImage downgrade = CompiledPolicyImage::from_policy_set(
      car_policy_v1(),
      core::replicate_sid_prefix(running.sids(), running.sids().size()));
  const std::vector<std::byte> delta =
      PolicyDeltaWriter::write(running, downgrade);
  EXPECT_EQ(boot.try_apply_delta_update(delta),
            car::UpdateResult::kRollbackRefused);
  EXPECT_EQ(boot.policy_version(), 2u);
}

// ==================================================== adversarial bytes

/// Runs hostile deltas through the header gate, the throwing apply() and
/// a FleetBoot on the same base, folding every rejection message and
/// every UpdateResult into `digest` (the loops pin it, taken before the
/// header gate existed). Where the gate rejects, apply() must throw the
/// gate's message and recovery class; where it passes, apply() must
/// still throw (the payload decides). `gated` and `deeper` count which
/// of the two decided.
struct RejectionRig {
  /// True when apply() threw PolicyDeltaError for `delta`.
  bool reject(const CompiledPolicyImage& base,
              std::span<const std::byte> delta) {
    const std::optional<core::WireRejection> gate =
        PolicyDeltaReader::check(base, delta);
    bool thrown = false;
    try {
      (void)PolicyDeltaReader::apply(base, delta);
    } catch (const PolicyDeltaError& e) {
      thrown = true;
      digest = mac::hash_chain_bytes(e.what(), digest);
      if (gate) {
        EXPECT_EQ(gate->message(), e.what());
        EXPECT_EQ(gate->fault, e.fault()) << e.what();
      }
    }
    ++(gate ? gated : deeper);
    digest = mac::hash_chain_u64(
        static_cast<std::uint64_t>(boot.try_apply_delta_update(delta)),
        digest);
    return thrown;
  }

  car::FleetBoot boot{PolicyBlobWriter::write(car_policy_v1().image()),
                      car::default_fleet_checks()};
  std::uint64_t digest = mac::kFnv1aOffset;
  std::size_t gated = 0;
  std::size_t deeper = 0;
};

TEST(PolicyDeltaRejection, EverySingleByteCorruptionIsDetected) {
  // The strongest form of the trust-boundary claim, mirroring
  // test_policy_blob: flip ANY byte of the delta and apply() must
  // reject — the payload is checksummed, and every header byte is
  // individually validated (shared wire prefix, anchors recomputed from
  // the base, counts cross-checked against the reconstruction, the SID
  // table hash and both fingerprints). Running this under ASan/UBSan
  // (CI) also proves no corruption reaches undefined behaviour before
  // the rejection fires.
  const CompiledPolicyImage& base = car_policy_v1().image();
  const std::vector<std::byte> delta = car_delta();
  RejectionRig rig;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    std::vector<std::byte> bad = delta;
    bad[i] ^= std::byte{0xFF};
    EXPECT_TRUE(rig.reject(base, bad)) << "flip at byte " << i
                                       << " was accepted";
  }
  // The gate decides every flip but 28, which only the replay catches:
  // the SID-table hash (8 bytes), the target fingerprint and version (16)
  // and the wildcard SID (4).
  EXPECT_EQ(rig.deeper, 28u);
  EXPECT_EQ(rig.gated, delta.size() - 28);
  EXPECT_EQ(rig.digest, 0xe9b2147b44ab8de5ULL);
}

TEST(PolicyDeltaRejection, EveryTruncationIsDetected) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  const std::vector<std::byte> delta = car_delta();
  RejectionRig rig;
  for (std::size_t keep = 0; keep < delta.size(); ++keep) {
    const std::vector<std::byte> cut(delta.begin(),
                                     delta.begin() + static_cast<long>(keep));
    EXPECT_TRUE(rig.reject(base, cut)) << "kept " << keep << " bytes";
  }
  std::vector<std::byte> padded = delta;
  padded.push_back(std::byte{0});
  EXPECT_TRUE(rig.reject(base, padded)) << "one trailing byte accepted";
  // A cut or padded delta fails the length or the size check: the gate
  // decides each.
  EXPECT_EQ(rig.gated, delta.size() + 1);
  EXPECT_EQ(rig.digest, 0xed456d28e68e6d4cULL);
}

TEST(PolicyDeltaRejection, WrongBaseImage) {
  const std::vector<std::byte> delta = car_delta();
  const CompiledPolicyImage other =
      CompiledPolicyImage::from_policy_set(car_policy_v2());
  try {
    (void)PolicyDeltaReader::apply(other, delta);
    FAIL() << "delta applied to a foreign base";
  } catch (const PolicyDeltaError& e) {
    EXPECT_NE(std::string(e.what()).find("base fingerprint"),
              std::string::npos);
  }
}

TEST(PolicyDeltaRejection, StaleFormatVersion) {
  const CompiledPolicyImage& base = car_policy_v1().image();
  std::vector<std::byte> delta = car_delta();
  delta[8] = std::byte{99};  // format-version field (little-endian u32 at 8)
  try {
    (void)PolicyDeltaReader::apply(base, delta);
    FAIL() << "version 99 accepted";
  } catch (const PolicyDeltaError& e) {
    EXPECT_NE(std::string(e.what()).find("format version"),
              std::string::npos);
  }
}

TEST(PolicyDeltaRejection, CraftedCountFieldsRejectBeforeAllocation) {
  // Count fields live in the header, OUTSIDE the payload checksum: an
  // attacker can set any of them freely. Each must be rejected by the
  // counts-vs-delta-size gate (or its anchor cross-check) BEFORE any
  // reservation — a 300-byte delta must never earn a multi-gigabyte
  // allocation (ASan would also flag the attempt in CI).
  const CompiledPolicyImage& base = car_policy_v1().image();
  const std::vector<std::byte> delta = car_delta();
  // Header offsets of the u32 count fields (see policy_delta.cpp layout).
  const std::size_t count_offsets[] = {72, 76, 80, 84, 88, 92, 96};
  for (const std::size_t off : count_offsets) {
    std::vector<std::byte> bad = delta;
    bad[off] = std::byte{0xFF};
    bad[off + 1] = std::byte{0xFF};
    bad[off + 2] = std::byte{0xFF};
    bad[off + 3] = std::byte{0x7F};
    EXPECT_THROW((void)PolicyDeltaReader::apply(base, bad), PolicyDeltaError)
        << "crafted count at offset " << off;
  }
}

TEST(PolicyDeltaRejection, MissingFile) {
  EXPECT_THROW((void)PolicyDeltaReader::apply_file(
                   car_policy_v1().image(), "/nonexistent/policy.pdelta"),
               PolicyDeltaError);
}

// ================================================= shared error taxonomy

TEST(PolicyWireTaxonomy, BlobAndDeltaShareTheWireErrorClass) {
  static_assert(std::is_base_of_v<PolicyWireError, PolicyBlobError>);
  static_assert(std::is_base_of_v<PolicyWireError, PolicyDeltaError>);
  static_assert(std::is_base_of_v<std::runtime_error, PolicyWireError>);
}

TEST(PolicyWireTaxonomy, EndiannessMismatchRejectsWithTheSameErrorClass) {
  // Satellite regression: both readers validate the shared 32-byte wire
  // prefix through ONE helper (core/wire_format.h), so an endianness-
  // mismatched header earns the same PolicyWireError class and the same
  // message shape from either — only the domain prefix differs.
  const CompiledPolicyImage& base = car_policy_v1().image();
  std::vector<std::byte> blob = PolicyBlobWriter::write(base);
  std::vector<std::byte> delta = car_delta();
  // Corrupt the endianness tag (u32 at offset 12 in BOTH formats).
  for (std::size_t i = 12; i < 16; ++i) {
    blob[i] ^= std::byte{0xFF};
    delta[i] ^= std::byte{0xFF};
  }
  std::string blob_message;
  std::string delta_message;
  try {
    (void)PolicyBlobReader::load(blob);
    FAIL() << "endianness-mismatched blob accepted";
  } catch (const PolicyWireError& e) {
    blob_message = e.what();
  }
  try {
    (void)PolicyDeltaReader::apply(base, delta);
    FAIL() << "endianness-mismatched delta accepted";
  } catch (const PolicyWireError& e) {
    delta_message = e.what();
  }
  const std::string want = "endianness tag mismatch";
  EXPECT_NE(blob_message.find(want), std::string::npos) << blob_message;
  EXPECT_NE(delta_message.find(want), std::string::npos) << delta_message;
  EXPECT_EQ(blob_message.substr(blob_message.find(want)),
            delta_message.substr(delta_message.find(want)));
}

// -- multi-release deltas -------------------------------------------------
//
// The campaign planner writes ONE base->target delta from the two
// lineage images it holds, however many releases apart they are. The
// contract under test: the applied delta is fingerprint- and
// blob-byte-equal to the directly compiled target.

/// A seeded lineage compiled the OEM way: each image against a prefix
/// replica of its predecessor.
std::vector<CompiledPolicyImage> compiled_lineage(std::uint64_t seed,
                                                  std::size_t length) {
  sim::Rng rng(seed);
  std::vector<CompiledPolicyImage> images;
  for (const PolicySet& set : deltatest::random_lineage(rng, length)) {
    std::shared_ptr<mac::SidTable> sids;
    if (!images.empty()) {
      const auto& prev = images.back().sids();
      sids = core::replicate_sid_prefix(prev, prev.size());
    }
    images.push_back(
        CompiledPolicyImage::from_policy_set(set, std::move(sids)));
  }
  return images;
}

TEST(PolicyDeltaChain, SixVersionDeltaMatchesDirectCompile) {
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<CompiledPolicyImage> lineage =
        compiled_lineage(seed, 7);  // six releases past the base
    const CompiledPolicyImage& base = lineage.front();
    const CompiledPolicyImage& target = lineage.back();

    const CompiledPolicyImage applied = PolicyDeltaReader::apply(
        base, PolicyDeltaWriter::write(base, target));

    EXPECT_EQ(applied.fingerprint(), target.fingerprint());
    EXPECT_EQ(applied.version(), target.version());
    // The strong form the campaign's shared-sealed-store commit leans
    // on: the applied image re-serialises to the EXACT bytes of the
    // directly compiled target's blob.
    EXPECT_EQ(PolicyBlobWriter::write(applied),
              PolicyBlobWriter::write(target));
  }
}

}  // namespace
}  // namespace psme
