// Tests for the persistent policy image (core/policy_blob.h): round-trip
// byte-identical decision parity against the freshly compiled image
// (modes included, scalar and shuffled-batch), the car::FleetBoot
// bring-up/OTA path — and the trust boundary: truncated, bit-flipped,
// version-mismatched, structurally inconsistent and wrong-fingerprint
// blobs are rejected with PolicyBlobError, never undefined behaviour
// (the ASan/UBSan CI job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_buffer.h"
#include "core/policy_image.h"
#include "mac/sid_table.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::AccessRequest;
using core::AccessType;
using core::BlobTrust;
using core::CompiledPolicyImage;
using core::Decision;
using core::PolicyBlobError;
using core::PolicyBlobReader;
using core::PolicyBlobWriter;
using core::PolicyBuffer;
using core::PolicySet;

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  EXPECT_EQ(got.allowed, want.allowed) << context;
  EXPECT_EQ(got.rule_id, want.rule_id) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

/// The deployed connected-car policy (22 Table-I rules + base grants),
/// compiled to its image — the acceptance workload's policy.
const PolicySet& car_policy() {
  static const PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  return policy;
}

PolicySet fuzz_policy_set(sim::Rng& rng, std::size_t rules,
                          bool default_allow) {
  const std::vector<std::string> subjects = {"*", "a", "b", "c", "d"};
  const std::vector<std::string> objects = {"*", "x", "y", "z"};
  const std::vector<std::string> modes = {"m1", "m2", "m3"};
  PolicySet set("fuzz", 1);
  set.set_default_allow(default_allow);
  for (std::size_t i = 0; i < rules; ++i) {
    core::PolicyRule rule;
    rule.id = "r" + std::to_string(i);
    rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    rule.object = objects[rng.uniform(0, objects.size() - 1)];
    rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
    rule.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
    for (const auto& mode : modes) {
      if (rng.chance(0.3)) rule.modes.push_back(threat::ModeId{mode});
    }
    set.add_rule(std::move(rule));
  }
  return set;
}

std::vector<AccessRequest> fuzz_requests(sim::Rng& rng, std::size_t count) {
  const std::vector<std::string> subjects = {"a", "b", "c", "d", "zzz"};
  const std::vector<std::string> objects = {"x", "y", "z", "zzz"};
  const std::vector<std::string> modes = {"", "m1", "m2", "m3", "zzz"};
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest request;
    request.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    request.object = objects[rng.uniform(0, objects.size() - 1)];
    request.access = rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite;
    request.mode = threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Every (check, mode) question of the standard per-vehicle workload,
/// including a mode no rule names and the mode-free form.
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

// ------------------------------------------------------- round-trip parity

TEST(PolicyBlob, RoundTripIsByteIdenticalOnTheCarPolicy) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  const CompiledPolicyImage loaded = PolicyBlobReader::load(blob);

  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.version(), original.version());
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.default_allow(), original.default_allow());

  for (const AccessRequest& request : workload_requests()) {
    // Each image resolves through its own interner — the loaded one was
    // rebuilt from the wire — and the Decisions must match byte for byte.
    expect_same_decision(loaded.evaluate(loaded.resolve(request)),
                         original.evaluate(original.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlob, RoundTripShuffledBatchParityUnderFuzz) {
  sim::Rng rng(20260731);
  for (int round = 0; round < 4; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 25, round % 2 == 1);
    const CompiledPolicyImage& original = set.image();
    const CompiledPolicyImage loaded =
        PolicyBlobReader::load(PolicyBlobWriter::write(original));

    std::vector<AccessRequest> requests = fuzz_requests(rng, 400);
    // Shuffle deterministically so batch order differs from build order.
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
    }
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(loaded.resolve(request));
    }
    std::vector<Decision> batch(resolved.size());
    loaded.evaluate_batch(resolved, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_decision(batch[i],
                           original.evaluate(original.resolve(requests[i])),
                           requests[i].to_string());
    }
  }
}

TEST(PolicyBlob, FileRoundTripMatches) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_policy.img";
  PolicyBlobWriter::write_file(original, path);
  const CompiledPolicyImage loaded = PolicyBlobReader::load_file(path);
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  std::remove(path.c_str());
}

TEST(PolicyBlob, ProbeSurfacesTheHeader) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  const core::PolicyBlobInfo info = PolicyBlobReader::probe(blob);
  EXPECT_EQ(info.format_version, core::kPolicyBlobFormatVersion);
  EXPECT_EQ(info.fingerprint, original.fingerprint());
  EXPECT_EQ(info.image_version, original.version());
  EXPECT_EQ(info.entry_count, original.size());
  EXPECT_EQ(info.sid_count, original.sids().size());
  EXPECT_EQ(info.total_size, blob.size());
}

// ------------------------------------------------------- trust boundary

std::vector<std::byte> car_blob() {
  return PolicyBlobWriter::write(car_policy().image());
}

/// What the throwing API said about one input: its message and recovery
/// class, or `thrown == false` when it accepted the bytes.
struct Rejection {
  bool thrown = false;
  std::string what;
  core::WireFault fault = core::WireFault::kMalformed;
};

template <class Read>
Rejection rejection_of(const Read& read) {
  try {
    (void)read();
  } catch (const PolicyBlobError& e) {
    return {true, e.what(), e.fault()};
  }
  return {};
}

/// Folds one input's rejection message and the UpdateResult FleetBoot
/// reports for the same bytes into `digest`. The loops pin the result,
/// taken before the header gate existed: the gate changes neither.
void digest_rejection(std::uint64_t& digest, const Rejection& rejection,
                      car::UpdateResult result) {
  digest = mac::hash_chain_bytes(rejection.what, digest);
  digest = mac::hash_chain_u64(static_cast<std::uint64_t>(result), digest);
}

/// The header gate agrees with the throwing reader on `bytes`: where the
/// gate rejects, the reader threw the gate's message and recovery class;
/// where it passes, the reader still threw (the payload decided). Counts
/// which of the two decided.
void expect_gate_agrees(std::span<const std::byte> bytes,
                        const Rejection& thrown, std::size_t& gated,
                        std::size_t& deeper) {
  const std::optional<core::WireRejection> gate =
      PolicyBlobReader::check(bytes);
  if (!gate) {
    ++deeper;
    return;
  }
  ++gated;
  EXPECT_EQ(gate->message(), thrown.what);
  EXPECT_EQ(gate->fault, thrown.fault) << thrown.what;
}

TEST(PolicyBlobRejection, Truncation) {
  const std::vector<std::byte> blob = car_blob();
  car::FleetBoot boot(blob, car::default_fleet_checks());
  std::uint64_t digest = mac::kFnv1aOffset;
  std::size_t gated = 0;
  std::size_t deeper = 0;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{63}, std::size_t{80},
        blob.size() / 2, blob.size() - 1}) {
    const std::vector<std::byte> cut(blob.begin(),
                                     blob.begin() + static_cast<long>(keep));
    const Rejection loaded =
        rejection_of([&] { return PolicyBlobReader::load(cut); });
    const Rejection probed =
        rejection_of([&] { return PolicyBlobReader::probe(cut); });
    EXPECT_TRUE(loaded.thrown) << "kept " << keep << " bytes";
    EXPECT_TRUE(probed.thrown) << "kept " << keep << " bytes";
    EXPECT_EQ(probed.what, loaded.what) << "kept " << keep << " bytes";
    expect_gate_agrees(cut, loaded, gated, deeper);
    digest = mac::hash_chain_bytes(probed.what, digest);
    digest_rejection(digest, loaded, boot.try_apply_update(cut));
  }
  // A cut blob fails the length or the size check: the gate decides each.
  EXPECT_EQ(gated, 6u);
  EXPECT_EQ(digest, 0x54a1608da2b518dbULL);
}

TEST(PolicyBlobRejection, FlippedMagic) {
  std::vector<std::byte> blob = car_blob();
  blob[0] ^= std::byte{0x01};
  EXPECT_THROW((void)PolicyBlobReader::load(blob), PolicyBlobError);
}

TEST(PolicyBlobRejection, UnsupportedFormatVersion) {
  // The reader speaks exactly one version: the retired v1 layout is as
  // foreign as a future one, and both entry points say so by name.
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{99}}) {
    std::vector<std::byte> blob = car_blob();
    blob[8] = std::byte{version};  // format-version field (LE u32 at 8)
    const auto expect_version_rejection = [&](const auto& read) {
      try {
        (void)read();
        ADD_FAILURE() << "version " << int{version} << " accepted";
      } catch (const PolicyBlobError& e) {
        EXPECT_NE(std::string(e.what()).find("format version"),
                  std::string::npos)
            << "version " << int{version} << ": " << e.what();
      }
    };
    expect_version_rejection([&] { return PolicyBlobReader::load(blob); });
    expect_version_rejection([&] { return PolicyBlobReader::probe(blob); });
  }
}

TEST(PolicyBlobRejection, FingerprintMismatch) {
  std::vector<std::byte> blob = car_blob();
  blob[32] ^= std::byte{0x01};  // fingerprint field (u64 at 32)
  try {
    (void)PolicyBlobReader::load(blob);
    FAIL() << "tampered fingerprint accepted";
  } catch (const PolicyBlobError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(PolicyBlobRejection, PayloadCorruption) {
  std::vector<std::byte> blob = car_blob();
  blob[blob.size() - 5] ^= std::byte{0x40};
  try {
    (void)PolicyBlobReader::load(blob);
    FAIL() << "corrupted payload accepted";
  } catch (const PolicyBlobError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(PolicyBlobRejection, EverySingleByteCorruptionIsDetected) {
  // The strongest form of the trust-boundary claim: flip ANY byte of the
  // blob and the loader must reject — the payload is checksummed and
  // every header byte is individually validated (magic, version, tags,
  // sizes, flags, reserved-zero, and the two hashes). Running this under
  // ASan/UBSan (CI) also proves no corruption reaches undefined
  // behaviour before the rejection fires.
  const std::vector<std::byte> blob = car_blob();
  car::FleetBoot boot(blob, car::default_fleet_checks());
  std::uint64_t digest = mac::kFnv1aOffset;
  std::size_t gated = 0;
  std::size_t deeper = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::vector<std::byte> bad = blob;
    bad[i] ^= std::byte{0xFF};
    const Rejection loaded =
        rejection_of([&] { return PolicyBlobReader::load(bad); });
    EXPECT_TRUE(loaded.thrown) << "flip at byte " << i << " was accepted";
    expect_gate_agrees(bad, loaded, gated, deeper);
    digest_rejection(digest, loaded, boot.try_apply_update(bad));
  }
  // The gate decides every flip but the 16 in the stored fingerprint and
  // image version, which only the final fingerprint check catches.
  EXPECT_EQ(deeper, 16u);
  EXPECT_EQ(gated, blob.size() - 16);
  EXPECT_EQ(digest, 0x4980aeca921d006bULL);
}

TEST(PolicyBlobRejection, TrailingBytes) {
  std::vector<std::byte> blob = car_blob();
  blob.push_back(std::byte{0});  // size field no longer matches
  EXPECT_THROW((void)PolicyBlobReader::load(blob), PolicyBlobError);
}

TEST(PolicyBlobRejection, MissingFile) {
  EXPECT_THROW((void)PolicyBlobReader::load_file("/nonexistent/policy.img"),
               PolicyBlobError);
}

// ------------------------------------------------------- FleetBoot path

TEST(FleetBoot, BootsFromBlobWithByteIdenticalSweeps) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(compiled);

  const std::size_t fleet_size = 40;
  car::FleetEvaluator reference(compiled, car::default_fleet_checks(),
                                fleet_size);
  car::FleetBoot boot(blob, car::default_fleet_checks(), fleet_size);

  // Scatter modes identically on both fleets.
  sim::Rng rng(99);
  for (std::size_t v = 0; v < fleet_size; ++v) {
    const auto mode = static_cast<car::CarMode>(rng.uniform(0, 2));
    reference.set_mode(v, mode);
    boot.fleet().set_mode(v, mode);
  }

  std::vector<Decision> reference_stream;
  std::vector<Decision> boot_stream;
  const auto collect = [](std::vector<Decision>& into) {
    return [&into](std::span<const core::SidRequest>,
                   std::span<const Decision> decisions) {
      into.insert(into.end(), decisions.begin(), decisions.end());
    };
  };
  const car::FleetTickStats want = reference.tick(collect(reference_stream));
  const car::FleetTickStats got = boot.fleet().tick(collect(boot_stream));

  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.allowed, want.allowed);
  EXPECT_EQ(got.denied, want.denied);
  ASSERT_EQ(boot_stream.size(), reference_stream.size());
  for (std::size_t i = 0; i < boot_stream.size(); ++i) {
    expect_same_decision(boot_stream[i], reference_stream[i],
                         "decision " + std::to_string(i));
  }
}

TEST(FleetBoot, OtaUpdateSwapsPolicyAndRefusesRollback) {
  const auto model = car::connected_car_threat_model();
  const PolicySet v1 = car::full_policy(model, 1);
  PolicySet v2 = car::full_policy(model, 2);
  // v2 adds a top-priority global deny for one entry point — visibly
  // different decisions after the update.
  core::PolicyRule lockdown;
  lockdown.id = "lockdown";
  lockdown.subject = "ep.infotainment";
  lockdown.object = "*";
  lockdown.permission = threat::Permission::kNone;
  lockdown.priority = 1000;
  v2.add_rule(std::move(lockdown));

  const std::vector<std::byte> blob_v1 = PolicyBlobWriter::write(v1.image());
  const std::vector<std::byte> blob_v2 = PolicyBlobWriter::write(v2.image());

  car::FleetBoot boot(blob_v1, car::default_fleet_checks(), 8);
  boot.fleet().set_mode(3, car::CarMode::kFailSafe);
  const std::uint64_t denied_v1 = boot.fleet().tick().denied;
  EXPECT_EQ(boot.policy_version(), 1u);

  // Malformed staging blob: rejected, live policy untouched.
  std::vector<std::byte> corrupt = blob_v2;
  corrupt[corrupt.size() - 1] ^= std::byte{0xFF};
  EXPECT_EQ(boot.try_apply_update(corrupt),
            car::UpdateResult::kValidationFailed);
  EXPECT_EQ(boot.policy_version(), 1u);

  // The real update: applied, modes preserved, decisions now v2's.
  EXPECT_EQ(boot.try_apply_update(blob_v2), car::UpdateResult::kOk);
  EXPECT_EQ(boot.policy_version(), 2u);
  EXPECT_EQ(boot.fleet().mode(3), car::CarMode::kFailSafe);
  const std::uint64_t denied_v2 = boot.fleet().tick().denied;
  EXPECT_GT(denied_v2, denied_v1);

  // Replaying the old blob must not downgrade.
  EXPECT_EQ(boot.try_apply_update(blob_v1),
            car::UpdateResult::kRollbackRefused);
  EXPECT_EQ(boot.policy_version(), 2u);
}

// ------------------------------------------------------- zero-copy views

/// Compiled (owned) and blob-borrowed images answering one request —
/// the acceptance criterion is byte-identical Decisions.
TEST(PolicyBlobZeroCopy, CompiledV1AndBorrowedAnswerIdentically) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const CompiledPolicyImage borrowed = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled)));
  ASSERT_TRUE(borrowed.borrowed());
  ASSERT_FALSE(compiled.borrowed());

  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(borrowed.evaluate(borrowed.resolve(request)),
                         compiled.evaluate(compiled.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, SealedAttachMatchesUntrustedLoad) {
  const CompiledPolicyImage& compiled = car_policy().image();
  auto buffer = PolicyBuffer::take(PolicyBlobWriter::write(compiled));
  const CompiledPolicyImage untrusted =
      PolicyBlobReader::load(buffer, BlobTrust::kUntrusted);
  const CompiledPolicyImage sealed =
      PolicyBlobReader::load(buffer, BlobTrust::kSealedStore);
  ASSERT_TRUE(sealed.borrowed());
  EXPECT_EQ(sealed.fingerprint(), compiled.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(sealed.evaluate(sealed.resolve(request)),
                         untrusted.evaluate(untrusted.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, ShuffledBatchParityOnBorrowedImagesUnderFuzz) {
  sim::Rng rng(20260808);
  for (int round = 0; round < 4; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 25, round % 2 == 1);
    const CompiledPolicyImage& original = set.image();
    const CompiledPolicyImage loaded = PolicyBlobReader::load(
        PolicyBuffer::take(PolicyBlobWriter::write(original)));
    ASSERT_TRUE(loaded.borrowed());

    std::vector<AccessRequest> requests = fuzz_requests(rng, 400);
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
    }
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(loaded.resolve(request));
    }
    std::vector<Decision> batch(resolved.size());
    loaded.evaluate_batch(resolved, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_decision(batch[i],
                           original.evaluate(original.resolve(requests[i])),
                           requests[i].to_string());
    }
  }
}

TEST(PolicyBlobZeroCopy, CopyingABorrowedImageKeepsParity) {
  // Deep copy of a borrowed image: the copy shares the buffer (views are
  // rebound, not re-owned) and must answer identically after the source
  // image is destroyed.
  const CompiledPolicyImage& compiled = car_policy().image();
  auto borrowed = std::make_unique<CompiledPolicyImage>(PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled))));
  const CompiledPolicyImage copy(*borrowed);
  borrowed.reset();
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(copy.fingerprint(), compiled.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(copy.evaluate(copy.resolve(request)),
                         compiled.evaluate(compiled.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, InternGrowsAnAttachedTable) {
  // FleetEvaluator interns workload labels into a loaded image's table;
  // an attached (borrowed) interner must support that exactly like a
  // rebuilt one: existing names keep their SIDs, new names extend.
  const CompiledPolicyImage loaded = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(car_policy().image())));
  mac::SidTable& sids = *loaded.sid_table();
  const std::size_t carried = sids.size();

  // Existing name: intern is a pure lookup, nothing grows.
  const mac::Sid wildcard = sids.find("*");
  ASSERT_NE(wildcard, mac::kNullSid);
  EXPECT_EQ(sids.intern("*"), wildcard);
  EXPECT_EQ(sids.size(), carried);

  // New names: sequential SIDs past the carried range, and every carried
  // name still resolves (the thaw copies the probe table faithfully).
  const mac::Sid fresh = sids.intern("ep.test.attached-intern");
  EXPECT_EQ(fresh, carried + 1);
  EXPECT_EQ(sids.name_of(fresh), "ep.test.attached-intern");
  EXPECT_EQ(sids.find("ep.test.attached-intern"), fresh);
  for (mac::Sid sid = 1; sid <= carried; ++sid) {
    EXPECT_EQ(sids.find(sids.name_of(sid)), sid) << "carried SID " << sid;
  }
}

TEST(PolicyBlobZeroCopy, LayoutSectionsAreAlignedAndPack) {
  const std::vector<std::byte> blob =
      PolicyBlobWriter::write(car_policy().image());
  const std::vector<core::PolicyBlobSection> sections =
      core::policy_blob_layout(blob);
  ASSERT_FALSE(sections.empty());
  EXPECT_STREQ(sections.front().name, "header");
  std::size_t previous_end = 0;
  for (const core::PolicyBlobSection& section : sections) {
    EXPECT_EQ(section.offset % 8, 0u) << section.name;
    EXPECT_GE(section.offset, previous_end) << section.name;
    // Any gap is alignment padding only (< 8 bytes).
    EXPECT_LT(section.offset - previous_end, 8u) << section.name;
    previous_end = section.offset + section.size;
  }
  EXPECT_EQ((previous_end + 7) & ~std::size_t{7}, blob.size());
}

TEST(PolicyBlobZeroCopy, ConcurrentEvaluationOnOneBorrowedImage) {
  // Lazy Meta materialisation is the one internal mutation of a borrowed
  // image; concurrent first-touch from several threads must be safe (the
  // TSan CI job runs this) and every thread must see identical decisions.
  const CompiledPolicyImage& compiled = car_policy().image();
  const CompiledPolicyImage loaded = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled)));
  const std::vector<AccessRequest> requests = workload_requests();
  std::vector<Decision> want;
  want.reserve(requests.size());
  for (const AccessRequest& request : requests) {
    want.push_back(compiled.evaluate(compiled.resolve(request)));
  }

  std::vector<std::vector<Decision>> got(4);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (std::vector<Decision>& into : got) {
    threads.emplace_back([&loaded, &requests, &into] {
      into.reserve(requests.size());
      for (const AccessRequest& request : requests) {
        into.push_back(loaded.evaluate(loaded.resolve(request)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_decision(got[t][i], want[i],
                           "thread " + std::to_string(t) + " decision " +
                               std::to_string(i));
    }
  }
}

TEST(PolicyBlobZeroCopy, CorruptedSealedBlobFailsClosedWithoutUB) {
  // kSealedStore skips the content checks — that is its contract — but a
  // blob corrupted AFTER staging must still fail SAFE: structural header
  // damage is rejected outright, and payload damage may only change
  // answers or deny, never crash or read out of bounds (ASan/UBSan CI
  // runs this test). Walk a byte of every section.
  const std::vector<std::byte> good =
      PolicyBlobWriter::write(car_policy().image());
  const std::vector<core::PolicyBlobSection> sections =
      core::policy_blob_layout(good);
  const std::vector<AccessRequest> requests = workload_requests();

  for (const core::PolicyBlobSection& section : sections) {
    if (section.size == 0) continue;
    for (const std::size_t at :
         {section.offset, section.offset + section.size / 2,
          section.offset + section.size - 1}) {
      std::vector<std::byte> bad = good;
      bad[at] ^= std::byte{0xA5};
      try {
        const CompiledPolicyImage image = PolicyBlobReader::load(
            PolicyBuffer::take(std::move(bad)), BlobTrust::kSealedStore);
        for (const AccessRequest& request : requests) {
          (void)image.evaluate(image.resolve(request));  // must not crash
        }
      } catch (const PolicyBlobError&) {
        // Equally acceptable: the structural gates caught it.
      }
    }
  }
}

// ------------------------------------------------------- file / mmap path

TEST(PolicyBlobZeroCopy, FileLoadIsMmapBackedAndBorrowed) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_policy_v2.img";
  PolicyBlobWriter::write_file(original, path);

  std::string error;
  const std::shared_ptr<const PolicyBuffer> mapped =
      PolicyBuffer::map_file(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped->file_mapped());
#endif

  const CompiledPolicyImage loaded = PolicyBlobReader::load_file(path);
  EXPECT_TRUE(loaded.borrowed());
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(loaded.evaluate(loaded.resolve(request)),
                         original.evaluate(original.resolve(request)),
                         request.to_string());
  }
  std::remove(path.c_str());
}

TEST(FleetBoot, BootsFromFileWithByteIdenticalSweeps) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_boot_v2.img";
  PolicyBlobWriter::write_file(compiled, path);

  const std::size_t fleet_size = 16;
  car::FleetEvaluator reference(compiled, car::default_fleet_checks(),
                                fleet_size);
  // Boot once per trust level — a freshly staged file (untrusted) and a
  // locally sealed one (the O(1) attach) must sweep identically.
  car::FleetBoot staged(path, car::default_fleet_checks(), fleet_size,
                        BlobTrust::kUntrusted);
  car::FleetBoot sealed(path, car::default_fleet_checks(), fleet_size,
                        BlobTrust::kSealedStore);

  std::vector<Decision> want_stream;
  std::vector<Decision> staged_stream;
  std::vector<Decision> sealed_stream;
  const auto collect = [](std::vector<Decision>& into) {
    return [&into](std::span<const core::SidRequest>,
                   std::span<const Decision> decisions) {
      into.insert(into.end(), decisions.begin(), decisions.end());
    };
  };
  const car::FleetTickStats want = reference.tick(collect(want_stream));
  const car::FleetTickStats staged_stats =
      staged.fleet().tick(collect(staged_stream));
  const car::FleetTickStats sealed_stats =
      sealed.fleet().tick(collect(sealed_stream));

  EXPECT_EQ(staged_stats.decisions, want.decisions);
  EXPECT_EQ(sealed_stats.decisions, want.decisions);
  ASSERT_EQ(staged_stream.size(), want_stream.size());
  ASSERT_EQ(sealed_stream.size(), want_stream.size());
  for (std::size_t i = 0; i < want_stream.size(); ++i) {
    expect_same_decision(staged_stream[i], want_stream[i],
                         "staged decision " + std::to_string(i));
    expect_same_decision(sealed_stream[i], want_stream[i],
                         "sealed decision " + std::to_string(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psme
