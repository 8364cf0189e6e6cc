// Corruption and parity at scale: a 50k-rule synthetic policy blob
// (core/policy_synth.h) run through the zero-copy loader's whole
// trust boundary — seeded single-byte flips across every section, every
// header byte, truncation at structural boundaries — all rejected before
// a single decision; plus the byte-identical-decisions parity suite
// (owned vs borrowed vs sealed, shuffled batches, post-delta-apply)
// mirroring tests/delta_oracle.h. The ASan/UBSan CI job runs this file:
// a rejection that reads out of bounds first fails there.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_buffer.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "core/policy_synth.h"
#include "delta_oracle.h"
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
using core::SynthPolicyOptions;

constexpr std::size_t kScaleRules = 50000;

/// The 50k-rule image and its blob, built once for the whole file
/// (compilation and serialisation are seconds-scale under sanitizers).
const CompiledPolicyImage& scale_image() {
  static const CompiledPolicyImage image =
      core::synth_policy_image({kScaleRules, 7, 0xC0FFEE});
  return image;
}

const std::vector<std::byte>& scale_blob() {
  static const std::vector<std::byte> blob =
      PolicyBlobWriter::write(scale_image());
  return blob;
}

/// Requests over the synthetic name pools: known endpoints/assets,
/// strangers, every mode plus the mode-free and never-seen forms.
std::vector<AccessRequest> synth_requests(sim::Rng& rng, std::size_t count) {
  const std::vector<std::string> modes = {"", "normal", "degraded",
                                          "fail-safe", "never-seen"};
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest request;
    request.subject =
        rng.chance(0.05)
            ? "ep.stranger"
            : "ep.synth." + std::to_string(rng.uniform(0, kScaleRules / 8));
    request.object = rng.chance(0.05)
                         ? "asset.stranger"
                         : "asset.synth." + std::to_string(rng.uniform(0, 15));
    request.access = rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite;
    request.mode = threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  ASSERT_EQ(got.allowed, want.allowed) << context;
  ASSERT_EQ(got.rule_id, want.rule_id) << context;
  ASSERT_EQ(got.reason, want.reason) << context;
}

// --------------------------------------------------- corruption at scale

TEST(PolicyBlobScale, EveryHeaderByteFlipIsRejected) {
  const std::vector<std::byte>& good = scale_blob();
  for (std::size_t i = 0; i < 96; ++i) {
    std::vector<std::byte> bad = good;
    bad[i] ^= std::byte{0xFF};
    EXPECT_THROW((void)PolicyBlobReader::load(
                     PolicyBuffer::take(std::move(bad)), BlobTrust::kUntrusted),
                 PolicyBlobError)
        << "header flip at byte " << i << " was accepted";
  }
}

TEST(PolicyBlobScale, SeededPayloadFlipsAreRejected) {
  // Exhaustive flipping is minutes at 50k rules; seeded sampling plus
  // every section boundary (±8 bytes — where an off-by-one in derived
  // offsets would live) covers the same claim statistically, and the
  // payload checksum makes the rejection deterministic for ANY flip.
  const std::vector<std::byte>& good = scale_blob();
  std::vector<std::size_t> positions;
  sim::Rng rng(0xF11B);
  for (int i = 0; i < 256; ++i) {
    positions.push_back(rng.uniform(96, good.size() - 1));
  }
  for (const core::PolicyBlobSection& section :
       core::policy_blob_layout(good)) {
    for (std::size_t delta = 0; delta <= 8; ++delta) {
      if (section.offset >= delta) positions.push_back(section.offset - delta);
      if (section.offset + delta < good.size()) {
        positions.push_back(section.offset + delta);
      }
    }
  }
  for (const std::size_t at : positions) {
    std::vector<std::byte> bad = good;
    // A flip that lands on a zero pad byte still changes the checksum —
    // XOR with a nonzero mask is always a real corruption.
    bad[at] ^= std::byte{0x5A};
    EXPECT_THROW((void)PolicyBlobReader::load(
                     PolicyBuffer::take(std::move(bad)), BlobTrust::kUntrusted),
                 PolicyBlobError)
        << "payload flip at byte " << at << " was accepted";
  }
}

TEST(PolicyBlobScale, TruncationAtEveryBoundaryIsRejected) {
  const std::vector<std::byte>& good = scale_blob();
  std::vector<std::size_t> keeps = {0,  7,  31, 32,        63,
                                    80, 95, 96, good.size() - 1};
  for (const core::PolicyBlobSection& section :
       core::policy_blob_layout(good)) {
    keeps.push_back(section.offset);
    keeps.push_back(section.offset + section.size / 2);
    keeps.push_back(section.offset + section.size);
  }
  sim::Rng rng(0x7A7A);
  for (int i = 0; i < 32; ++i) keeps.push_back(rng.uniform(0, good.size() - 1));
  for (const std::size_t keep : keeps) {
    if (keep >= good.size()) continue;  // the last section ends at the size
    const std::vector<std::byte> cut(good.begin(),
                                     good.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)PolicyBlobReader::load(cut), PolicyBlobError)
        << "kept " << keep << " of " << good.size() << " bytes";
  }
}

// --------------------------------------------------------- parity at scale

TEST(PolicyBlobScale, OwnedV1AndBorrowedAnswerIdenticallyInShuffledBatches) {
  const CompiledPolicyImage& compiled = scale_image();
  const CompiledPolicyImage borrowed =
      PolicyBlobReader::load(PolicyBuffer::take(scale_blob()),  // copy of blob
                             BlobTrust::kUntrusted);
  const CompiledPolicyImage sealed = PolicyBlobReader::load(
      PolicyBuffer::take(scale_blob()), BlobTrust::kSealedStore);
  ASSERT_TRUE(borrowed.borrowed());
  ASSERT_TRUE(sealed.borrowed());
  ASSERT_FALSE(compiled.borrowed());
  EXPECT_EQ(borrowed.fingerprint(), compiled.fingerprint());

  sim::Rng rng(20260808);
  std::vector<AccessRequest> requests = synth_requests(rng, 3000);
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
  }

  const auto batch_answers = [&requests](const CompiledPolicyImage& image) {
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(image.resolve(request));
    }
    std::vector<Decision> out(resolved.size());
    image.evaluate_batch(resolved, out);
    return out;
  };

  const std::vector<Decision> want = batch_answers(compiled);
  const std::vector<Decision> got_borrowed = batch_answers(borrowed);
  const std::vector<Decision> got_sealed = batch_answers(sealed);
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_decision(got_borrowed[i], want[i],
                         "borrowed " + requests[i].to_string());
    expect_same_decision(got_sealed[i], want[i],
                         "sealed " + requests[i].to_string());
  }
}

TEST(PolicyBlobScale, DeltaAppliedToABorrowedBaseMatchesTheDirectCompile) {
  // The delta channel over zero-copy images, differential-oracle style
  // (tests/delta_oracle.h): the BASE the vehicle holds is a borrowed v2
  // image; writing a delta FROM it and applying a delta TO it must both
  // work off the arena views, and the applied image must byte-match the
  // direct compile of the target.
  sim::Rng rng(0xDE17A);
  for (int round = 0; round < 8; ++round) {
    deltatest::DeltaCase c = deltatest::random_case(rng);
    const CompiledPolicyImage& owned_base = c.base.image();
    const CompiledPolicyImage borrowed_base = PolicyBlobReader::load(
        PolicyBuffer::take(PolicyBlobWriter::write(owned_base)));
    ASSERT_TRUE(borrowed_base.borrowed());

    const CompiledPolicyImage target =
        deltatest::compile_target(c, borrowed_base);
    // Written from the borrowed base, the delta must byte-equal one
    // written from the owned base (same views, same metas).
    const std::vector<std::byte> delta =
        core::PolicyDeltaWriter::write(borrowed_base, target);
    EXPECT_EQ(delta, core::PolicyDeltaWriter::write(owned_base, target));

    const CompiledPolicyImage applied =
        core::PolicyDeltaReader::apply(borrowed_base, delta);
    EXPECT_EQ(applied.fingerprint(), target.fingerprint());

    for (const AccessRequest& request :
         deltatest::random_requests(rng, c, 300)) {
      expect_same_decision(applied.evaluate(applied.resolve(request)),
                           target.evaluate(target.resolve(request)),
                           request.to_string());
    }
  }
}

TEST(PolicyBlobScale, SynthImagePathsAgree) {
  // The Builder shortcut and the PolicySet path must be the same policy
  // (the benchmark's 10k/50k sizes are only honest if so).
  const SynthPolicyOptions options{800, 3, 0xABCD};
  const CompiledPolicyImage direct = core::synth_policy_image(options);
  const CompiledPolicyImage via_set = CompiledPolicyImage::from_policy_set(
      core::synth_policy_set(options));
  EXPECT_EQ(direct.fingerprint(), via_set.fingerprint());
  EXPECT_EQ(direct.size(), via_set.size());
}

}  // namespace
}  // namespace psme
