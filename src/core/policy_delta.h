// psme::core — the delta OTA channel: fingerprint-anchored binary policy
// deltas.
//
// PR 4's persistent blob gave the fleet a zero-recompile boot, but its
// OTA channel resends the ENTIRE sealed image even when core::policy_diff
// knows only a handful of rules changed. For a fleet of millions behind
// narrow in-vehicle links, the update that matters is (base fingerprint,
// delta): a compact edit script from the policy the vehicle is already
// running to the policy the OEM wants it to run. This module is that
// channel.
//
// A delta is anchored to the BASE image's fingerprint(): the writer
// records it, and apply() refuses to run against any other image — a
// delta can never be replayed onto the wrong base and silently produce a
// franken-policy. The payload encodes the target as an edit script over
// the base's packed SID-space entries (copy / skip / insert / patch, in
// entry order), the target's mode table, the target's image name /
// version / default flag, and the SID-table extension: every name the
// target interned beyond the base's anchored prefix, in SID order
// (SID-prefix-compatible extension ONLY — a delta cannot renumber the
// base's identities).
//
// apply(base, delta) reconstructs a sealed CompiledPolicyImage that is
// byte-identical to compiling the target policy directly against the
// same SID prefix: fingerprint-equal (cross-checked against the header's
// recorded target fingerprint — the final gate) and decision-identical
// (test-pinned across shuffled batch sweeps by the differential harness
// in tests/test_policy_delta.cpp). The applied image owns a FRESH
// SidTable built from the base's anchored prefix plus the carried
// extension, so a vehicle whose runtime table grew (fleet labels) still
// applies cleanly — the evaluator re-resolves after the swap, the same
// contract as a full-blob update.
//
// Trust boundary: deltas arrive over the air, and a malformed delta can
// brick or silently WEAKEN a vehicle's enforcement. Same discipline as
// the blob (shared machinery, core/wire_format.h): every count and
// length is bounds-checked against the delta's own size BEFORE any
// allocation, every header field is individually validated (anchors
// recomputed from the base, the SID-table extension hashed, the final
// image fingerprint cross-checked), and flipping ANY single byte of a
// delta is rejected with a PolicyDeltaError — exhaustively test-pinned,
// never UB, never a wrong image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/policy_image.h"
#include "core/wire_format.h"
#include "mac/sid_table.h"

namespace psme::core {

/// Rejection of a malformed, truncated, tampered, wrong-base or
/// incompatible delta. Same PolicyWireError taxonomy as PolicyBlobError:
/// one catch handles the OTA boundary, the class tells which artefact
/// failed.
class PolicyDeltaError : public PolicyWireError {
 public:
  using PolicyWireError::PolicyWireError;
};

/// Current on-wire delta format version. Bump on any layout change;
/// readers reject versions they do not speak.
inline constexpr std::uint32_t kPolicyDeltaFormatVersion = 1;

/// The 8 magic bytes every delta starts with ("PSMEPDLT").
inline constexpr std::size_t kPolicyDeltaMagicSize = 8;
[[nodiscard]] std::span<const std::byte, kPolicyDeltaMagicSize>
policy_delta_magic() noexcept;

/// Edit-script composition of a delta, surfaced by the writer (release
/// tooling logs it next to core::PolicyDiff::render()) and recomputable
/// from the wire by probe-level tooling.
struct PolicyDeltaStats {
  std::uint32_t copied = 0;   // base entries carried over verbatim
  std::uint32_t added = 0;    // entries the target introduces
  std::uint32_t removed = 0;  // base entries the target drops
  std::uint32_t changed = 0;  // base entries replaced in place (patch)
};

/// Header fields surfaced without applying (OTA tooling: log what
/// arrived, match it to the staged base, decide). probe() validates the
/// shared wire prefix — magic, version, endianness, size, payload
/// checksum — but not the payload structure; only apply() against the
/// real base proves a delta usable.
struct PolicyDeltaInfo {
  std::uint32_t format_version = 0;
  std::uint64_t base_fingerprint = 0;    // anchor: required base image
  std::uint64_t target_fingerprint = 0;  // the image apply() must produce
  std::uint64_t base_version = 0;
  std::uint64_t target_version = 0;
  std::uint32_t base_entry_count = 0;
  std::uint32_t target_entry_count = 0;
  std::uint32_t op_count = 0;
  std::uint32_t new_sid_count = 0;  // names appended beyond the anchor
  std::uint64_t total_size = 0;     // whole delta, header included
};

/// A fresh SidTable whose interning history replays `sids`' first
/// `count` names in SID order — the prefix replica an OEM compiles a
/// target policy against so the result lives in the fleet's SID space
/// without mutating the deployed base image's own table. Throws
/// std::out_of_range when `count` exceeds the table.
[[nodiscard]] std::shared_ptr<mac::SidTable> replicate_sid_prefix(
    const mac::SidTable& sids, std::size_t count);

/// Serialises the edit script from `base` to `target`. Runs at the OEM
/// (release tooling), never on a vehicle.
class PolicyDeltaWriter {
 public:
  /// The delta taking `base` to `target`: header + payload, checksummed,
  /// anchored to base.fingerprint() and carrying target.fingerprint() as
  /// the apply-side cross-check. Requires `target`'s SID space to be a
  /// prefix-compatible extension of `base`'s (compile the target against
  /// replicate_sid_prefix(base.sids(), base.sids().size()), or share the
  /// base's own table); anything else throws PolicyDeltaError — packed
  /// entries would otherwise denote different identities. When `stats`
  /// is non-null the edit-script composition is reported through it.
  [[nodiscard]] static std::vector<std::byte> write(
      const CompiledPolicyImage& base, const CompiledPolicyImage& target,
      PolicyDeltaStats* stats = nullptr);

  /// write() to a file. Throws PolicyDeltaError when the file cannot be
  /// created or fully written.
  static void write_file(const CompiledPolicyImage& base,
                         const CompiledPolicyImage& target,
                         const std::string& path,
                         PolicyDeltaStats* stats = nullptr);
};

/// Validates a delta and applies it to a base image.
class PolicyDeltaReader {
 public:
  /// The delta's header gate against `base`: the shared wire prefix
  /// (payload checksum included) and the delta's own header fields,
  /// then the anchor checks (base fingerprint, version, entry count,
  /// SID anchor) and the section-count checks apply() makes before it
  /// allocates. Returns the first failed check — the same message and
  /// recovery class apply() would throw — or nothing when the header
  /// holds. Never throws, so an OTA caller refuses damaged bytes without
  /// a C++ throw; bytes that pass still need apply(), which runs this
  /// gate first and then replays and verifies the payload.
  [[nodiscard]] static std::optional<WireRejection> check(
      const CompiledPolicyImage& base,
      std::span<const std::byte> delta) noexcept;

  /// Header-only inspection; throws PolicyDeltaError on a delta whose
  /// shared wire prefix or own header fields fail the gate check() runs
  /// before it looks at the base (see PolicyDeltaInfo).
  [[nodiscard]] static PolicyDeltaInfo probe(std::span<const std::byte> delta);

  /// Full validated application: checks the delta against `base` (the
  /// anchor fingerprint, entry count, referenced-SID range and version
  /// must all match the image in hand), replays the edit script, and
  /// returns a sealed image that fingerprints to exactly the header's
  /// recorded target fingerprint — byte-identical to the direct compile
  /// of the target policy. The returned image owns a fresh SidTable
  /// (base prefix + carried extension); `base` is never mutated. Throws
  /// PolicyDeltaError on any validation failure, leaving `base` fully
  /// usable.
  [[nodiscard]] static CompiledPolicyImage apply(
      const CompiledPolicyImage& base, std::span<const std::byte> delta);

  /// apply() with the delta read from a file. Throws PolicyDeltaError
  /// when the file cannot be read.
  [[nodiscard]] static CompiledPolicyImage apply_file(
      const CompiledPolicyImage& base, const std::string& path);
};

}  // namespace psme::core
