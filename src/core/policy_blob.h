// psme::core — the persistent policy image: versioned binary blobs.
//
// The paper's affordability argument assumes the hot path is served from
// a compiled cache — but a vehicle that must re-run the threat-model →
// derivation → CompiledPolicyImage compile at every boot (and for every
// OTA policy update) pays the whole compiler before it can answer its
// first access request. This module is the same move SELinux makes with
// its binary policydb: the sealed image — packed SID-space entries, the
// open-addressing index, the mode table, the prototype-decision audit
// strings — and its backing mac::SidTable are serialised once at the OEM,
// and every vehicle boots by loading the blob. The format goes one step
// further (the move Android ART makes with OAT files): every section is
// laid out 8-byte-aligned and position-independent, so the loader VIEWS
// the validated buffer in place — entries, index, mode table and both
// string arenas are borrowed, not copied, and boot-to-first-decision is
// O(1) in policy size. The loaded image produces byte-identical
// Decisions to the freshly compiled original (test-pinned).
//
// Trust boundary: blobs arrive over the air. A malformed blob — truncated,
// bit-flipped, wrong version, wrong endianness, inconsistent internal
// structure, or carrying a fingerprint that does not match its content —
// must be REJECTED with a PolicyBlobError, never dereferenced into UB.
// Every offset and count read from the wire is bounds-checked before use;
// the payload checksum and the image fingerprint are both verified. (The
// integrity tag is still the keyed PolicySigner at the bundle layer —
// this layer guarantees a hostile byte stream cannot corrupt memory or
// smuggle in an image that disagrees with its own manifest.)
//
// Two trust levels feed the loader (BlobTrust below): kUntrusted runs
// the full single-pass validation — checksum, structural bounds,
// semantic SID-slot and index re-validation, fingerprint cross-check —
// exactly once per staged blob; kSealedStore attaches a blob that
// ALREADY passed that validation on this device (the local store a
// vehicle boots from, SELinux's policy.N / ART's OAT precedent) with
// O(1) structural checks only. Evaluation itself is bounds-guarded, so
// even a corrupted sealed blob fails closed rather than reaching UB.
//
// Format stability: the encoding is explicitly little-endian (serialised
// through shift-based byte stores, so any host can read or write it) and
// carries a format version plus an endianness tag. It is independent of
// compiler, struct padding and standard-library layout: CI round-trips a
// gcc-written blob through a clang reader and vice versa. See DESIGN.md
// "Zero-copy image views" for the layout and evolution rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_buffer.h"
#include "core/policy_image.h"
#include "core/wire_format.h"

namespace psme::core {

/// Rejection of a malformed, truncated, tampered or incompatible blob.
/// The message names the failed check (magic, version, checksum,
/// fingerprint, a specific structural bound) — OTA tooling logs it.
/// Derives from PolicyWireError (core/wire_format.h) so the blob and
/// delta formats share one catchable error taxonomy at the OTA boundary.
class PolicyBlobError : public PolicyWireError {
 public:
  using PolicyWireError::PolicyWireError;
};

/// The on-wire format version (the zero-copy layout). Bump on any
/// layout change; readers reject every version they do not speak (no
/// silent best-effort parsing at a trust boundary).
inline constexpr std::uint32_t kPolicyBlobFormatVersion = 2;

/// The 8 magic bytes every blob starts with ("PSMEPIMG").
inline constexpr std::size_t kPolicyBlobMagicSize = 8;
[[nodiscard]] std::span<const std::byte, kPolicyBlobMagicSize>
policy_blob_magic() noexcept;

/// How much the loader may assume about a blob's provenance.
enum class BlobTrust {
  /// The OTA default: the blob crossed a trust boundary. Full one-pass
  /// validation — checksum, bounds, semantic SID-slot and index
  /// re-validation, fingerprint cross-check — before a single decision.
  kUntrusted,
  /// The blob sits in this device's local store and passed kUntrusted
  /// validation when it was staged. O(1) structural checks (header
  /// equations, alignment, section packing) only; content checks are
  /// skipped, which is what makes boot flat in policy size. Never use
  /// for bytes that crossed a trust boundary since staging.
  kSealedStore,
};

/// Header fields surfaced without a full load (OTA tooling: log what
/// arrived before deciding to stage it). probe() validates the fixed
/// header — magic, version, endianness, size, payload checksum — but not
/// the payload structure; only load() proves a blob usable.
struct PolicyBlobInfo {
  std::uint32_t format_version = 0;
  std::uint64_t fingerprint = 0;      // the sealed image's fingerprint()
  std::uint64_t image_version = 0;    // PolicySet/image version stamp
  std::uint32_t sid_count = 0;        // interned names carried
  std::uint32_t entry_count = 0;      // packed rules carried
  std::uint64_t total_size = 0;       // whole blob, header included
};

/// One payload section of a blob, for layout introspection (the
/// `info` subcommand of examples/policy_blob_io.cpp; nothing on the
/// boot path uses this).
struct PolicyBlobSection {
  const char* name = "";
  std::size_t offset = 0;  // bytes from blob start; always 8-aligned
  std::size_t size = 0;    // unpadded section bytes
};

/// The derived section table (header + every payload section, in file
/// order). Throws PolicyBlobError unless `blob` has a valid header.
[[nodiscard]] std::vector<PolicyBlobSection> policy_blob_layout(
    std::span<const std::byte> blob);

/// Serialises a sealed CompiledPolicyImage together with its backing
/// SidTable. The writer runs at the OEM (or in a provisioning tool) —
/// never on the vehicle's hot path.
class PolicyBlobWriter {
 public:
  /// The zero-copy-layout blob for `image`: header + 8-aligned
  /// payload sections, checksummed and carrying image.fingerprint(). The
  /// ENTIRE backing SidTable is serialised (names in SID order plus the
  /// probe-slot array), so identities interned beyond the policy's own
  /// names — fleet workload labels, say — survive the round trip with
  /// their SIDs intact, and a reader can attach the interner without
  /// rebuilding it.
  [[nodiscard]] static std::vector<std::byte> write(
      const CompiledPolicyImage& image);

  /// write() to a file. Throws PolicyBlobError when the file cannot be
  /// created or fully written.
  static void write_file(const CompiledPolicyImage& image,
                         const std::string& path);
};

/// Validates and loads a blob back into a sealed CompiledPolicyImage.
class PolicyBlobReader {
 public:
  /// The blob's header gate: the shared wire prefix (payload checksum
  /// included), every header field and the section-packing equation,
  /// O(1) in policy size apart from the checksum. Returns the first
  /// failed check — the same message and recovery class load() and
  /// probe() would throw — or nothing when the header holds. Never
  /// throws, so an OTA caller refuses damaged bytes without a C++ throw;
  /// bytes that pass still need load(), which runs this gate first and
  /// then validates the payload.
  [[nodiscard]] static std::optional<WireRejection> check(
      std::span<const std::byte> blob) noexcept;

  /// Header-only inspection; throws PolicyBlobError on a blob whose
  /// fixed header fails check() (see PolicyBlobInfo).
  [[nodiscard]] static PolicyBlobInfo probe(std::span<const std::byte> blob);

  /// Full validated load from a non-owning span: the blob is copied ONCE
  /// into a fresh PolicyBuffer and then borrowed (callers who already
  /// own a buffer should use the PolicyBuffer overload — no copy at
  /// all). The image gets its own SidTable, attached zero-copy over the
  /// blob's carried names: a blob always loads into its own SID space.
  /// Throws PolicyBlobError on any validation failure; on success the
  /// returned image is sealed and decision-for-decision identical to the
  /// image the blob was written from (fingerprint cross-checked).
  [[nodiscard]] static CompiledPolicyImage load(
      std::span<const std::byte> blob);

  /// Zero-copy load: the returned image (and its attached SidTable)
  /// view `buffer`'s bytes in place, holding the shared_ptr so the
  /// buffer outlives every borrower. `trust` selects the validation
  /// depth (see BlobTrust; default full).
  [[nodiscard]] static CompiledPolicyImage load(
      std::shared_ptr<const PolicyBuffer> buffer,
      BlobTrust trust = BlobTrust::kUntrusted);

  /// load() from a file, mmap-backed where the platform allows (plain
  /// read() fallback otherwise — core/policy_buffer.h). Throws
  /// PolicyBlobError when the file cannot be read.
  [[nodiscard]] static CompiledPolicyImage load_file(
      const std::string& path, BlobTrust trust = BlobTrust::kUntrusted);

 private:
  /// Semantic re-validation of a bound (owned or borrowed) image's
  /// sealed index against its entries (the untrusted pass).
  static void validate_index(const CompiledPolicyImage& image,
                             std::uint32_t entry_count);
};

}  // namespace psme::core
