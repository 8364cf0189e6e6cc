// psme::core — shared wire-format primitives for the persistent policy
// channel.
//
// Two binary formats cross the OTA trust boundary: the full policy image
// blob (core/policy_blob.h) and the fingerprint-anchored policy delta
// (core/policy_delta.h). Both begin with the same 32-byte validated
// prefix — magic, format version, endianness tag, total size, payload
// checksum — and both parse their payload through the same bounds-checked
// cursor discipline: every length and count coming off the wire is
// validated against the remaining bytes BEFORE any access or allocation.
// This header is the ONE definition of that machinery, so the two
// formats' encodings and error taxonomies can never drift apart: a
// truncated blob and a truncated delta fail the same check with the same
// message shape, differing only in their domain prefix and error class.
//
// Error taxonomy: every wire rejection derives from PolicyWireError.
// PolicyBlobError and PolicyDeltaError specialise it so OTA tooling can
// tell WHICH artefact failed while a single catch handles the boundary.
//
// Header gates: the checks a format makes before it parses its payload
// (this prefix, then each format's own header fields) are one noexcept
// function per format that returns the first failed check as a
// WireRejection. The throwing readers run that gate first and throw its
// rejection; an OTA caller that only needs the recovery class asks the
// gate and refuses damaged bytes without a C++ throw.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mac/sid_table.h"

namespace psme::core {

/// Coarse classification of a wire rejection, carried alongside the
/// message so the OTA campaign layer can tell recovery paths apart
/// WITHOUT parsing error text: a kAnchorMismatch delta wants a re-plan
/// (the vehicle is not on the base the server assumed), a
/// kFingerprintMismatch wants a re-download or a full-blob fallback,
/// and kMalformed covers every structural defect (truncation, bad
/// counts, checksum, foreign byte order) — retry the transfer.
enum class WireFault : std::uint8_t {
  kMalformed,            // structural: truncated, corrupted, bad counts
  kAnchorMismatch,       // artefact is anchored to a different base image
  kFingerprintMismatch,  // content does not match the recorded manifest
};

/// Base class of every persistent-format rejection (malformed, truncated,
/// tampered or incompatible byte streams). The message names the failed
/// check — OTA tooling logs it; nothing malformed ever reaches UB.
class PolicyWireError : public std::runtime_error {
 public:
  explicit PolicyWireError(const std::string& what,
                           WireFault fault = WireFault::kMalformed)
      : std::runtime_error(what), fault_(fault) {}

  /// Which recovery class this rejection belongs to (see WireFault).
  [[nodiscard]] WireFault fault() const noexcept { return fault_; }

 private:
  WireFault fault_ = WireFault::kMalformed;
};

/// The first check a header gate found failed: its recovery class and
/// its message, kept in pieces so a caller that only needs the class
/// never builds a string. message() renders exactly what the throwing
/// reader throws: "<domain>: ", then the three text pieces, with the two
/// quoted numbers between them for the checks that quote numbers. Every
/// piece views static text (string literals and the formats' domain
/// constants), so a rejection may outlive the bytes it judged.
struct WireRejection {
  WireFault fault = WireFault::kMalformed;
  std::string_view domain;
  std::array<std::string_view, 3> text{};
  bool quotes_numbers = false;
  std::array<std::uint64_t, 2> numbers{};

  [[nodiscard]] std::string message() const {
    std::string out(domain);
    out += ": ";
    out += text[0];
    if (quotes_numbers) out += std::to_string(numbers[0]);
    out += text[1];
    if (quotes_numbers) out += std::to_string(numbers[1]);
    out += text[2];
    return out;
  }
};

namespace wire {

/// A failed check whose message is one fixed text.
[[nodiscard]] constexpr WireRejection failed(
    std::string_view domain, std::string_view what,
    WireFault fault = WireFault::kMalformed) noexcept {
  return {fault, domain, {what, {}, {}}, false, {}};
}

/// A failed check whose message quotes two numbers:
/// `before` `first` `between` `second` `after`.
[[nodiscard]] constexpr WireRejection failed(
    std::string_view domain, std::string_view before, std::uint64_t first,
    std::string_view between, std::uint64_t second,
    std::string_view after) noexcept {
  return {WireFault::kMalformed, domain, {before, between, after}, true,
          {first, second}};
}

/// The endianness canary both formats embed: serialised little-endian, so
/// a reader on any host sees exactly this value or the stream is foreign.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

/// Shared 32-byte header prefix layout (byte offsets from stream start).
inline constexpr std::size_t kOffMagic = 0;
inline constexpr std::size_t kMagicSize = 8;
inline constexpr std::size_t kOffFormatVersion = 8;
inline constexpr std::size_t kOffEndianTag = 12;
inline constexpr std::size_t kOffTotalSize = 16;
inline constexpr std::size_t kOffPayloadHash = 24;

/// Rounds up to the next 8-byte boundary. The blob lays every payload
/// section on an 8-byte boundary (zero-padded) so the zero-copy loader
/// can view u64-bearing sections in place — see DESIGN.md "Zero-copy
/// image views".
[[nodiscard]] constexpr std::size_t align8(std::size_t n) noexcept {
  return (n + 7) & ~std::size_t{7};
}

// ---------------------------------------------------------------- encode

inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(std::byte(static_cast<unsigned char>(v >> (i * 8))));
  }
}

inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(std::byte(static_cast<unsigned char>(v >> (i * 8))));
  }
}

inline void put_str(std::vector<std::byte>& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (const char ch : s) {
    out.push_back(std::byte(static_cast<unsigned char>(ch)));
  }
}

inline void store_u32(std::byte* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = std::byte(static_cast<unsigned char>(v >> (i * 8)));
  }
}

inline void store_u64(std::byte* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    at[i] = std::byte(static_cast<unsigned char>(v >> (i * 8)));
  }
}

// ---------------------------------------------------------------- decode

[[nodiscard]] inline std::uint32_t load_u32(const std::byte* at) noexcept {
  return mac::load_le_u32(at);
}

[[nodiscard]] inline std::uint64_t load_u64(const std::byte* at) noexcept {
  return mac::load_le_u64(at);
}

/// Payload checksum: the repo's bulk hash (mac::hash_chain_bytes) over
/// the raw payload. Word-at-a-time instead of the byte-wise FNV because
/// this runs on the boot/OTA hot path over the whole payload, and
/// corruption detection (not collision resistance) is all the field
/// promises. The keyed PolicySigner remains the integrity tag; this is
/// the transport canary.
[[nodiscard]] inline std::uint64_t hash_payload(
    std::span<const std::byte> bytes) noexcept {
  if (bytes.empty()) return mac::hash_chain_u64(0, mac::kFnv1aOffset);
  return mac::hash_chain_bytes(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()),
      mac::kFnv1aOffset);
}

/// Throws the format's error class with its domain prefix ("policy
/// blob: ..." / "policy delta: ..."). `fault` classifies the rejection
/// for the campaign layer; almost every site is structural (the
/// default) — only the anchor and fingerprint gates say otherwise.
template <class Error>
[[noreturn]] inline void reject(std::string_view domain,
                                const std::string& what,
                                WireFault fault = WireFault::kMalformed) {
  throw Error(std::string(domain) + ": " + what, fault);
}

/// Throws a header gate's rejection in the format's error class, with
/// the message and recovery class the gate recorded.
template <class Error>
[[noreturn]] inline void reject(const WireRejection& rejection) {
  throw Error(rejection.message(), rejection.fault);
}

/// The shared prefix's header gate: everything the 32-byte prefix can
/// prove on its own — minimum length, magic, format version, endianness
/// tag, exact total size, payload checksum (payload = everything past
/// `header_size`), in that order — returning the first check that
/// fails. Each format's gate runs it first and then checks its
/// remaining header fields. `verify_payload_hash = false` skips the
/// O(payload) checksum — ONLY for the sealed-store trust level of the
/// zero-copy blob loader, where the bytes were validated when staged and
/// the whole point is an O(1) attach (core/policy_blob.h BlobTrust).
[[nodiscard]] inline std::optional<WireRejection> check_prefix(
    std::span<const std::byte> stream,
    std::span<const std::byte, kMagicSize> magic,
    std::uint32_t format_version, std::size_t header_size,
    std::string_view domain, bool verify_payload_hash = true) noexcept {
  if (stream.size() < header_size) {
    return failed(domain, "truncated (smaller than the fixed header)");
  }
  if (std::memcmp(stream.data() + kOffMagic, magic.data(), magic.size()) !=
      0) {
    return WireRejection{
        WireFault::kMalformed, domain, {"bad magic (not a ", domain, ")"}};
  }
  const std::uint32_t version = load_u32(stream.data() + kOffFormatVersion);
  if (version != format_version) {
    return failed(domain, "unsupported format version ", version,
                  " (reader speaks version ", format_version, ")");
  }
  if (load_u32(stream.data() + kOffEndianTag) != kEndianTag) {
    return failed(domain,
                  "endianness tag mismatch (corrupt or foreign byte order)");
  }
  const std::uint64_t total_size = load_u64(stream.data() + kOffTotalSize);
  if (total_size != stream.size()) {
    return failed(domain, "size mismatch (header claims ", total_size,
                  " bytes, got ", stream.size(), " — truncated?)");
  }
  if (verify_payload_hash) {
    const std::uint64_t payload_hash =
        load_u64(stream.data() + kOffPayloadHash);
    if (hash_payload(stream.subspan(header_size)) != payload_hash) {
      return failed(domain,
                    "payload checksum mismatch (corrupted in transit)");
    }
  }
  return std::nullopt;
}

/// Whole-file read into a byte buffer, failures reported in the
/// format's error class. Shared by both formats' *_file entry points
/// and the provisioning CLI — one place to fix I/O handling.
template <class Error>
[[nodiscard]] inline std::vector<std::byte> read_file(
    const std::string& path, std::string_view domain) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) reject<Error>(domain, "cannot open '" + path + "' for reading");
  const std::streamsize size = in.tellg();
  if (size < 0) reject<Error>(domain, "cannot size '" + path + "'");
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty()) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in) reject<Error>(domain, "short read from '" + path + "'");
  }
  return bytes;
}

/// Whole-buffer write to a file (truncating), failures reported in the
/// format's error class.
template <class Error>
inline void write_file(std::span<const std::byte> bytes,
                       const std::string& path, std::string_view domain) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) reject<Error>(domain, "cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) reject<Error>(domain, "short write to '" + path + "'");
}

/// Bounds-checked reader over a payload: every length and count coming
/// off the wire is validated against the remaining bytes BEFORE any
/// access, so a hostile stream can at worst earn a rejection in the
/// format's error class.
template <class Error>
class Cursor {
 public:
  Cursor(std::span<const std::byte> bytes, std::string_view domain)
      : bytes_(bytes), domain_(domain) {}

  [[nodiscard]] std::uint32_t u32() {
    need(4, "u32 field");
    const std::uint32_t v = load_u32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8, "u64 field");
    const std::uint64_t v = load_u64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::uint8_t u8() {
    need(1, "u8 field");
    return std::to_integer<std::uint8_t>(bytes_[pos_++]);
  }

  [[nodiscard]] std::string str() { return raw(u32()); }

  /// `len` bytes as a string — bounds-checked BEFORE any allocation, so
  /// a hostile length cannot trigger a multi-gigabyte zeroed buffer.
  [[nodiscard]] std::string raw(std::size_t len) {
    need(len, "string bytes");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  /// Bounds-checks and consumes `n` bytes, returning their start: the
  /// fixed-size record sections pay ONE check per block and decode with
  /// direct loads.
  [[nodiscard]] const std::byte* take(std::size_t n) {
    need(n, "fixed-size section");
    const std::byte* at = bytes_.data() + pos_;
    pos_ += n;
    return at;
  }

  /// A length-prefixed string as a VIEW into the stream (no copy; valid
  /// while the buffer lives). SID-replay loops hand these to intern(),
  /// which copies into its own arena — no temporary string.
  [[nodiscard]] std::string_view view() {
    const std::uint32_t len = u32();
    need(len, "string bytes");
    const std::string_view s(
        reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (bytes_.size() - pos_ < n) {
      reject<Error>(domain_, std::string("truncated payload (") + what +
                                 " overruns the stream)");
    }
  }

  std::span<const std::byte> bytes_;
  std::string_view domain_;
  std::size_t pos_ = 0;
};

}  // namespace wire
}  // namespace psme::core
