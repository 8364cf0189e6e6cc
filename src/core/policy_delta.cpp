#include "core/policy_delta.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

namespace psme::core {

namespace {

// ---------------------------------------------------------------- layout
//
// Shared 32-byte wire prefix (core/wire_format.h), then the delta
// anchors and counts, then the payload sections in order: target image
// name; carried SID-extension names (taking SIDs anchor+1.. in order);
// target mode table; the edit script. All multi-byte fields are
// little-endian through the shared primitives. DESIGN.md "Delta update
// format" is the normative description.

constexpr std::array<std::byte, kPolicyDeltaMagicSize> kMagic = {
    std::byte{'P'}, std::byte{'S'}, std::byte{'M'}, std::byte{'E'},
    std::byte{'P'}, std::byte{'D'}, std::byte{'L'}, std::byte{'T'}};

constexpr std::string_view kDomain = "policy delta";
constexpr std::size_t kHeaderSize = 108;

// Header field offsets (bytes from delta start; 0..31 = wire prefix).
constexpr std::size_t kOffBaseFingerprint = 32;
constexpr std::size_t kOffTargetFingerprint = 40;
constexpr std::size_t kOffSidTableHash = 48;
constexpr std::size_t kOffBaseVersion = 56;
constexpr std::size_t kOffTargetVersion = 64;
constexpr std::size_t kOffAnchorSids = 72;
constexpr std::size_t kOffNewSids = 76;
constexpr std::size_t kOffBaseEntries = 80;
constexpr std::size_t kOffTargetEntries = 84;
constexpr std::size_t kOffOpCount = 88;
constexpr std::size_t kOffModeCount = 92;
constexpr std::size_t kOffNameLen = 96;
constexpr std::size_t kOffWildcardSid = 100;
constexpr std::size_t kOffDefaultAllow = 104;  // u8; bytes 105..107 zero

/// Edit-script opcodes. copy/skip carry a u32 run length over the BASE
/// entry sequence; insert/patch carry one full entry record (patch also
/// consumes one base entry). One entry record on the wire: subject u32,
/// object u32, priority u32, mode_mask u64, permission u8, 3 reserved
/// bytes (24 bytes), then rule id and allow reason as length-prefixed
/// strings. Specificity and the meta index are derived on apply, never
/// shipped.
enum OpKind : std::uint8_t {
  kOpCopy = 0,
  kOpSkip = 1,
  kOpInsert = 2,
  kOpPatch = 3,
};

constexpr std::size_t kEntryRecordSize = 24;
/// Smallest possible op on the wire (copy/skip: kind + u32 count); used
/// to bound header counts against the payload BEFORE any allocation.
constexpr std::size_t kMinOpSize = 5;
/// Smallest insert/patch op (record + two empty strings) — bounds how
/// many entries a delta of a given size can introduce.
constexpr std::size_t kMinEmitOpSize = 1 + kEntryRecordSize + 4 + 4;

[[noreturn]] void reject(const std::string& what,
                         WireFault fault = WireFault::kMalformed) {
  wire::reject<PolicyDeltaError>(kDomain, what, fault);
}

[[nodiscard]] constexpr WireRejection failed(
    std::string_view what, WireFault fault = WireFault::kMalformed) noexcept {
  return wire::failed(kDomain, what, fault);
}

using wire::load_u32;
using wire::load_u64;
using wire::put_str;
using wire::put_u32;
using wire::put_u64;
using wire::store_u32;
using wire::store_u64;

using Cursor = wire::Cursor<PolicyDeltaError>;

/// Order-chained hash over names 1..count — pins the applied image's
/// SID-name assignment, which the image fingerprint (SID-space only)
/// cannot see. Without it, corrupting the name sections could yield an
/// accepted image whose resolve() maps strings to the wrong identities.
[[nodiscard]] std::uint64_t sid_space_hash(const mac::SidTable& sids,
                                           std::size_t count) {
  std::uint64_t hash = mac::kFnv1aOffset;
  for (mac::Sid sid = 1; sid <= count; ++sid) {
    hash = mac::hash_chain_bytes(sids.name_of(sid), hash);
  }
  return mac::hash_chain_u64(count, hash);
}

struct Header {
  std::uint64_t base_fingerprint = 0;
  std::uint64_t target_fingerprint = 0;
  std::uint64_t sid_table_hash = 0;
  std::uint64_t base_version = 0;
  std::uint64_t target_version = 0;
  std::uint32_t anchor_sids = 0;
  std::uint32_t new_sids = 0;
  std::uint32_t base_entries = 0;
  std::uint32_t target_entries = 0;
  std::uint32_t op_count = 0;
  std::uint32_t mode_count = 0;
  std::uint32_t name_len = 0;
  mac::Sid wildcard_sid = mac::kNullSid;
  bool default_allow = false;
};

/// The delta's header gate: the shared prefix (magic, version,
/// endianness, size, payload checksum — core/wire_format.h), then the
/// delta's own header fields, returning the first check that fails and
/// filling `h` as it reads.
[[nodiscard]] std::optional<WireRejection> check_header(
    std::span<const std::byte> delta, Header& h) noexcept {
  if (auto rejection = wire::check_prefix(delta, kMagic,
                                          kPolicyDeltaFormatVersion,
                                          kHeaderSize, kDomain)) {
    return rejection;
  }
  h.base_fingerprint = load_u64(delta.data() + kOffBaseFingerprint);
  h.target_fingerprint = load_u64(delta.data() + kOffTargetFingerprint);
  h.sid_table_hash = load_u64(delta.data() + kOffSidTableHash);
  h.base_version = load_u64(delta.data() + kOffBaseVersion);
  h.target_version = load_u64(delta.data() + kOffTargetVersion);
  h.anchor_sids = load_u32(delta.data() + kOffAnchorSids);
  h.new_sids = load_u32(delta.data() + kOffNewSids);
  h.base_entries = load_u32(delta.data() + kOffBaseEntries);
  h.target_entries = load_u32(delta.data() + kOffTargetEntries);
  h.op_count = load_u32(delta.data() + kOffOpCount);
  h.mode_count = load_u32(delta.data() + kOffModeCount);
  h.name_len = load_u32(delta.data() + kOffNameLen);
  h.wildcard_sid = load_u32(delta.data() + kOffWildcardSid);
  const std::uint8_t allow =
      std::to_integer<std::uint8_t>(delta[kOffDefaultAllow]);
  if (allow > 1) return failed("default-allow flag is neither 0 nor 1");
  h.default_allow = allow == 1;
  // Reserved header bytes must be zero: with every other header byte
  // validated (the anchors against the base image, the rest against the
  // reconstruction) and the payload checksummed, this closes the last
  // gap — ANY single corrupted delta byte is rejected (test-pinned).
  for (std::size_t i = 1; i < 4; ++i) {
    if (delta[kOffDefaultAllow + i] != std::byte{0}) {
      return failed("reserved header bytes not zero");
    }
  }
  return std::nullopt;
}

// ----------------------------------------------------------- edit script

/// One merged edit-script operation, writer-side. `index` is the first
/// target-entry index for insert/patch runs (copy/skip need none).
struct Op {
  OpKind kind = kOpCopy;
  std::uint32_t count = 0;  // run length for copy/skip; 1 for insert/patch
  std::uint32_t index = 0;  // target entry serialised by insert/patch
};

/// Emits a divergence region (s base entries dropped, the target entries
/// in `inserts` added) as min(s, |inserts|) patches followed by the
/// leftover skips or inserts — patch is 5 bytes cheaper than skip+insert
/// and gives release tooling an honest "changed" count.
void flush_region(std::vector<Op>& ops, std::uint32_t& skips,
                  std::vector<std::uint32_t>& inserts,
                  PolicyDeltaStats& stats) {
  std::size_t patched = 0;
  while (skips > 0 && patched < inserts.size()) {
    ops.push_back({kOpPatch, 1, inserts[patched]});
    ++patched;
    --skips;
    ++stats.changed;
  }
  if (skips > 0) {
    ops.push_back({kOpSkip, skips, 0});
    stats.removed += skips;
    skips = 0;
  }
  for (std::size_t k = patched; k < inserts.size(); ++k) {
    ops.push_back({kOpInsert, 1, inserts[k]});
    ++stats.added;
  }
  inserts.clear();
}

void push_copy(std::vector<Op>& ops, std::uint32_t count,
               PolicyDeltaStats& stats) {
  if (count == 0) return;
  if (!ops.empty() && ops.back().kind == kOpCopy) {
    ops.back().count += count;
  } else {
    ops.push_back({kOpCopy, count, 0});
  }
  stats.copied += count;
}

/// The edit script from a base entry sequence of length `n` to a target
/// sequence of length `m`, with `same(i, j)` deciding record equality:
/// common prefix and suffix are trimmed first (policy updates are
/// overwhelmingly local), then the divergent middle runs an exact LCS so
/// the delta reuses every entry it can. Policies are at most a few
/// thousand rules; should two pathological middles ever exceed the DP
/// budget, the script degrades to replace-the-middle — bigger delta,
/// identical result.
template <class Same>
[[nodiscard]] std::vector<Op> diff_entries(std::uint32_t n, std::uint32_t m,
                                           const Same& same,
                                           PolicyDeltaStats& stats) {
  std::uint32_t prefix = 0;
  while (prefix < n && prefix < m && same(prefix, prefix)) {
    ++prefix;
  }
  std::uint32_t suffix = 0;
  while (suffix < n - prefix && suffix < m - prefix &&
         same(n - 1 - suffix, m - 1 - suffix)) {
    ++suffix;
  }
  const std::uint32_t bn = n - prefix - suffix;  // divergent middle, base
  const std::uint32_t tm = m - prefix - suffix;  // divergent middle, target

  std::vector<Op> ops;
  push_copy(ops, prefix, stats);

  std::uint32_t skips = 0;
  std::vector<std::uint32_t> inserts;
  constexpr std::uint64_t kDpBudget = 16u * 1024u * 1024u;
  if (std::uint64_t{bn} * std::uint64_t{tm} <= kDpBudget) {
    // dp[i][j] = LCS length of base middle [i..) vs target middle [j..).
    std::vector<std::uint32_t> dp((bn + 1) * std::size_t{tm + 1}, 0);
    const auto at = [&](std::uint32_t i, std::uint32_t j) -> std::uint32_t& {
      return dp[std::size_t{i} * (tm + 1) + j];
    };
    for (std::uint32_t i = bn; i-- > 0;) {
      for (std::uint32_t j = tm; j-- > 0;) {
        at(i, j) = same(prefix + i, prefix + j)
                       ? at(i + 1, j + 1) + 1
                       : std::max(at(i + 1, j), at(i, j + 1));
      }
    }
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    while (i < bn || j < tm) {
      if (i < bn && j < tm && same(prefix + i, prefix + j) &&
          at(i, j) == at(i + 1, j + 1) + 1) {
        flush_region(ops, skips, inserts, stats);
        push_copy(ops, 1, stats);
        ++i;
        ++j;
      } else if (i < bn && (j == tm || at(i + 1, j) >= at(i, j + 1))) {
        ++skips;
        ++i;
      } else {
        inserts.push_back(prefix + j);
        ++j;
      }
    }
  } else {
    skips = bn;
    for (std::uint32_t j = 0; j < tm; ++j) inserts.push_back(prefix + j);
  }
  flush_region(ops, skips, inserts, stats);
  push_copy(ops, suffix, stats);
  return ops;
}

}  // namespace

/// The privileged helpers both PolicyDeltaWriter and PolicyDeltaReader
/// share (befriended by CompiledPolicyImage alongside them).
struct PolicyDeltaDetail {
  /// The highest SID the base image actually references (wildcard, entry
  /// subjects/objects, mode table) — the delta's SID anchor. Derivable
  /// on BOTH sides, so apply() recomputes it and rejects a delta whose
  /// header disagrees: a flipped anchor byte can never silently re-seat
  /// the carried name extension. Names at SIDs 1..anchor come from the
  /// base (any vehicle table holding the base image has them, however
  /// much it grew at runtime); names beyond ride in the delta.
  [[nodiscard]] static mac::Sid max_referenced_sid(
      const CompiledPolicyImage& image) noexcept {
    mac::Sid max_sid = image.wildcard_sid_;
    for (const CompiledPolicyImage::Entry& entry : image.entries_) {
      max_sid = std::max({max_sid, entry.subject, entry.object});
    }
    for (const mac::Sid mode : image.mode_sids_) {
      max_sid = std::max(max_sid, mode);
    }
    return max_sid;
  }

  /// True when base entry `i` and target entry `j` are the same packed
  /// rule, audit strings included — the unit of reuse: a copied entry
  /// must be indistinguishable from a re-compiled one.
  [[nodiscard]] static bool same_record(const CompiledPolicyImage& base,
                                        std::uint32_t i,
                                        const CompiledPolicyImage& target,
                                        std::uint32_t j) {
    const CompiledPolicyImage::Entry& a = base.entries_[i];
    const CompiledPolicyImage::Entry& b = target.entries_[j];
    return a.subject == b.subject && a.object == b.object &&
           a.permission == b.permission && a.priority == b.priority &&
           a.mode_mask == b.mode_mask &&
           base.meta_id_view(a.meta) == target.meta_id_view(b.meta) &&
           base.meta_reason_view(a.meta) == target.meta_reason_view(b.meta);
  }
};

namespace {

/// The delta's whole gate against the base it is offered to:
/// check_header(), then the anchor checks (this delta must be FOR this
/// base image) and the structural quick checks apply() makes before it
/// allocates, returning the first check that fails.
[[nodiscard]] std::optional<WireRejection> check_applicable(
    const CompiledPolicyImage& base, std::span<const std::byte> delta,
    Header& h) noexcept {
  if (auto rejection = check_header(delta, h)) return rejection;

  // -- the anchor: this delta must be FOR this base image ----------------
  if (h.base_fingerprint != base.fingerprint()) {
    return failed("base fingerprint mismatch (delta is anchored to a "
                  "different base image)",
                  WireFault::kAnchorMismatch);
  }
  if (h.base_version != base.version()) {
    return wire::failed(kDomain, "base version mismatch (delta expects base v",
                        h.base_version, ", image is v", base.version(), ")");
  }
  if (h.base_entries != base.size()) {
    return failed("base entry count mismatch");
  }
  // The anchor is derivable from the base on both sides; a header that
  // disagrees is corrupt (and could otherwise re-seat the carried name
  // extension onto the wrong SIDs — which the fingerprint, hashing SIDs
  // but not names, would never notice).
  // (Equality also bounds the anchor: every referenced SID is interned,
  // so anchor <= base.sids().size() by construction.)
  if (h.anchor_sids != PolicyDeltaDetail::max_referenced_sid(base)) {
    return failed(
        "SID anchor does not match the base image's referenced range",
        WireFault::kAnchorMismatch);
  }

  // -- structural quick checks, all BEFORE any allocation ----------------
  if (h.mode_count > kMaxImageModes) {
    return failed("mode table larger than the 64-bit mask allows");
  }
  if (std::uint64_t{h.anchor_sids} + std::uint64_t{h.new_sids} >
      mac::kMaxTypeSid) {
    return failed("SID extension overflows the interner's SID range");
  }
  // Every count must be payable in payload bytes: a crafted header must
  // earn a rejection, not a multi-gigabyte reservation (memory-exhaustion
  // DoS on the OTA path).
  const std::size_t payload_size = delta.size() - kHeaderSize;
  if (h.name_len > payload_size || h.new_sids > payload_size / 4 ||
      h.mode_count > payload_size / 4 || h.op_count > payload_size / kMinOpSize ||
      h.target_entries >
          h.base_entries + payload_size / kMinEmitOpSize) {
    return failed("section counts exceed the delta's own size");
  }
  return std::nullopt;
}

}  // namespace

std::span<const std::byte, kPolicyDeltaMagicSize>
policy_delta_magic() noexcept {
  return kMagic;
}

std::shared_ptr<mac::SidTable> replicate_sid_prefix(const mac::SidTable& sids,
                                                    std::size_t count) {
  auto replica = std::make_shared<mac::SidTable>();
  replica->reserve(count);
  for (mac::Sid sid = 1; sid <= count; ++sid) {
    (void)replica->intern(sids.name_of(sid));
  }
  return replica;
}

// ------------------------------------------------------------------ writer

std::vector<std::byte> PolicyDeltaWriter::write(
    const CompiledPolicyImage& base, const CompiledPolicyImage& target,
    PolicyDeltaStats* stats) {
  const mac::SidTable& base_sids = base.sids();
  const mac::SidTable& target_sids = target.sids();
  const mac::Sid anchor = PolicyDeltaDetail::max_referenced_sid(base);
  if (target_sids.size() < anchor) {
    reject("target SID space is smaller than the base image's referenced "
           "range — not a prefix-compatible extension");
  }
  for (mac::Sid sid = 1; sid <= anchor; ++sid) {
    if (base_sids.name_of(sid) != target_sids.name_of(sid)) {
      reject("target SID space is not a prefix-compatible extension of the "
             "base (SID " + std::to_string(sid) + " names '" +
             std::string(target_sids.name_of(sid)) + "', base has '" +
             std::string(base_sids.name_of(sid)) +
             "') — compile the target against replicate_sid_prefix(base)");
    }
  }
  const std::uint32_t total_sids =
      static_cast<std::uint32_t>(target_sids.size());
  const std::uint32_t new_sids = total_sids - anchor;

  PolicyDeltaStats script_stats;
  const auto same = [&](std::uint32_t i, std::uint32_t j) {
    return PolicyDeltaDetail::same_record(base, i, target, j);
  };
  const std::vector<Op> ops = diff_entries(
      static_cast<std::uint32_t>(base.entries_.size()),
      static_cast<std::uint32_t>(target.entries_.size()), same, script_stats);
  if (stats != nullptr) *stats = script_stats;

  std::vector<std::byte> payload;
  payload.reserve(256 + std::size_t{new_sids} * 24 +
                  (std::size_t{script_stats.added} + script_stats.changed) *
                      128);

  for (const char ch : target.name_) {
    payload.push_back(std::byte(static_cast<unsigned char>(ch)));
  }
  // The SID extension: every target name beyond the anchor, in SID
  // order — apply() replays them after the base's anchored prefix and
  // demands the sequential SIDs back.
  for (mac::Sid sid = anchor + 1; sid <= total_sids; ++sid) {
    put_str(payload, target_sids.name_of(sid));
  }
  // The FULL target mode table (mask bit positions are table positions,
  // so a partial edit could silently re-aim every copied entry's mask;
  // at <= 64 u32s this section costs less than one rule).
  for (const mac::Sid mode : target.mode_sids_) put_u32(payload, mode);

  for (const Op& op : ops) {
    payload.push_back(std::byte{op.kind});
    if (op.kind == kOpCopy || op.kind == kOpSkip) {
      put_u32(payload, op.count);
      continue;
    }
    const CompiledPolicyImage::Entry& entry = target.entries_[op.index];
    put_u32(payload, entry.subject);
    put_u32(payload, entry.object);
    put_u32(payload, static_cast<std::uint32_t>(entry.priority));
    put_u64(payload, entry.mode_mask);
    payload.push_back(std::byte(static_cast<unsigned char>(entry.permission)));
    payload.push_back(std::byte{0});  // reserved
    payload.push_back(std::byte{0});
    payload.push_back(std::byte{0});
    put_str(payload, target.meta_id_view(entry.meta));
    put_str(payload, target.meta_reason_view(entry.meta));
  }

  std::vector<std::byte> delta(kHeaderSize);
  std::memcpy(delta.data() + wire::kOffMagic, kMagic.data(), kMagic.size());
  store_u32(delta.data() + wire::kOffFormatVersion,
            kPolicyDeltaFormatVersion);
  store_u32(delta.data() + wire::kOffEndianTag, wire::kEndianTag);
  store_u64(delta.data() + wire::kOffTotalSize, kHeaderSize + payload.size());
  store_u64(delta.data() + wire::kOffPayloadHash,
            wire::hash_payload(payload));
  store_u64(delta.data() + kOffBaseFingerprint, base.fingerprint());
  store_u64(delta.data() + kOffTargetFingerprint, target.fingerprint());
  store_u64(delta.data() + kOffSidTableHash,
            sid_space_hash(target_sids, total_sids));
  store_u64(delta.data() + kOffBaseVersion, base.version_);
  store_u64(delta.data() + kOffTargetVersion, target.version_);
  store_u32(delta.data() + kOffAnchorSids, anchor);
  store_u32(delta.data() + kOffNewSids, new_sids);
  store_u32(delta.data() + kOffBaseEntries,
            static_cast<std::uint32_t>(base.entries_.size()));
  store_u32(delta.data() + kOffTargetEntries,
            static_cast<std::uint32_t>(target.entries_.size()));
  store_u32(delta.data() + kOffOpCount,
            static_cast<std::uint32_t>(ops.size()));
  store_u32(delta.data() + kOffModeCount,
            static_cast<std::uint32_t>(target.mode_sids_.size()));
  store_u32(delta.data() + kOffNameLen,
            static_cast<std::uint32_t>(target.name_.size()));
  store_u32(delta.data() + kOffWildcardSid, target.wildcard_sid_);
  delta[kOffDefaultAllow] = std::byte(target.default_allow_ ? 1 : 0);
  delta[kOffDefaultAllow + 1] = std::byte{0};
  delta[kOffDefaultAllow + 2] = std::byte{0};
  delta[kOffDefaultAllow + 3] = std::byte{0};

  delta.insert(delta.end(), payload.begin(), payload.end());
  return delta;
}

void PolicyDeltaWriter::write_file(const CompiledPolicyImage& base,
                                   const CompiledPolicyImage& target,
                                   const std::string& path,
                                   PolicyDeltaStats* stats) {
  wire::write_file<PolicyDeltaError>(write(base, target, stats), path,
                                     kDomain);
}

// ------------------------------------------------------------------ reader

std::optional<WireRejection> PolicyDeltaReader::check(
    const CompiledPolicyImage& base,
    std::span<const std::byte> delta) noexcept {
  Header h;
  return check_applicable(base, delta, h);
}

PolicyDeltaInfo PolicyDeltaReader::probe(std::span<const std::byte> delta) {
  Header h;
  if (const auto rejection = check_header(delta, h)) {
    wire::reject<PolicyDeltaError>(*rejection);
  }
  PolicyDeltaInfo info;
  info.format_version = kPolicyDeltaFormatVersion;
  info.base_fingerprint = h.base_fingerprint;
  info.target_fingerprint = h.target_fingerprint;
  info.base_version = h.base_version;
  info.target_version = h.target_version;
  info.base_entry_count = h.base_entries;
  info.target_entry_count = h.target_entries;
  info.op_count = h.op_count;
  info.new_sid_count = h.new_sids;
  info.total_size = delta.size();
  return info;
}

CompiledPolicyImage PolicyDeltaReader::apply(const CompiledPolicyImage& base,
                                             std::span<const std::byte> delta) {
  Header h;
  if (const auto rejection = check_applicable(base, delta, h)) {
    wire::reject<PolicyDeltaError>(*rejection);
  }
  const std::uint64_t total_sids =
      std::uint64_t{h.anchor_sids} + std::uint64_t{h.new_sids};

  Cursor cursor(delta.subspan(kHeaderSize), kDomain);

  CompiledPolicyImage image;
  image.name_ = cursor.raw(h.name_len);
  image.version_ = h.target_version;
  image.default_allow_ = h.default_allow;

  // -- SID space: the base's anchored prefix + the carried extension ----
  // A FRESH table (the base image and its possibly runtime-grown interner
  // are never touched): replicate names 1..anchor out of the base, then
  // intern each carried name and demand the sequential SID back — a
  // carried name that collides with the prefix (or repeats) cannot land
  // where the packed entries expect it and is rejected.
  image.sids_ = replicate_sid_prefix(base.sids(), h.anchor_sids);
  image.sids_->reserve(static_cast<std::size_t>(total_sids));
  for (std::uint32_t i = 0; i < h.new_sids; ++i) {
    const std::string_view name = cursor.view();
    const mac::Sid sid = image.sids_->intern(name);
    if (sid != h.anchor_sids + i + 1) {
      reject("SID extension mismatch: '" + std::string(name) +
             "' interned to " + std::to_string(sid) + ", delta carries " +
             std::to_string(h.anchor_sids + i + 1));
    }
  }
  // The extension hash pins the WHOLE reconstructed name assignment
  // (prefix included) — resolve() on the applied image maps exactly the
  // strings the OEM's target table mapped, or the delta is rejected.
  if (sid_space_hash(*image.sids_, image.sids_->size()) != h.sid_table_hash) {
    reject("SID table hash mismatch (name assignment does not match the "
           "writer's)");
  }
  if (h.wildcard_sid == mac::kNullSid || h.wildcard_sid > total_sids ||
      image.sids_->name_of(h.wildcard_sid) != "*") {
    reject("wildcard SID does not name '*'");
  }
  image.wildcard_sid_ = h.wildcard_sid;

  // -- target mode table -------------------------------------------------
  image.mode_store_.reserve(h.mode_count);
  for (std::uint32_t i = 0; i < h.mode_count; ++i) {
    const mac::Sid mode = cursor.u32();
    if (mode == mac::kNullSid || mode > total_sids) {
      reject("mode SID outside the reconstructed table");
    }
    for (const mac::Sid seen : image.mode_store_) {
      if (seen == mode) reject("duplicate mode SID in the mode table");
    }
    image.mode_store_.push_back(mode);
  }

  // -- the edit script ---------------------------------------------------
  image.entries_store_.reserve(h.target_entries);
  image.metas_.reserve(h.target_entries);
  std::uint32_t base_pos = 0;

  const auto emit = [&](CompiledPolicyImage::Entry entry, std::string id,
                        std::string reason) {
    if (image.entries_store_.size() >= h.target_entries) {
      reject("edit script emits more entries than the header declares");
    }
    if ((entry.subject - 1) >= total_sids || (entry.object - 1) >= total_sids) {
      reject("entry SID outside the reconstructed table");
    }
    if (static_cast<std::uint8_t>(entry.permission) >
        static_cast<std::uint8_t>(threat::Permission::kReadWrite)) {
      reject("entry permission byte out of range");
    }
    if (h.mode_count < 64 && (entry.mode_mask >> h.mode_count) != 0) {
      reject("entry mode mask names bits beyond the mode table");
    }
    entry.specificity = static_cast<std::uint8_t>(
        (entry.subject != image.wildcard_sid_ ? 1 : 0) +
        (entry.object != image.wildcard_sid_ ? 1 : 0));
    entry.meta = static_cast<std::uint32_t>(image.metas_.size());
    CompiledPolicyImage::emplace_meta(image.metas_, std::move(id),
                                      entry.permission, std::move(reason));
    image.index_build_[CompiledPolicyImage::pair_key(entry.subject,
                                                     entry.object)]
        .push_back(static_cast<std::uint32_t>(image.entries_store_.size()));
    image.entries_store_.push_back(entry);
  };

  const auto read_record = [&](CompiledPolicyImage::Entry& entry) {
    const std::byte* at = cursor.take(kEntryRecordSize);
    entry.subject = load_u32(at);
    entry.object = load_u32(at + 4);
    entry.priority = static_cast<std::int32_t>(load_u32(at + 8));
    entry.mode_mask = load_u64(at + 12);
    entry.permission =
        static_cast<threat::Permission>(std::to_integer<std::uint8_t>(at[20]));
    if (at[21] != std::byte{0} || at[22] != std::byte{0} ||
        at[23] != std::byte{0}) {
      reject("reserved entry-record bytes not zero");
    }
  };

  for (std::uint32_t op = 0; op < h.op_count; ++op) {
    const std::uint8_t kind = cursor.u8();
    switch (kind) {
      case kOpCopy: {
        const std::uint32_t count = cursor.u32();
        if (count == 0) reject("zero-length copy op");
        if (count > h.base_entries - base_pos) {
          reject("copy op overruns the base entry sequence");
        }
        for (std::uint32_t c = 0; c < count; ++c, ++base_pos) {
          const CompiledPolicyImage::Entry& from = base.entries_[base_pos];
          // View accessors, not Meta: copying from a zero-copy (borrowed)
          // base must not force its audit metas to materialise.
          emit(from, std::string(base.meta_id_view(from.meta)),
               std::string(base.meta_reason_view(from.meta)));
        }
        break;
      }
      case kOpSkip: {
        const std::uint32_t count = cursor.u32();
        if (count == 0) reject("zero-length skip op");
        if (count > h.base_entries - base_pos) {
          reject("skip op overruns the base entry sequence");
        }
        base_pos += count;
        break;
      }
      case kOpPatch:
        if (base_pos == h.base_entries) {
          reject("patch op overruns the base entry sequence");
        }
        ++base_pos;
        [[fallthrough]];
      case kOpInsert: {
        CompiledPolicyImage::Entry entry;
        read_record(entry);
        std::string id = cursor.str();
        std::string reason = cursor.str();
        emit(entry, std::move(id), std::move(reason));
        break;
      }
      default:
        reject("unknown edit-script opcode " + std::to_string(kind));
    }
  }
  if (base_pos != h.base_entries) {
    reject("edit script consumes " + std::to_string(base_pos) + " of " +
           std::to_string(h.base_entries) + " base entries");
  }
  if (image.entries_store_.size() != h.target_entries) {
    reject("edit script emits " + std::to_string(image.entries_store_.size()) +
           " entries, header declares " + std::to_string(h.target_entries));
  }
  if (!cursor.exhausted()) {
    reject("trailing bytes after the edit script");
  }

  // -- seal exactly like a direct compile --------------------------------
  // index_build_ was filled in entry order — the same insertion sequence
  // Builder::add_rule performs — so seal_index() produces the identical
  // probe structure and a blob written from the applied image byte-equals
  // one written from the direct compile (the CI interop job proves it
  // cross-compiler).
  image.seal_index();
  image.adopt_owned_storage();
  image.default_allow_decision_ =
      Decision::allow("", "no matching rule; default allow");
  image.default_deny_decision_ =
      Decision::deny("", "no matching rule; default deny");

  // The final gate: the reconstruction must fingerprint to exactly the
  // target the writer diffed against — the same integrity anchor the
  // compile pipeline and the blob loader use.
  if (image.fingerprint() != h.target_fingerprint) {
    reject("target fingerprint mismatch (applied image does not match the "
           "delta's manifest)",
           WireFault::kFingerprintMismatch);
  }
  return image;
}

CompiledPolicyImage PolicyDeltaReader::apply_file(
    const CompiledPolicyImage& base, const std::string& path) {
  return apply(base, wire::read_file<PolicyDeltaError>(path, kDomain));
}

}  // namespace psme::core
