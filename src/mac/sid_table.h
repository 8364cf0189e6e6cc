// psme::mac — security identifier (SID) interner.
//
// Real SELinux never compares strings on the decision path: every security
// context is interned once into a small integer SID, and the policy
// database, the AVC and the enforcement hooks all speak SIDs from then on.
// This table reproduces that design: type, class and entity names map to
// dense std::uint32_t identifiers with O(1) amortised interning, O(1)
// non-allocating lookup, and O(1) reverse lookup (the reverse direction
// exists for audit and trace messages only — the hot path never touches a
// string).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace psme::mac {

/// Dense security identifier. 0 (kNullSid) is reserved for "no such name",
/// so a packed key built from valid SIDs is never zero — which lets the
/// flat AV tables use 0 as their empty-slot sentinel.
using Sid = std::uint32_t;

inline constexpr Sid kNullSid = 0;

/// Widest SID representable in a source/target field of a packed AV key.
/// SidTable::intern refuses to hand out more names than this, so any SID
/// it returns packs safely.
inline constexpr Sid kMaxTypeSid = (Sid{1} << 24) - 1;

/// Widest SID usable as the class field of a packed AV key. Classes are
/// interned before types by PolicyDbBuilder, so in practice class SIDs are
/// tiny; PolicyDbBuilder::build enforces the bound.
inline constexpr Sid kMaxClassSid = (Sid{1} << 16) - 1;

/// Packs a (source type, target type, object class) SID triple into the
/// 64-bit key used by PolicyDb's flat table and the AVC: 24 source bits,
/// 24 target bits, 16 class bits.
[[nodiscard]] constexpr std::uint64_t pack_av_key(Sid source, Sid target,
                                                  Sid cls) noexcept {
  return (static_cast<std::uint64_t>(source) << 40) |
         (static_cast<std::uint64_t>(target) << 16) |
         static_cast<std::uint64_t>(cls);
}

/// Inverse of pack_av_key — the one place the field layout is decoded,
/// so the cache's db-fallthrough paths can never drift from the packing.
struct AvKeyParts {
  Sid source = kNullSid;
  Sid target = kNullSid;
  Sid cls = kNullSid;
};

[[nodiscard]] constexpr AvKeyParts unpack_av_key(std::uint64_t key) noexcept {
  return {static_cast<Sid>(key >> 40),
          static_cast<Sid>((key >> 16) & 0xFFFFFFu),
          static_cast<Sid>(key & 0xFFFFu)};
}

/// FNV-1a 64-bit, the repo's one string-hash / fingerprint primitive
/// (the interner, PolicySet fingerprints and the compiled-image
/// fingerprint all share it — one implementation, no drift). `seed`
/// chains multi-field hashes.
inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view text, std::uint64_t seed = kFnv1aOffset) noexcept {
  for (const char ch : text) {
    seed ^= static_cast<unsigned char>(ch);
    seed *= 0x100000001B3ULL;
  }
  return seed;
}

/// FNV-1a over the eight little-endian bytes of one 64-bit value.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(
    std::uint64_t value, std::uint64_t seed = kFnv1aOffset) noexcept {
  for (int i = 0; i < 8; ++i) {
    seed ^= static_cast<unsigned char>(value >> (i * 8));
    seed *= 0x100000001B3ULL;
  }
  return seed;
}

/// One 64-bit little-endian word from unaligned bytes. The single
/// decode primitive of the persistent-blob format and the bulk hashes
/// below: memcpy compiles to one load on every supported target, and the
/// byte-swap branch keeps the VALUE identical on a big-endian host (the
/// wire stays little-endian everywhere).
[[nodiscard]] inline std::uint64_t load_le_u64(const void* at) noexcept {
  std::uint64_t v;
  std::memcpy(&v, at, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

[[nodiscard]] inline std::uint32_t load_le_u32(const void* at) noexcept {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

/// splitmix64 finaliser: avalanches a packed key's bit fields so hash
/// structures (the policy AV table, the AVC bucket index) see a uniform
/// distribution. Shared so the two tables can never drift apart.
[[nodiscard]] constexpr std::uint64_t mix_av_key(std::uint64_t key) noexcept {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  key ^= key >> 31;
  return key;
}

/// Chains one 64-bit value into a mix_av_key-based hash. The bulk
/// companion to fnv1a: where fnv1a pays eight sequential multiplies per
/// word (fine for short interner keys), this pays one splitmix round —
/// the difference between a 4 µs and a sub-µs fingerprint on the blob
/// boot path. Not a drop-in for fnv1a: values differ; pick one per
/// hash domain and stay there.
[[nodiscard]] constexpr std::uint64_t hash_chain_u64(
    std::uint64_t value, std::uint64_t seed) noexcept {
  return mix_av_key(seed ^ value);
}

/// The four-lane protocol the bulk hashes run: splitmix chains are
/// latency-bound, so long inputs stream through four independent lanes,
/// folded deterministically at the end. ONE definition of the seed
/// derivation and fold order — hash_chain_bytes and the image
/// fingerprint (both embedded in persistent blobs) use this and can
/// never drift apart.
struct HashLanes {
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;  // splitmix64

  explicit constexpr HashLanes(std::uint64_t seed) noexcept
      : lane{seed, seed ^ kGamma, seed + kGamma, seed ^ (kGamma << 1)} {}

  /// Folds the lanes back into one chained value.
  [[nodiscard]] constexpr std::uint64_t fold() const noexcept {
    std::uint64_t hash = hash_chain_u64(lane[1], lane[0]);
    hash = hash_chain_u64(lane[2], hash);
    return hash_chain_u64(lane[3], hash);
  }

  std::uint64_t lane[4];
};

/// Bulk string hash over little-endian 64-bit chunks (tail bytes folded
/// with the length), seed-chained like fnv1a. Endian-stable: the chunks
/// are decoded as little-endian words, so the value is identical on any
/// host — it may be embedded in persistent blobs. Long inputs run four
/// independent lanes (splitmix is latency-bound; one serial chain caps a
/// blob checksum at ~2.5 ns/word while four lanes stream) folded together
/// deterministically at the end.
[[nodiscard]] inline std::uint64_t hash_chain_bytes(
    std::string_view text, std::uint64_t seed) noexcept {
  HashLanes lanes(seed);
  std::size_t i = 0;
  for (; i + 32 <= text.size(); i += 32) {
    lanes.lane[0] = hash_chain_u64(load_le_u64(text.data() + i), lanes.lane[0]);
    lanes.lane[1] =
        hash_chain_u64(load_le_u64(text.data() + i + 8), lanes.lane[1]);
    lanes.lane[2] =
        hash_chain_u64(load_le_u64(text.data() + i + 16), lanes.lane[2]);
    lanes.lane[3] =
        hash_chain_u64(load_le_u64(text.data() + i + 24), lanes.lane[3]);
  }
  std::uint64_t hash = lanes.fold();
  for (; i + 8 <= text.size(); i += 8) {
    hash = hash_chain_u64(load_le_u64(text.data() + i), hash);
  }
  std::uint64_t tail = 0;
  for (; i < text.size(); ++i) {
    tail = (tail << 8) | static_cast<unsigned char>(text[i]);
  }
  return hash_chain_u64(tail ^ (std::uint64_t{text.size()} << 32), hash);
}

/// String -> dense u32 interner with reverse lookup.
///
/// Storage is a flat open-addressing slot array over an append-only name
/// arena — the same "no node chasing" shape as the policy AV table and
/// the AVC (DESIGN.md §2): a probe is a hash, a masked index walk and an
/// inline string compare; interning a new name is one arena append and
/// one slot store, no per-name node allocation. The arena is a deque, so
/// a view returned by name_of stays valid forever (readers may hold
/// audit strings while the owner interns).
///
/// Borrowed mode (zero-copy boot, DESIGN.md "Zero-copy image views"): a
/// table can instead be ATTACHED over a serialised name arena — a
/// contiguous byte arena plus an offsets array plus the probe-slot array,
/// all living in a persistent policy blob. attach() is O(1): no name is
/// copied, name_of returns views into the blob, and the caller-supplied
/// keepalive pins the blob's buffer for the table's lifetime. The table
/// stays fully functional: interning a NEW name first thaws the probe
/// slots (one O(slots) copy into owned storage, off the boot path) and
/// then appends to the owned name overflow exactly as a built table
/// would — issued SIDs, probe layout and serialisation are byte-identical
/// either way (the delta channel and blob interop depend on this).
///
/// Concurrency (DESIGN.md "Concurrency model"): the const observers
/// (find, name_of, contains, size) are safe to call from any number of
/// threads concurrently — they read, never write. intern() MUTATES when
/// it meets a new name and therefore requires exclusive access: the
/// single-writer rule says no thread may intern a name the table has not
/// seen while readers are active (re-interning an existing name performs
/// only a lookup and is read-equivalent). Issued SIDs never change, so
/// data published before readers start is immutable.
class SidTable {
 public:
  /// Transparent FNV-1a string hash so string_view lookups never
  /// allocate. (Used by neighbours' string-keyed maps, e.g. MacEngine's
  /// label table; the interner itself probes a flat slot array.)
  struct Hash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return static_cast<std::size_t>(fnv1a(s));
    }
  };

  SidTable() = default;

  /// Borrowed-mode constructor: a table whose first
  /// `name_offsets.size() - 1` names live in `name_arena` (name of SID i
  /// is arena bytes [name_offsets[i-1], name_offsets[i])) and whose probe
  /// slots are `slots`, both owned by whatever `keepalive` pins (a
  /// policy blob's PolicyBuffer). O(1): nothing is copied or validated —
  /// the blob loader is responsible for having validated (or
  /// bounds-guarding) the arena, offsets and slots. The spans must stay
  /// valid while `keepalive` is held.
  [[nodiscard]] static SidTable attach(std::string_view name_arena,
                                       std::span<const std::uint32_t>
                                           name_offsets,
                                       std::span<const Sid> slots,
                                       std::shared_ptr<const void> keepalive);

  /// Returns the SID for `name`, interning it on first sight. SIDs are
  /// handed out densely starting at 1 in interning order. Throws
  /// std::length_error once kMaxTypeSid names exist.
  Sid intern(std::string_view name);

  /// Pre-sizes the table for `names` total entries (owner-only, like
  /// intern). The blob loader knows the exact count up front; reserving
  /// avoids mid-replay rehashes on the boot path.
  void reserve(std::size_t names);

  /// SID of an already-interned name; kNullSid when never seen.
  [[nodiscard]] Sid find(std::string_view name) const noexcept;

  /// Reverse lookup, for audit/trace messages. Throws std::out_of_range
  /// for kNullSid or a SID this table never issued. The view stays
  /// valid for the table's lifetime (the owned arena never moves a name;
  /// a borrowed arena is pinned by the keepalive).
  [[nodiscard]] std::string_view name_of(Sid sid) const;

  [[nodiscard]] bool contains(Sid sid) const noexcept {
    return sid != kNullSid && sid <= size();
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return base_count_ + names_.size();
  }

  /// The live open-addressing slot array, verbatim (borrowed or owned) —
  /// for the persistent-image serialiser, which carries the probe layout
  /// on the wire so a reader can attach without rebuilding it. Not a
  /// mutation path.
  [[nodiscard]] std::span<const Sid> probe_slots() const noexcept {
    return borrowed_slots_.data() != nullptr ? borrowed_slots_
                                             : std::span<const Sid>(slots_);
  }

 private:
  /// Doubles (or first sizes) the slot array and re-probes every interned
  /// name into it. Always leaves the slots OWNED (a rehash writes).
  void rehash(std::size_t slot_count);

  /// Copies borrowed probe slots into owned storage so intern() can
  /// write. One-time, O(slots); no-op on an owned table.
  void thaw();

  /// Name of SID `sid` without the contains() guard (callers check).
  /// Borrowed arena reads are bounds-guarded: a corrupted offset pair
  /// yields an empty view (which can never equal an interned name), so a
  /// sealed-trust blob with a mangled arena fails closed instead of
  /// reading out of bounds.
  [[nodiscard]] std::string_view name_at(Sid sid) const noexcept {
    const std::size_t i = sid - 1;
    if (i < base_count_) {
      const std::uint32_t begin = arena_offsets_[i];
      const std::uint32_t end = arena_offsets_[i + 1];
      if (begin > end || end > arena_.size()) return {};
      return arena_.substr(begin, end - begin);
    }
    return names_[i - base_count_];
  }

  /// Probe start for a name in a `mask`-sized table.
  [[nodiscard]] static std::size_t probe_origin(std::string_view name,
                                                std::size_t mask) noexcept {
    return static_cast<std::size_t>(mix_av_key(fnv1a(name))) & mask;
  }

  /// Open-addressing slots holding SIDs (kNullSid = empty); the key of a
  /// slot is name_at(sid). Power-of-two sized, grown at 2/3 load. Empty
  /// while borrowed_slots_ is in use.
  std::vector<Sid> slots_;
  /// Names interned AFTER the borrowed base (all names, in an owned
  /// table): SID base_count_ + i + 1 names names_[i]. Deque: growth never
  /// moves a name, so name_of views and probe compares stay stable
  /// across interning.
  std::deque<std::string> names_;
  /// Borrowed base (attach()): the serialised arena, its offsets array
  /// (base_count_ + 1 entries) and the blob's probe slots. Pinned by
  /// keepalive_.
  std::string_view arena_;
  const std::uint32_t* arena_offsets_ = nullptr;
  std::uint32_t base_count_ = 0;
  std::span<const Sid> borrowed_slots_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace psme::mac
