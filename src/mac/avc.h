// psme::mac — access vector cache.
//
// Real SELinux answers most permission checks from the AVC rather than the
// policy database; the cache is what makes per-syscall MAC affordable. We
// reproduce the structure (keyed by source/target/class, invalidated by
// policy seqno) so the bench suite can measure hit-ratio-dependent cost,
// the paper's software-enforcement overhead story.
//
// The cache is SID-keyed: entries live in a fixed-capacity slot array
// allocated once at construction, chained into a power-of-two bucket index
// and threaded onto an intrusive doubly-linked LRU list by array index.
// After the constructor returns, queries never allocate — a hit is one
// hash, one short chain walk and four index writes. String queries are
// shims that intern through the database's SidTable first.
//
// Concurrency (DESIGN.md "Concurrency model"): single-threaded, like
// sim::Scheduler — one thread owns the cache and makes every call.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mac/sid_table.h"
#include "mac/te_policy.h"

namespace psme::mac {

struct AvcStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;

  [[nodiscard]] double hit_ratio() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Bounded LRU cache of (source, target, class) SIDs -> access vector.
class Avc {
 public:
  explicit Avc(std::size_t capacity = 512);

  /// Returns the access vector, consulting `db` on a miss and caching the
  /// result. A db seqno change flushes the cache first (policy reload).
  /// SID-space hot path: zero heap allocations.
  [[nodiscard]] AccessVector query(const PolicyDb& db, Sid source, Sid target,
                                   Sid cls);

  /// True when every bit of `required` is granted (one bit = one perm).
  ///
  /// `required == 0` — an EMPTY permission set — is rejected: the call
  /// returns false. Asking for "no permissions" is a malformed query
  /// (typically an unresolved permission name upstream), and silently
  /// granting it would turn every such bug into an allow. This matches
  /// PolicyDb::allowed exactly; test-pinned by
  /// tests/test_mac.cpp:AvcAllowed.EmptyRequiredSetIsDenied.
  [[nodiscard]] bool allowed(const PolicyDb& db, Sid source, Sid target,
                             Sid cls, AccessVector required) {
    return required != 0 &&
           (query(db, source, target, cls) & required) == required;
  }

  /// String shim: interns the names through the db's SidTable (so repeat
  /// queries for the same strings hit the same slot) and defers to the SID
  /// path. Kept for tests, examples and the string-keyed baseline bench.
  [[nodiscard]] AccessVector query(const PolicyDb& db,
                                   std::string_view source_type,
                                   std::string_view target_type,
                                   std::string_view object_class);

  /// Permission-level convenience mirroring PolicyDb::allowed (including
  /// its empty-set rejection: an unknown permission name denies).
  [[nodiscard]] bool allowed(const PolicyDb& db, std::string_view source_type,
                             std::string_view target_type,
                             std::string_view object_class,
                             std::string_view perm);

  void flush() noexcept;

  // -- observation -------------------------------------------------------

  [[nodiscard]] const AvcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    std::uint64_t key = 0;
    AccessVector av = 0;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::uint32_t hash_next = kNil;  // doubles as free-list link
  };

  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>(mix_av_key(key) & (buckets_.size() - 1));
  }

  /// query()'s slow path: flushes on a policy reload, then answers from
  /// `db` and caches the vector. A separate function so that query()'s
  /// hit path compiles to a leaf that saves no registers; with the flush
  /// inline, gcc 12 ran BM_AvcHotLookupSid ~15% slower.
  [[nodiscard]] AccessVector miss(const PolicyDb& db, std::uint64_t key,
                                  std::uint32_t bucket);

  /// Inserts a freshly-consulted vector (recycles the LRU tail when
  /// full).
  void fill_slot(std::uint32_t bucket, std::uint64_t key,
                 AccessVector av) noexcept;

  void lru_unlink(std::uint32_t n) noexcept;
  void lru_push_front(std::uint32_t n) noexcept;
  void chain_remove(std::uint32_t bucket, std::uint32_t n) noexcept;
  void reset_free_list() noexcept;

  std::size_t capacity_;
  std::vector<Node> nodes_;  // exactly capacity_ slots, fixed
  std::vector<std::uint32_t> buckets_;  // pow-2, kNil-terminated
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // eviction victim
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  /// Policy generation the cached entries were filled from.
  std::uint64_t db_seqno_ = 0;
  AvcStats stats_;
};

}  // namespace psme::mac
