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
// Concurrency (DESIGN.md "Concurrency model"): the cache follows the
// kernel AVC's reader/writer asymmetry. Exactly ONE thread — the owner —
// may call the mutating entry points (query, flush, the string shims);
// any number of OTHER threads may concurrently call query_shared. Shared
// readers are protected by a seqlock (`fill_seq_`): the owner bumps the
// sequence to odd around every slot/chain mutation, readers validate the
// generation after an optimistic probe and retry on a torn read — they
// never block and never write to the cache. A shared miss (or a reader
// that keeps losing the seqlock race) falls through to the lock-free
// sealed PolicyDb table WITHOUT filling a slot; fills remain owner-only.
// Shared-read hit/miss counters live in padded per-shard relaxed atomics
// merged on demand (shared_stats()); the owner's stats() stays a plain
// struct and must not be read concurrently with owner mutations.
#pragma once

#include <array>
#include <atomic>
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

  // Seqlock-protected slots make the cache identity-pinned: readers hold
  // references into `nodes_`/`buckets_` across the object's lifetime.
  Avc(const Avc&) = delete;
  Avc& operator=(const Avc&) = delete;

  // -- owner entry points (single writer; see header comment) ------------

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
  /// tests/test_fleet_parallel.cpp:AvcAllowed.EmptyRequiredSetIsDenied.
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

  // -- shared read path (any number of concurrent threads) ---------------

  /// Lock-free concurrent probe. Answers from a cache slot when a
  /// seqlock-stable generation confirms the read, otherwise falls through
  /// to `db.lookup` (the sealed flat table — const, lock-free). Never
  /// blocks, never fills a slot, never touches the LRU. Safe against a
  /// concurrent owner filling/evicting/flushing THIS cache; the caller
  /// must ensure `db` itself outlives the call (snapshot it — see
  /// MacEngine::evaluate_batch_allowed_shared). Entries cached from a
  /// different policy generation (seqno mismatch) are bypassed, never
  /// served.
  [[nodiscard]] AccessVector query_shared(const PolicyDb& db, Sid source,
                                          Sid target, Sid cls) const noexcept;

  /// Merged shared-read counters (hits answered from a stable slot,
  /// misses that fell through to the db). evictions/flushes are always 0
  /// here — shared readers never mutate.
  [[nodiscard]] AvcStats shared_stats() const noexcept;

  // -- observation (owner thread) ----------------------------------------

  [[nodiscard]] const AvcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Seqlock retries before a shared reader gives up on the cache and
  /// answers from the db. A retry only happens when the owner mutated
  /// the cache mid-probe, so the first retry almost always lands.
  static constexpr int kSharedRetries = 3;

  /// Slot fields raced by the shared read path (`key`, `av`, `hash_next`,
  /// the bucket heads) are relaxed atomics — the seqlock generation, not
  /// the individual loads, establishes consistency. LRU links are plain:
  /// readers never follow them.
  struct Node {
    std::atomic<std::uint64_t> key{0};
    std::atomic<AccessVector> av{0};
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::atomic<std::uint32_t> hash_next{kNil};  // doubles as free-list link
  };

  /// Padded shard of shared-read counters; threads scatter across shards
  /// by thread-id hash so concurrent readers do not contend on one line.
  struct alignas(64) SharedShard {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };
  static constexpr std::size_t kSharedShards = 8;

  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>(mix_av_key(key) & (buckets_.size() - 1));
  }

  /// Flushes on a policy reload; query() calls this before probing.
  void revalidate(const PolicyDb& db) noexcept;

  /// Owner-thread insert of a freshly-consulted vector (seqlock-
  /// bracketed; recycles the LRU tail when full).
  void fill_slot(std::uint32_t bucket, std::uint64_t key,
                 AccessVector av) noexcept;

  /// Seqlock write-side bracket around any slot/chain mutation.
  void begin_mutation() noexcept;
  void end_mutation() noexcept;

  /// One seqlock-validated optimistic probe against policy generation
  /// `db_gen`. Returns true with `av` set on a stable hit; false on a
  /// stable miss, a generation mismatch, or when retries on a torn
  /// generation are exhausted. Validation is an acquire fence + re-load
  /// of the sequence word (no store, so readers never contend on the
  /// line); under TSan — which models no fences — it is a
  /// value-preserving RMW instead, which TSan understands as
  /// synchronisation.
  [[nodiscard]] bool probe_shared(std::uint64_t key, std::uint64_t db_gen,
                                  AccessVector& av) const noexcept;

  [[nodiscard]] SharedShard& shared_shard() const noexcept;

  void lru_unlink(std::uint32_t n) noexcept;
  void lru_push_front(std::uint32_t n) noexcept;
  void chain_remove(std::uint32_t bucket, std::uint32_t n) noexcept;
  void reset_free_list() noexcept;

  std::size_t capacity_;
  std::vector<Node> nodes_;  // exactly capacity_ slots, fixed
  std::vector<std::atomic<std::uint32_t>> buckets_;  // pow-2, kNil-terminated
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // eviction victim
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  /// Policy generation the cached entries were filled from. The owner
  /// release-stores it in revalidate() after flushing; shared readers
  /// acquire-load it inside the seqlock window to bypass cross-generation
  /// entries.
  std::atomic<std::uint64_t> db_seqno_{0};
  /// Seqlock generation: even = stable, odd = owner mutating. Mutable:
  /// the shared reader's validation step is a value-preserving RMW
  /// (fetch_add(0)), a write in form only.
  mutable std::atomic<std::uint64_t> fill_seq_{0};
  AvcStats stats_;
  mutable std::array<SharedShard, kSharedShards> shared_shards_{};
};

}  // namespace psme::mac
