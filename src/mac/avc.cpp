#include "mac/avc.h"

#include <functional>
#include <stdexcept>
#include <thread>


// ThreadSanitizer does not model memory fences, so under TSan the
// seqlock reader validates with a value-preserving RMW instead (which
// TSan understands as synchronisation). Plain builds keep the classic
// fence + relaxed-load validation: no store on the shared sequence
// line, so concurrent readers do not serialise on it.
#if defined(__SANITIZE_THREAD__)
#define PSME_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSME_TSAN 1
#endif
#endif

namespace psme::mac {

namespace {

[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Avc::Avc(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("Avc: capacity must be positive");
  }
  // Atomic slot fields make Node non-movable, so both arrays are sized in
  // one shot (vector(count) default-inserts in place) and never resized.
  nodes_ = std::vector<Node>(capacity_);
  buckets_ = std::vector<std::atomic<std::uint32_t>>(
      // ~2x slots per bucket array keeps chains around one node on average.
      next_pow2(capacity_ * 2));
  for (auto& bucket : buckets_) {
    bucket.store(kNil, std::memory_order_relaxed);
  }
  reset_free_list();
}

// ----------------------------------------------------------- seqlock bracket

void Avc::begin_mutation() noexcept {
  // Seqlock write side as an RMW in every build (owner-only, so the line
  // is uncontended and the RMW costs what a store does): the acquire
  // half keeps the slot stores that follow from hoisting above the odd
  // generation, the release half orders it after whatever came before.
  fill_seq_.fetch_add(1, std::memory_order_acq_rel);
}

void Avc::end_mutation() noexcept {
  // Release: every slot store of this bracket is visible before the
  // generation returns to even.
  fill_seq_.fetch_add(1, std::memory_order_release);
}

void Avc::reset_free_list() noexcept {
  for (std::uint32_t i = 0; i + 1 < capacity_; ++i) {
    nodes_[i].hash_next.store(i + 1, std::memory_order_relaxed);
  }
  nodes_[capacity_ - 1].hash_next.store(kNil, std::memory_order_relaxed);
  free_head_ = 0;
  lru_head_ = lru_tail_ = kNil;
  size_ = 0;
}

void Avc::lru_unlink(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  if (node.lru_prev != kNil) {
    nodes_[node.lru_prev].lru_next = node.lru_next;
  } else {
    lru_head_ = node.lru_next;
  }
  if (node.lru_next != kNil) {
    nodes_[node.lru_next].lru_prev = node.lru_prev;
  } else {
    lru_tail_ = node.lru_prev;
  }
  node.lru_prev = node.lru_next = kNil;
}

void Avc::lru_push_front(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  node.lru_prev = kNil;
  node.lru_next = lru_head_;
  if (lru_head_ != kNil) nodes_[lru_head_].lru_prev = n;
  lru_head_ = n;
  if (lru_tail_ == kNil) lru_tail_ = n;
}

void Avc::chain_remove(std::uint32_t bucket, std::uint32_t n) noexcept {
  std::uint32_t cur = buckets_[bucket].load(std::memory_order_relaxed);
  if (cur == n) {
    buckets_[bucket].store(nodes_[n].hash_next.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    return;
  }
  while (cur != kNil) {
    const std::uint32_t next =
        nodes_[cur].hash_next.load(std::memory_order_relaxed);
    if (next == n) {
      nodes_[cur].hash_next.store(
          nodes_[n].hash_next.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      return;
    }
    cur = next;
  }
}

void Avc::revalidate(const PolicyDb& db) noexcept {
  if (db.seqno() != db_seqno_.load(std::memory_order_relaxed)) {
    // Policy reload invalidates cached vectors. The very first query merely
    // synchronises the seqno — an empty cache has nothing to flush.
    if (size_ != 0) flush();
    // Release pairs with the shared reader's acquire load: a reader that
    // observes the new generation also observes the flush that preceded
    // it (no stale chain can masquerade as the new generation).
    db_seqno_.store(db.seqno(), std::memory_order_release);
  }
}

AccessVector Avc::query(const PolicyDb& db, Sid source, Sid target, Sid cls) {
  revalidate(db);
  const std::uint64_t key = pack_av_key(source, target, cls);
  const std::uint32_t bucket = bucket_of(key);
  for (std::uint32_t n = buckets_[bucket].load(std::memory_order_relaxed);
       n != kNil; n = nodes_[n].hash_next.load(std::memory_order_relaxed)) {
    if (nodes_[n].key.load(std::memory_order_relaxed) != key) continue;
    ++stats_.hits;
    if (lru_head_ != n) {
      // LRU links are owner-private (readers never follow them), so a
      // hit's recency bump needs no seqlock bracket.
      lru_unlink(n);
      lru_push_front(n);
    }
    return nodes_[n].av.load(std::memory_order_relaxed);
  }

  ++stats_.misses;
  // Consult the database on the unpacked key, so the cached vector always
  // answers the key it is filed under; null components fall out of
  // pack_av_key unchanged, so a null-SID query still answers 0.
  const AvKeyParts parts = unpack_av_key(key);
  const AccessVector av = db.lookup(parts.source, parts.target, parts.cls);
  fill_slot(bucket, key, av);
  return av;
}

void Avc::fill_slot(std::uint32_t bucket, std::uint64_t key,
                    AccessVector av) noexcept {
  begin_mutation();
  std::uint32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = nodes_[n].hash_next.load(std::memory_order_relaxed);
    ++size_;
  } else {
    // Cache full: recycle the least recently used slot.
    n = lru_tail_;
    chain_remove(bucket_of(nodes_[n].key.load(std::memory_order_relaxed)), n);
    lru_unlink(n);
    ++stats_.evictions;
  }
  Node& node = nodes_[n];
  node.key.store(key, std::memory_order_relaxed);
  node.av.store(av, std::memory_order_relaxed);
  node.hash_next.store(buckets_[bucket].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  buckets_[bucket].store(n, std::memory_order_relaxed);
  lru_push_front(n);
  end_mutation();
}

AccessVector Avc::query(const PolicyDb& db, std::string_view source_type,
                        std::string_view target_type,
                        std::string_view object_class) {
  // Interning through a const database is deliberate: like the SELinux
  // sidtab, the interner grows at enforcement time without changing any
  // SID already issued, so the compiled policy is unaffected.
  SidTable& sids = *db.sid_table();
  const Sid source = sids.intern(source_type);
  const Sid target = sids.intern(target_type);
  const Sid cls = sids.intern(object_class);
  if (cls > kMaxClassSid) {
    // A class name interned beyond the packed-key range cannot be cached
    // without aliasing; answer from the database directly (still counted
    // as a miss so the stats stay truthful).
    ++stats_.misses;
    return db.lookup(source_type, target_type, object_class);
  }
  return query(db, source, target, cls);
}

bool Avc::allowed(const PolicyDb& db, std::string_view source_type,
                  std::string_view target_type, std::string_view object_class,
                  std::string_view perm) {
  const ClassDef* cls = db.find_class(object_class);
  if (cls == nullptr) return false;
  const auto bit = cls->bit(perm);
  if (!bit.has_value()) return false;
  return (query(db, source_type, target_type, object_class) & *bit) != 0;
}

void Avc::flush() noexcept {
  begin_mutation();
  for (auto& bucket : buckets_) {
    bucket.store(kNil, std::memory_order_relaxed);
  }
  reset_free_list();
  end_mutation();
  ++stats_.flushes;
}

// --------------------------------------------------------- shared read path

Avc::SharedShard& Avc::shared_shard() const noexcept {
  // One hash per thread lifetime: the shard index is a pure function of
  // the thread id, cached thread-locally (shared across Avc instances —
  // it is only an index).
  static const thread_local std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kSharedShards - 1);
  return shared_shards_[shard];
}

bool Avc::probe_shared(std::uint64_t key, std::uint64_t db_gen,
                       AccessVector& av) const noexcept {
  const std::uint32_t bucket = bucket_of(key);
  for (int attempt = 0; attempt < kSharedRetries; ++attempt) {
    const std::uint64_t gen = fill_seq_.load(std::memory_order_acquire);
    if (gen & 1) continue;  // owner mid-mutation; the fill window is tiny
    // Generation filter INSIDE the validated window: entries filled from
    // a different policy generation must not be served, and the acquire
    // load pairs with revalidate()'s release store so a reader that sees
    // the new seqno also sees the flush that preceded it. (A reader that
    // sees a stale match-looking chain instead fails the seq validation
    // below — the flush bumped it.) A mismatched or not-yet-synchronised
    // cache is simply bypassed; the owner's next query flushes it.
    if (db_seqno_.load(std::memory_order_acquire) != db_gen) return false;
    bool found = false;
    AccessVector candidate = 0;
    std::uint32_t n = buckets_[bucket].load(std::memory_order_relaxed);
    // A torn chain walk could transiently cycle; the step bound keeps the
    // walk finite until the generation check below rejects it.
    for (std::size_t steps = 0; n != kNil && steps <= capacity_; ++steps) {
      const Node& node = nodes_[n];
      if (node.key.load(std::memory_order_relaxed) == key) {
        candidate = node.av.load(std::memory_order_relaxed);
        found = true;
        break;
      }
      n = node.hash_next.load(std::memory_order_relaxed);
    }
    // Validation: the probe's loads must complete before the generation
    // is re-read. Under TSan that is a value-preserving RMW (its release
    // half pins the loads above it, its acquire half pairs with
    // end_mutation, and TSan models it); everywhere else the classic
    // acquire fence + relaxed re-load — no store on the shared sequence
    // line, so readers never contend on it. Unchanged generation == no
    // mutation bracket overlapped the probe. (The db_seqno_ acquire
    // above additionally guarantees a reader that saw a NEW generation
    // cannot validate against a pre-flush sequence value: the flush's
    // bumps happen-before its release store.)
#if defined(PSME_TSAN)
    const std::uint64_t revalidated =
        fill_seq_.fetch_add(0, std::memory_order_acq_rel);
#else
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t revalidated =
        fill_seq_.load(std::memory_order_relaxed);
#endif
    if (revalidated == gen) {
      av = candidate;
      return found;
    }
  }
  return false;  // kept losing the race; treat as a miss (db answers)
}

AccessVector Avc::query_shared(const PolicyDb& db, Sid source, Sid target,
                               Sid cls) const noexcept {
  SharedShard& shard = shared_shard();
  AccessVector av = 0;
  if (probe_shared(pack_av_key(source, target, cls), db.seqno(), av)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return av;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return db.lookup(source, target, cls);
}

AvcStats Avc::shared_stats() const noexcept {
  AvcStats merged;
  for (const SharedShard& shard : shared_shards_) {
    merged.hits += shard.hits.load(std::memory_order_relaxed);
    merged.misses += shard.misses.load(std::memory_order_relaxed);
  }
  return merged;
}

}  // namespace psme::mac
