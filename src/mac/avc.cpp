#include "mac/avc.h"

#include <algorithm>
#include <stdexcept>

namespace psme::mac {

namespace {

[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Avc::Avc(std::size_t capacity)
    : capacity_(capacity),
      nodes_(capacity),
      // ~2x slots per bucket array keeps chains around one node on average.
      buckets_(next_pow2(capacity * 2), kNil) {
  if (capacity_ == 0) {
    throw std::invalid_argument("Avc: capacity must be positive");
  }
  reset_free_list();
}

void Avc::reset_free_list() noexcept {
  for (std::uint32_t i = 0; i + 1 < capacity_; ++i) {
    nodes_[i].hash_next = i + 1;
  }
  nodes_[capacity_ - 1].hash_next = kNil;
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
  std::uint32_t cur = buckets_[bucket];
  if (cur == n) {
    buckets_[bucket] = nodes_[n].hash_next;
    return;
  }
  while (cur != kNil) {
    const std::uint32_t next = nodes_[cur].hash_next;
    if (next == n) {
      nodes_[cur].hash_next = nodes_[n].hash_next;
      return;
    }
    cur = next;
  }
}

AccessVector Avc::query(const PolicyDb& db, Sid source, Sid target, Sid cls) {
  const std::uint64_t key = pack_av_key(source, target, cls);
  const std::uint32_t bucket = bucket_of(key);
  // A policy reload makes every cached vector stale: skip the probe and
  // let miss() flush.
  if (db.seqno() == db_seqno_) {
    for (std::uint32_t n = buckets_[bucket]; n != kNil;
         n = nodes_[n].hash_next) {
      if (nodes_[n].key != key) continue;
      ++stats_.hits;
      if (lru_head_ != n) {
        lru_unlink(n);
        lru_push_front(n);
      }
      return nodes_[n].av;
    }
  }
  return miss(db, key, bucket);
}

AccessVector Avc::miss(const PolicyDb& db, std::uint64_t key,
                       std::uint32_t bucket) {
  if (db.seqno() != db_seqno_) {
    // The very first query merely synchronises the seqno — an empty
    // cache has nothing to flush.
    if (size_ != 0) flush();
    db_seqno_ = db.seqno();
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
  std::uint32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = nodes_[n].hash_next;
    ++size_;
  } else {
    // Cache full: recycle the least recently used slot.
    n = lru_tail_;
    chain_remove(bucket_of(nodes_[n].key), n);
    lru_unlink(n);
    ++stats_.evictions;
  }
  Node& node = nodes_[n];
  node.key = key;
  node.av = av;
  node.hash_next = buckets_[bucket];
  buckets_[bucket] = n;
  lru_push_front(n);
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
  std::fill(buckets_.begin(), buckets_.end(), kNil);
  reset_free_list();
  ++stats_.flushes;
}

}  // namespace psme::mac
