#include "core/policy_image.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "core/policy_buffer.h"
#include "mac/batch_probe.h"

namespace psme::core {

namespace {

[[nodiscard]] Decision make_perm_deny(const std::string& id,
                                      threat::Permission permission,
                                      AccessType access) {
  // Only eight distinct deny texts exist (4 permissions x 2 accesses);
  // build each once and copy from the table — this runs per rule on the
  // compile path AND per loaded rule on the blob-boot path.
  static const auto reasons = [] {
    std::array<std::string, 8> table;
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t a = 0; a < 2; ++a) {
        table[p * 2 + a] =
            "permission " +
            std::string(threat::to_string(static_cast<Permission>(p))) +
            " does not include " +
            std::string(core::to_string(static_cast<AccessType>(a)));
      }
    }
    return table;
  }();
  return Decision::deny(
      id, reasons[static_cast<std::size_t>(permission) * 2 +
                  static_cast<std::size_t>(access)]);
}

}  // namespace

// ---------------------------------------------------------------- LazyMetas

void CompiledPolicyImage::LazyMetas::init(std::uint32_t count) {
  destroy();
  page_count_ = (count + kPageSize - 1) >> kPageBits;
  pages_ = page_count_ == 0
               ? nullptr
               : std::make_unique<std::atomic<Page*>[]>(page_count_);
}

void CompiledPolicyImage::LazyMetas::destroy() noexcept {
  if (pages_ == nullptr) {
    page_count_ = 0;
    return;
  }
  for (std::uint32_t p = 0; p < page_count_; ++p) {
    Page* page = pages_[p].load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (auto& slot : page->slot) {
      delete slot.load(std::memory_order_acquire);
    }
    delete page;
  }
  pages_.reset();
  page_count_ = 0;
}

// ------------------------------------------------------------------ Builder

CompiledPolicyImage::Builder::Builder(std::string name, std::uint64_t version,
                                      std::shared_ptr<mac::SidTable> sids) {
  image_.name_ = std::move(name);
  image_.version_ = version;
  image_.sids_ = sids != nullptr ? std::move(sids)
                                 : std::make_shared<mac::SidTable>();
  image_.wildcard_sid_ = image_.sids_->intern("*");
}

std::uint64_t CompiledPolicyImage::Builder::mode_mask_for(
    std::span<const threat::ModeId> modes) {
  std::uint64_t mask = 0;
  for (const threat::ModeId& mode : modes) {
    const mac::Sid sid = image_.sids_->intern(mode.value);
    std::size_t bit = 0;
    while (bit < image_.mode_store_.size() &&
           image_.mode_store_[bit] != sid) {
      ++bit;
    }
    if (bit == image_.mode_store_.size()) {
      if (bit == kMaxImageModes) {
        throw std::length_error(
            "CompiledPolicyImage: more than 64 distinct operational modes");
      }
      image_.mode_store_.push_back(sid);
    }
    mask |= std::uint64_t{1} << bit;
  }
  return mask;
}

void CompiledPolicyImage::fill_meta(Meta& meta, std::string id,
                                    threat::Permission permission,
                                    std::string allow_reason) {
  meta.allow.allowed = true;
  meta.allow.rule_id = id;
  meta.allow.reason = std::move(allow_reason);
  // Only the REACHABLE deny prototypes are materialised: evaluate hands
  // out deny_read exactly when the permission lacks read (and likewise
  // write), so e.g. a kReadWrite rule never needs either. Skipping them
  // trims compile and — more importantly — blob-boot reconstruction.
  if (!threat::allows_read(permission)) {
    meta.deny_read = make_perm_deny(id, permission, AccessType::kRead);
  }
  if (!threat::allows_write(permission)) {
    meta.deny_write = make_perm_deny(id, permission, AccessType::kWrite);
  }
  meta.id = std::move(id);
}

void CompiledPolicyImage::emplace_meta(std::vector<Meta>& into, std::string id,
                                       threat::Permission permission,
                                       std::string allow_reason) {
  fill_meta(into.emplace_back(), std::move(id), permission,
            std::move(allow_reason));
}

void CompiledPolicyImage::Builder::add_rule(
    std::string id, std::string_view subject, std::string_view object,
    threat::Permission permission, std::span<const threat::ModeId> modes,
    int priority, std::string allow_reason) {
  Entry entry;
  entry.subject =
      subject == "*" ? image_.wildcard_sid_ : image_.sids_->intern(subject);
  entry.object =
      object == "*" ? image_.wildcard_sid_ : image_.sids_->intern(object);
  entry.permission = permission;
  entry.specificity =
      static_cast<std::uint8_t>((entry.subject != image_.wildcard_sid_ ? 1 : 0) +
                                (entry.object != image_.wildcard_sid_ ? 1 : 0));
  entry.priority = priority;
  entry.mode_mask = mode_mask_for(modes);
  entry.meta = static_cast<std::uint32_t>(image_.metas_.size());

  emplace_meta(image_.metas_, std::move(id), permission,
               std::move(allow_reason));

  image_.index_build_[pair_key(entry.subject, entry.object)].push_back(
      static_cast<std::uint32_t>(image_.entries_store_.size()));
  image_.entries_store_.push_back(entry);
}

CompiledPolicyImage CompiledPolicyImage::Builder::build() {
  image_.default_allow_decision_ =
      Decision::allow("", "no matching rule; default allow");
  image_.default_deny_decision_ =
      Decision::deny("", "no matching rule; default deny");
  image_.seal_index();
  image_.adopt_owned_storage();
  return std::move(image_);
}

void CompiledPolicyImage::seal_index() {
  std::size_t slots = 1;
  while (slots < index_build_.size() * 2) slots <<= 1;
  slot_key_store_.assign(slots, 0);
  slot_span_store_.assign(slots, SlotSpan{});
  flat_store_.clear();
  flat_store_.reserve(entries_store_.size());
  const std::size_t mask = slots - 1;
  for (const auto& [key, indices] : index_build_) {
    std::size_t i = mac::mix_av_key(key) & mask;
    while (slot_key_store_[i] != 0) i = (i + 1) & mask;
    slot_key_store_[i] = key;
    slot_span_store_[i] = {static_cast<std::uint32_t>(flat_store_.size()),
                           static_cast<std::uint32_t>(indices.size())};
    flat_store_.insert(flat_store_.end(), indices.begin(), indices.end());
  }
  index_build_.clear();
}

void CompiledPolicyImage::adopt_owned_storage() noexcept {
  entries_ = entries_store_;
  mode_sids_ = mode_store_;
  slot_keys_ = slot_key_store_;
  slot_spans_ = slot_span_store_;
  flat_index_ = flat_store_;
}

// ------------------------------------------------------------ copy support

CompiledPolicyImage::CompiledPolicyImage(const CompiledPolicyImage& other)
    : name_(other.name_),
      version_(other.version_),
      default_allow_(other.default_allow_),
      sids_(other.sids_),
      wildcard_sid_(other.wildcard_sid_),
      entries_store_(other.entries_store_),
      metas_(other.metas_),
      mode_store_(other.mode_store_),
      slot_key_store_(other.slot_key_store_),
      slot_span_store_(other.slot_span_store_),
      flat_store_(other.flat_store_),
      meta_offsets_(other.meta_offsets_),
      meta_arena_(other.meta_arena_),
      meta_arena_len_(other.meta_arena_len_),
      meta_count_(other.meta_count_),
      buffer_(other.buffer_),
      index_build_(other.index_build_),
      default_allow_decision_(other.default_allow_decision_),
      default_deny_decision_(other.default_deny_decision_) {
  // Rebind each view: to this image's own store when the source aliased
  // its store, verbatim (shared buffer_) when the source borrowed.
  entries_ = other.entries_.data() == other.entries_store_.data()
                 ? std::span<const Entry>(entries_store_)
                 : other.entries_;
  mode_sids_ = other.mode_sids_.data() == other.mode_store_.data()
                   ? std::span<const mac::Sid>(mode_store_)
                   : other.mode_sids_;
  slot_keys_ = other.slot_keys_.data() == other.slot_key_store_.data()
                   ? std::span<const std::uint64_t>(slot_key_store_)
                   : other.slot_keys_;
  slot_spans_ = other.slot_spans_.data() == other.slot_span_store_.data()
                    ? std::span<const SlotSpan>(slot_span_store_)
                    : other.slot_spans_;
  flat_index_ = other.flat_index_.data() == other.flat_store_.data()
                    ? std::span<const std::uint32_t>(flat_store_)
                    : other.flat_index_;
  if (meta_arena_ != nullptr) lazy_metas_.init(meta_count_);
}

CompiledPolicyImage& CompiledPolicyImage::operator=(
    const CompiledPolicyImage& other) {
  if (this != &other) *this = CompiledPolicyImage(other);  // copy, then move
  return *this;
}

// --------------------------------------------------------- from_policy_set

CompiledPolicyImage CompiledPolicyImage::from_policy_set(
    const PolicySet& set, std::shared_ptr<mac::SidTable> sids) {
  Builder builder(set.name(), set.version(), std::move(sids));
  builder.set_default_allow(set.default_allow());
  for (const PolicyRule& rule : set.rules()) {
    builder.add_rule(rule.id, rule.subject, rule.object, rule.permission,
                     rule.modes, rule.priority, rule.to_string());
  }
  return builder.build();
}

// -------------------------------------------------------------- resolution

SidRequest CompiledPolicyImage::resolve(
    const AccessRequest& request) const noexcept {
  SidRequest resolved;
  resolved.subject = sids_->find(request.subject);
  resolved.object = sids_->find(request.object);
  resolved.access = request.access;
  resolved.mode = mode_sid(request.mode);
  return resolved;
}

mac::Sid CompiledPolicyImage::mode_sid(
    const threat::ModeId& mode) const noexcept {
  if (mode.value.empty()) return mac::kNullSid;
  const mac::Sid sid = sids_->find(mode.value);
  return sid == mac::kNullSid ? kUnresolvedSid : sid;
}

std::uint64_t CompiledPolicyImage::request_mode_bits(
    mac::Sid mode) const noexcept {
  if (mode == mac::kNullSid) return ~std::uint64_t{0};
  for (std::size_t bit = 0; bit < mode_sids_.size(); ++bit) {
    if (mode_sids_[bit] == mode) return std::uint64_t{1} << bit;
  }
  return 0;  // known request mode, but no rule ever names it
}

// -------------------------------------------------------------- meta access

std::string_view CompiledPolicyImage::meta_id_view(
    std::uint32_t m) const noexcept {
  if (meta_arena_ == nullptr) {
    return m < metas_.size() ? std::string_view(metas_[m].id)
                             : std::string_view{};
  }
  if (m >= meta_count_) return {};
  const std::uint32_t begin = meta_offsets_[2 * m];
  const std::uint32_t end = meta_offsets_[2 * m + 1];
  if (begin > end || end > meta_arena_len_) return {};  // corrupt sealed arena
  return {meta_arena_ + begin, end - begin};
}

std::string_view CompiledPolicyImage::meta_reason_view(
    std::uint32_t m) const noexcept {
  if (meta_arena_ == nullptr) {
    return m < metas_.size() ? std::string_view(metas_[m].allow.reason)
                             : std::string_view{};
  }
  if (m >= meta_count_) return {};
  const std::uint32_t begin = meta_offsets_[2 * m + 1];
  const std::uint32_t end = meta_offsets_[2 * m + 2];
  if (begin > end || end > meta_arena_len_) return {};  // corrupt sealed arena
  return {meta_arena_ + begin, end - begin};
}

const CompiledPolicyImage::Meta& CompiledPolicyImage::meta_at(
    std::uint32_t m) const {
  if (meta_arena_ == nullptr) return metas_[m];
  return lazy_metas_.at(m, [this](std::uint32_t i) {
    auto meta = std::make_unique<Meta>();
    fill_meta(*meta, std::string(meta_id_view(i)), entries_[i].permission,
              std::string(meta_reason_view(i)));
    return meta.release();
  });
}

// -------------------------------------------------------------- evaluation

CompiledPolicyImage::SlotSpan CompiledPolicyImage::index_span(
    std::uint64_t key) const noexcept {
  // The bounds guards here and in best_entry_for (one-revolution probe
  // bound, span bounds, entry and meta index range) are dead weight on a
  // validated image but are what makes evaluation over a sealed-trust
  // blob — whose index was attached without the O(n) semantic validation
  // pass — fail CLOSED on corruption instead of walking out of bounds
  // (DESIGN.md "Zero-copy image views").
  const std::size_t mask = slot_keys_.size() - 1;
  const std::size_t slot = mac::probe::find_slot(
      slot_keys_.data(), mask, key, mac::mix_av_key(key) & mask);
  if (slot_keys_[slot] != key) return {};
  const SlotSpan span = slot_spans_[slot];
  const std::size_t flat_size = flat_index_.size();
  if (span.offset > flat_size || span.count > flat_size - span.offset) {
    return {};
  }
  return span;
}

std::int64_t CompiledPolicyImage::best_entry_for(
    mac::Sid subject, mac::Sid object, std::uint64_t mode_bits,
    SlotSpan wildcard_span) const noexcept {
  // An entry is indexed under its literal (subject, object) SID pair, so
  // the candidates for a request are exactly the four wildcard
  // combinations. Revisiting an entry through two probes (a "*" request
  // identity) is harmless: the tie-break is idempotent, and a pure
  // maximum is also probe-order independent.
  const std::size_t entry_count = entries_.size();
  const Entry* best = nullptr;
  std::uint32_t best_index = 0;
  const auto scan = [&](SlotSpan span) noexcept {
    for (std::uint32_t c = 0; c < span.count; ++c) {
      const std::uint32_t i = flat_index_[span.offset + c];
      if (i >= entry_count) continue;
      const Entry& entry = entries_[i];
      if (entry.subject != wildcard_sid_ && entry.subject != subject) continue;
      if (entry.object != wildcard_sid_ && entry.object != object) continue;
      if (entry.mode_mask != 0 && (entry.mode_mask & mode_bits) == 0) continue;
      // Priority wins; ties break on specificity, then insertion order
      // (lowest index = first added) — identical to the string path.
      if (best == nullptr || entry.priority > best->priority ||
          (entry.priority == best->priority &&
           entry.specificity > best->specificity) ||
          (entry.priority == best->priority &&
           entry.specificity == best->specificity && i < best_index)) {
        best = &entry;
        best_index = i;
      }
    }
  };
  scan(index_span(pair_key(subject, object)));
  scan(index_span(pair_key(subject, wildcard_sid_)));
  scan(index_span(pair_key(wildcard_sid_, object)));
  scan(wildcard_span);
  return best == nullptr ? -1 : static_cast<std::int64_t>(best_index);
}

const Decision& CompiledPolicyImage::decision_for(std::int64_t best,
                                                  AccessType access) const {
  if (best < 0) {
    return default_allow_ ? default_allow_decision_ : default_deny_decision_;
  }
  const Entry& entry = entries_[static_cast<std::size_t>(best)];
  if (entry.meta >= meta_count()) {
    return default_allow_ ? default_allow_decision_ : default_deny_decision_;
  }
  const Meta& meta = meta_at(entry.meta);
  if (permits(entry.permission, access)) return meta.allow;
  return access == AccessType::kRead ? meta.deny_read : meta.deny_write;
}

bool CompiledPolicyImage::allowed_for(std::int64_t best,
                                      AccessType access) const noexcept {
  // Mirrors decision_for branch for branch (including the corrupt-meta
  // fallback to the default verdict) so the verdict-only batch path can
  // never disagree with the Decision path.
  if (best < 0) return default_allow_;
  const Entry& entry = entries_[static_cast<std::size_t>(best)];
  if (entry.meta >= meta_count()) return default_allow_;
  return permits(entry.permission, access);
}

const Decision& CompiledPolicyImage::evaluate_impl(
    const SidRequest& request, std::uint64_t mode_bits) const {
  // Sealed-image invariant (debug): build() froze the grouping into the
  // flat probe tables; concurrent const evaluation relies on nothing
  // structural being left to mutate lazily.
  assert(index_build_.empty() && !slot_keys_.empty() &&
         "CompiledPolicyImage: evaluate on an unsealed image");
  const SlotSpan wildcard_span =
      index_span(pair_key(wildcard_sid_, wildcard_sid_));
  return decision_for(
      best_entry_for(request.subject, request.object, mode_bits, wildcard_span),
      request.access);
}

Decision CompiledPolicyImage::evaluate(const SidRequest& request) const {
  return evaluate_impl(request, request_mode_bits(request.mode));
}

template <typename Materialise>
void CompiledPolicyImage::evaluate_batch_staged(
    std::span<const SidRequest> requests, Materialise&& materialise) const {
  if (requests.empty()) return;
  assert(index_build_.empty() && !slot_keys_.empty() &&
         "CompiledPolicyImage: evaluate on an unsealed image");

  // The (*,*) probe key is request-independent: resolve its span once
  // per call instead of hashing and probing it per element.
  const SlotSpan wildcard_span =
      index_span(pair_key(wildcard_sid_, wildcard_sid_));

  // Call-local memo over (pair key, mode bits) → winning entry. Exact,
  // not heuristic: best-entry selection never reads the access type, so
  // two requests sharing subject, object and mode bits share a winner
  // even when one reads and the other writes — precisely the fleet
  // workload shape (per-pair read/write alternation). Stack storage
  // keeps the batch path const and thread-safe.
  //
  // 2-way set-associative, 256 sets: a vehicle's question set holds ~100
  // distinct pairs, so a small direct-mapped memo thrashes on exactly
  // the alternation it exists to serve (two hot keys sharing a set evict
  // each other every revisit). Two ways with shift-to-second-way
  // insertion make any pair of colliding hot keys stable residents.
  constexpr std::size_t kMemoSets = 256;
  struct MemoSlot {
    std::uint64_t pair = 0;
    std::uint64_t bits = 0;
    std::int64_t best = 0;
    bool used = false;
  };
  struct MemoSet {
    MemoSlot way[2];
  };
  MemoSet memo[kMemoSets];

  // Chunked three-wave pipeline: resolve (pack keys, consult memo),
  // probe (walk the sealed index for memo misses, origins prefetched a
  // wave ahead), copy (materialise Decisions). All scratch is
  // stack-resident so the sweep stays allocation-free.
  constexpr std::size_t kChunk = 256;
  std::uint64_t pair_keys[kChunk];
  std::uint64_t bits[kChunk];
  std::int64_t best[kChunk];
  std::uint32_t miss[kChunk];
  std::uint32_t memo_slot_of[kChunk];

  // Fleet batches arrive vehicle-major, so the mode rarely changes
  // between neighbours — resolve its bit pattern once per run.
  mac::Sid run_mode = kUnresolvedSid;
  std::uint64_t mode_bits = 0;
  bool have_run = false;

  const std::size_t n = requests.size();
  const std::size_t index_mask = slot_keys_.size() - 1;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t count = std::min(kChunk, n - base);
    std::size_t miss_count = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const SidRequest& request = requests[base + j];
      if (!have_run || request.mode != run_mode) {
        run_mode = request.mode;
        mode_bits = request_mode_bits(run_mode);
        have_run = true;
      }
      const std::uint64_t pk = pair_key(request.subject, request.object);
      pair_keys[j] = pk;
      bits[j] = mode_bits;
      const std::size_t m = static_cast<std::size_t>(
                                mac::mix_av_key(pk ^ mode_bits)) &
                            (kMemoSets - 1);
      memo_slot_of[j] = static_cast<std::uint32_t>(m);
      const MemoSet& set = memo[m];
      if (set.way[0].used && set.way[0].pair == pk &&
          set.way[0].bits == mode_bits) {
        best[j] = set.way[0].best;
      } else if (set.way[1].used && set.way[1].pair == pk &&
                 set.way[1].bits == mode_bits) {
        best[j] = set.way[1].best;
      } else {
        miss[miss_count++] = static_cast<std::uint32_t>(j);
      }
    }
    if (miss_count != 0) {
      // Request every miss's first-probe cache line before any of them
      // resolves, so the index loads overlap each other instead of
      // serialising behind the candidate scans.
      for (std::size_t k = 0; k < miss_count; ++k) {
        mac::probe::prefetch_slot(
            slot_keys_.data(),
            static_cast<std::size_t>(mac::mix_av_key(pair_keys[miss[k]])) &
                index_mask);
      }
      for (std::size_t k = 0; k < miss_count; ++k) {
        const std::uint32_t j = miss[k];
        // Re-probe before computing: a chunk's resolve wave ran against
        // the memo state BEFORE any of this chunk's fills, so duplicate
        // keys within one chunk (the read/write alternation) all land in
        // the miss list — the first occurrence fills, the rest hit here.
        MemoSet& set = memo[memo_slot_of[j]];
        if (set.way[0].used && set.way[0].pair == pair_keys[j] &&
            set.way[0].bits == bits[j]) {
          best[j] = set.way[0].best;
          continue;
        }
        if (set.way[1].used && set.way[1].pair == pair_keys[j] &&
            set.way[1].bits == bits[j]) {
          best[j] = set.way[1].best;
          continue;
        }
        const SidRequest& request = requests[base + j];
        const std::int64_t b = best_entry_for(request.subject, request.object,
                                              bits[j], wildcard_span);
        best[j] = b;
        set.way[1] = set.way[0];
        set.way[0] = MemoSlot{pair_keys[j], bits[j], b, true};
      }
    }
    for (std::size_t j = 0; j < count; ++j) {
      materialise(base + j, best[j], requests[base + j].access);
    }
  }
}

void CompiledPolicyImage::evaluate_batch(std::span<const SidRequest> requests,
                                         std::span<Decision> out) const {
  if (requests.size() != out.size()) {
    throw std::invalid_argument(
        "CompiledPolicyImage::evaluate_batch: span lengths differ");
  }
  evaluate_batch_staged(
      requests, [&](std::size_t i, std::int64_t best, AccessType access) {
        out[i] = decision_for(best, access);
      });
}

void CompiledPolicyImage::evaluate_batch_allowed(
    std::span<const SidRequest> requests,
    std::span<std::uint8_t> allowed_out) const {
  if (requests.size() != allowed_out.size()) {
    throw std::invalid_argument(
        "CompiledPolicyImage::evaluate_batch_allowed: span lengths differ");
  }
  evaluate_batch_staged(
      requests, [&](std::size_t i, std::int64_t best, AccessType access) {
        allowed_out[i] = allowed_for(best, access) ? 1 : 0;
      });
}

std::uint32_t CompiledPolicyImage::probe_depth(
    const SidRequest& request) const noexcept {
  if (slot_keys_.empty()) return 0;
  const std::size_t mask = slot_keys_.size() - 1;
  const std::uint64_t probes[4] = {
      pair_key(request.subject, request.object),
      pair_key(request.subject, wildcard_sid_),
      pair_key(wildcard_sid_, request.object),
      pair_key(wildcard_sid_, wildcard_sid_),
  };
  std::uint32_t depth = 0;
  for (const std::uint64_t key : probes) {
    depth += mac::probe::probe_depth(slot_keys_.data(), mask, key,
                                     mac::mix_av_key(key) & mask);
  }
  return depth;
}

// ------------------------------------------------------------- fingerprint

std::uint64_t CompiledPolicyImage::fingerprint() const noexcept {
  // Built on the bulk hash_chain primitives, not byte-wise FNV: the blob
  // loader recomputes this over every reconstructed image as its final
  // cross-check, so the fingerprint is on the vehicle's boot path. The
  // value is endian-stable (little-endian chunking) and may be embedded
  // in persistent blobs.
  std::uint64_t hash = mac::hash_chain_bytes(name_, mac::kFnv1aOffset);
  hash = mac::hash_chain_u64(version_, hash);
  hash = mac::hash_chain_u64(default_allow_ ? 1 : 0, hash);
  // The mode table and wildcard SID shape decision outcomes (mask bit
  // positions, wildcard matching), so the persistent-blob cross-check
  // must cover them too. from_policy_set interns in rule order, so equal
  // rule sets over equal SID tables still fingerprint equal.
  hash = mac::hash_chain_u64(wildcard_sid_, hash);
  for (const mac::Sid mode : mode_sids_) hash = mac::hash_chain_u64(mode, hash);
  // Entries feed four rotating lanes (entry i -> lane i mod 4), folded
  // deterministically at the end: the mix chain is latency-bound, and the
  // entry section is the bulk of the hash — four independent chains keep
  // the blob loader's cross-check off the boot path's critical path.
  // (Seed derivation and fold order are mac::HashLanes — the one
  // definition shared with hash_chain_bytes. The allow reason is read
  // through meta_reason_view, so a borrowed image fingerprints straight
  // off its arena without materialising a single Meta.)
  mac::HashLanes lanes(hash);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    std::uint64_t& lane = lanes.lane[i & 3];
    lane = mac::hash_chain_u64(
        (static_cast<std::uint64_t>(entry.subject) << 32) | entry.object, lane);
    lane = mac::hash_chain_u64(entry.mode_mask, lane);
    lane = mac::hash_chain_u64((static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(entry.priority))
                                << 8) |
                                   static_cast<std::uint64_t>(entry.permission),
                               lane);
    lane = mac::hash_chain_bytes(meta_reason_view(entry.meta), lane);
  }
  return mac::hash_chain_u64(entries_.size(), lanes.fold());
}

}  // namespace psme::core
