// psme::mac — type-enforcement policy database.
//
// Models the core of an SELinux-style policy:
//   * object classes with named permissions ("can_asset" with {read, write}),
//   * types and attributes (named groups of types),
//   * allow rules  (allow <source> <target> : <class> { perms })
//   * neverallow rules — compile-time assertions that no allow rule may
//     violate; the paper's policy-update path relies on this to stop an
//     ill-formed update from widening access.
//
// A PolicyDb is built from rules via PolicyDbBuilder, which validates
// references and checks every allow against every neverallow. The compiled
// form is SID-interned: every type and class name is resolved to a dense
// std::uint32_t (mac::SidTable) at build time, attribute expansion
// included, and lookups probe a flat open-addressing hash table keyed by
// the packed (source_sid, target_sid, class_sid) triple. The decision path
// never hashes or compares a string; the string overloads below are thin
// shims kept for tests, examples and audit tooling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mac/batch_probe.h"
#include "mac/sid_table.h"

namespace psme::mac {

/// Bitmask of permissions within one object class (bit i = i-th registered
/// permission of that class).
using AccessVector = std::uint32_t;

struct ClassDef {
  std::string name;
  std::vector<std::string> permissions;  // at most 32, enforced by builder
  Sid sid = kNullSid;                    // assigned at build time

  /// Bit for a permission name; nullopt if unknown.
  [[nodiscard]] std::optional<AccessVector> bit(std::string_view perm) const noexcept;
};

/// One type-enforcement rule in source form. `source`/`target` may name a
/// type or an attribute.
struct TeRule {
  std::string source;
  std::string target;
  std::string object_class;
  std::vector<std::string> permissions;
};

/// Flat open-addressing hash table: packed SID key -> access vector.
/// Linear probing over a power-of-two slot array; key 0 marks an empty
/// slot (valid packed keys always carry a non-zero class SID). Every walk
/// (find, merge, grow) is probe::find_slot, bounded to one revolution;
/// merge keeps the load factor at or below 0.7, so a walk always meets
/// its key or an empty slot. Grows only at build time; find() never
/// allocates.
class AvTable {
 public:
  [[nodiscard]] AccessVector find(std::uint64_t key) const noexcept {
    if (size_ == 0) return 0;
    const std::size_t mask = keys_.size() - 1;
    const std::size_t i =
        probe::find_slot(keys_.data(), mask, key, mix_av_key(key) & mask);
    return keys_[i] == key ? values_[i] : 0;
  }

  /// ORs `av` into the slot for `key`, growing as needed.
  void merge(std::uint64_t key, AccessVector av);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void grow();

  std::vector<std::uint64_t> keys_;
  std::vector<AccessVector> values_;
  std::size_t size_ = 0;
};

/// Compiled, queryable policy.
///
/// Concurrency: a built PolicyDb is immutable — PolicyDbBuilder::build
/// returns it by value and nothing mutates it afterwards — so every const
/// lookup below (SID or string form) is lock-free and safe from any
/// number of concurrent threads, provided the build happened-before the
/// readers (e.g. via thread creation). The string shims additionally
/// read the shared SidTable, so the single-writer rule applies: no NEW
/// names may be interned concurrently.
class PolicyDb {
 public:
  PolicyDb() : sids_(std::make_shared<SidTable>()) {}

  // -- SID-space queries (the hot path; no strings, no allocation) -------

  /// Granted access vector for (source, target, class) SIDs; 0 when
  /// nothing is allowed or any SID is kNullSid.
  [[nodiscard]] AccessVector lookup(Sid source, Sid target, Sid cls) const noexcept {
    if (source == kNullSid || target == kNullSid || cls == kNullSid) return 0;
    return av_.find(pack_av_key(source, target, cls));
  }

  /// True when every bit of `required` is granted (pass a single
  /// permission bit for the classic perm check).
  [[nodiscard]] bool allowed(Sid source, Sid target, Sid cls,
                             AccessVector required) const noexcept {
    return required != 0 &&
           (lookup(source, target, cls) & required) == required;
  }

  [[nodiscard]] const ClassDef* find_class(Sid cls) const noexcept;
  [[nodiscard]] bool knows_type(Sid sid) const noexcept {
    return sid != kNullSid && sid < is_type_.size() && is_type_[sid] != 0;
  }

  // -- string shims (tests, examples, audit tooling) ---------------------

  /// As above, translating names through the SID table first. Unknown
  /// names resolve to kNullSid and therefore to 0 / false.
  [[nodiscard]] AccessVector lookup(std::string_view source_type,
                                    std::string_view target_type,
                                    std::string_view object_class) const noexcept;

  /// True when `perm` of `object_class` is granted.
  [[nodiscard]] bool allowed(std::string_view source_type,
                             std::string_view target_type,
                             std::string_view object_class,
                             std::string_view perm) const noexcept;

  [[nodiscard]] const ClassDef* find_class(std::string_view name) const noexcept;
  [[nodiscard]] bool knows_type(std::string_view name) const noexcept {
    return knows_type(sids_->find(name));
  }

  // -- observation -------------------------------------------------------

  [[nodiscard]] std::size_t rule_count() const noexcept { return av_.size(); }

  /// Monotonic sequence number; bumped on every rebuild so caches (the
  /// AVC) know to revalidate.
  [[nodiscard]] std::uint64_t seqno() const noexcept { return seqno_; }

  /// The interner this database was compiled against. Shared so that an
  /// engine rebuilding its database keeps SIDs stable across reloads, and
  /// so runtime callers (the AVC string shims) can intern names they meet
  /// after the build — growing the table never changes an issued SID.
  [[nodiscard]] const std::shared_ptr<SidTable>& sid_table() const noexcept {
    return sids_;
  }
  [[nodiscard]] const SidTable& sids() const noexcept { return *sids_; }

 private:
  friend class PolicyDbBuilder;

  std::shared_ptr<SidTable> sids_;
  std::vector<ClassDef> classes_;
  std::vector<std::uint8_t> is_type_;  // indexed by SID at build time
  AvTable av_;
  std::uint64_t seqno_ = 0;
};

/// Accumulates declarations and rules, validates, and compiles a PolicyDb.
class PolicyDbBuilder {
 public:
  /// Declares a class with 1..32 uniquely-named permissions. Throws
  /// std::invalid_argument on a duplicate class, a duplicate permission
  /// name, or a permission count that would overflow the AccessVector.
  PolicyDbBuilder& add_class(std::string name,
                             std::vector<std::string> permissions);

  /// Declares a type. Throws std::invalid_argument on redeclaration (of a
  /// type or an attribute of the same name).
  PolicyDbBuilder& add_type(std::string name);

  /// Declares an attribute as a named group of existing types. Throws
  /// std::invalid_argument on redeclaration.
  PolicyDbBuilder& add_attribute(std::string name,
                                 std::vector<std::string> member_types);

  PolicyDbBuilder& allow(TeRule rule);

  /// Asserts that no allow rule may grant these permissions. Checked at
  /// build(); violations throw std::logic_error naming the offender.
  PolicyDbBuilder& neverallow(TeRule rule);

  /// Validates everything and compiles. `seqno` tags the build. When
  /// `sids` is provided the database is compiled against that interner
  /// (names already interned keep their SIDs — this is how MacEngine keeps
  /// labels and caches valid across policy reloads); otherwise a fresh
  /// table is created.
  [[nodiscard]] PolicyDb build(std::uint64_t seqno = 1,
                               std::shared_ptr<SidTable> sids = nullptr) const;

 private:
  /// Expands a type-or-attribute name into concrete types.
  [[nodiscard]] const std::vector<std::string>& expand(
      const std::string& name, std::vector<std::string>& scratch) const;

  void validate_rule(const TeRule& rule, const char* kind) const;

  std::vector<ClassDef> classes_;
  std::set<std::string> types_;
  std::map<std::string, std::vector<std::string>> attributes_;
  std::vector<TeRule> allows_;
  std::vector<TeRule> neverallows_;
};

}  // namespace psme::mac
