// psme::mac — the software policy-enforcement engine.
//
// MacEngine translates generic access requests into type-enforcement
// queries:
//   subject id --(label map)--> source type SID
//   object  id --(label map)--> target type SID
//   read/write --> permission bit of the "asset" object class
//
// Policies are organised into named, loadable modules ("Policies are
// deployed using a modular approach", paper Sec. V-B.1): loading or
// unloading a module rebuilds the policy database with a new sequence
// number, which flushes the AVC — the same lifecycle as an SELinux policy
// reload.
//
// The engine owns a SidTable shared with every database it builds, so
// SIDs stay stable across policy reloads: entity labels are translated to
// type SIDs once (at label() time) and the cached mapping survives any
// number of rebuilds. A cached evaluate() therefore runs entirely in SID
// space and performs no heap allocation: two label-map probes, one AVC
// hit, and a Decision whose strings fit in the small-string buffer.
// Denials (never the hot path) reverse-map SIDs to names for the audit
// reason text.
//
// Concurrency (DESIGN.md "Concurrency model"): single-threaded, like
// sim::Scheduler — one thread labels entities, loads modules and
// evaluates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "mac/avc.h"
#include "mac/context.h"
#include "mac/sid_table.h"
#include "mac/te_policy.h"

namespace psme::mac {

/// A rule that is active only while a named policy boolean has the given
/// value — SELinux's conditional policy ("booleans"). Toggling the boolean
/// at runtime rebuilds the database and flushes the AVC, without touching
/// the module source.
struct ConditionalRule {
  std::string boolean;
  bool active_when = true;
  TeRule rule;
};

/// Declarations and rules contributed by one policy module.
struct PolicyModule {
  std::string name;
  std::vector<std::string> types;
  std::vector<TeRule> allows;
  std::vector<TeRule> neverallows;
  /// Boolean declarations: name -> default value.
  std::vector<std::pair<std::string, bool>> booleans;
  std::vector<ConditionalRule> conditional_allows;
};

class MacEngine final {
 public:
  /// The object class used for asset accesses and its permission names.
  static constexpr const char* kAssetClass = "asset";

  explicit MacEngine(std::size_t avc_capacity = 512);

  // -- labelling ---------------------------------------------------------

  /// Associates an entity id (entry point, node, asset) with a context.
  /// The context's type is interned immediately; evaluate() never touches
  /// the context string again. Unlabelled entities fall back to the
  /// configurable default context.
  void label(const std::string& entity, SecurityContext context);
  [[nodiscard]] const SecurityContext& context_of(const std::string& entity) const;
  void set_default_context(SecurityContext context);

  // -- module lifecycle --------------------------------------------------

  /// Loads a module and rebuilds the policy database. Throws on validation
  /// failure (unknown types, neverallow violations) without changing the
  /// active database — failed updates must not leave the engine broken.
  void load_module(PolicyModule module);

  /// Unloads by name; returns false when not loaded. Rebuilds on success.
  bool unload_module(const std::string& name);

  /// Sets a policy boolean (must be declared by a loaded module). A value
  /// change rebuilds the database — conditional rules toggle — and the AVC
  /// revalidates on the next query. Throws std::invalid_argument for an
  /// undeclared boolean.
  void set_boolean(const std::string& name, bool value);
  [[nodiscard]] bool boolean(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> loaded_modules() const;
  [[nodiscard]] std::uint64_t policy_seqno() const noexcept {
    return active_.db.seqno();
  }

  // -- enforcement -------------------------------------------------------

  [[nodiscard]] core::Decision evaluate(const core::AccessRequest& request);

  /// Direct TE query (bypasses the request translation; used by tests).
  [[nodiscard]] bool allowed(const std::string& source_type,
                             const std::string& target_type,
                             const std::string& perm);

  [[nodiscard]] const AvcStats& avc_stats() const noexcept {
    return avc_.stats();
  }

  /// The active database. The reference is valid only until the next
  /// policy mutation (load_module / unload_module / set_boolean) — each
  /// rebuild replaces the database. Re-call after a reload instead of
  /// holding the reference across it.
  [[nodiscard]] const PolicyDb& db() const noexcept { return active_.db; }

  /// The engine's interner (stable across reloads; for tests and audit).
  [[nodiscard]] const SidTable& sids() const noexcept { return *sids_; }

  /// Source/target type SID an entity currently resolves to.
  [[nodiscard]] Sid type_sid_of(const std::string& entity) const noexcept;

  /// Permissive mode logs would-be denials but allows them (SELinux's
  /// permissive mode; useful when introducing policies to a live fleet).
  void set_permissive(bool permissive) noexcept { permissive_ = permissive; }
  [[nodiscard]] bool permissive() const noexcept { return permissive_; }
  [[nodiscard]] std::uint64_t permissive_denials() const noexcept {
    return permissive_denials_;
  }

 private:
  /// One policy generation: the compiled database plus the SID-space
  /// coordinates of its asset class.
  struct Generation {
    PolicyDb db;
    Sid asset_class_sid = kNullSid;
    AccessVector read_mask = 0;
    AccessVector write_mask = 0;
  };

  void rebuild();

  /// Maps an answered access vector to evaluate()'s Decision.
  [[nodiscard]] core::Decision decide(Sid source, Sid target, AccessVector av,
                                      core::AccessType access);

  std::shared_ptr<SidTable> sids_;
  std::map<std::string, SecurityContext> labels_;
  /// entity id -> type SID, maintained by label(); the evaluate() fast
  /// path reads only this map.
  std::unordered_map<std::string, Sid, SidTable::Hash, std::equal_to<>>
      label_type_sids_;
  SecurityContext default_context_{"system", "object", "unlabeled_t"};
  Sid default_type_sid_ = kNullSid;
  std::vector<PolicyModule> modules_;
  std::map<std::string, bool> booleans_;
  /// Replaced whole by rebuild(), which builds the next generation
  /// first: a throwing build leaves this one in force.
  Generation active_;
  Avc avc_;
  std::uint64_t next_seqno_ = 1;
  bool permissive_ = false;
  std::uint64_t permissive_denials_ = 0;
};

}  // namespace psme::mac
