#include "mac/mac_engine.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace psme::mac {

MacEngine::MacEngine(std::size_t avc_capacity)
    : sids_(std::make_shared<SidTable>()), avc_(avc_capacity) {
  default_type_sid_ = sids_->intern(default_context_.type());
  rebuild();  // empty database: everything denied (least privilege)
}

void MacEngine::label(const std::string& entity, SecurityContext context) {
  if (entity.empty()) {
    throw std::invalid_argument("MacEngine::label: empty entity id");
  }
  label_type_sids_[entity] = sids_->intern(context.type());
  labels_[entity] = std::move(context);
}

const SecurityContext& MacEngine::context_of(const std::string& entity) const {
  const auto it = labels_.find(entity);
  return it == labels_.end() ? default_context_ : it->second;
}

void MacEngine::set_default_context(SecurityContext context) {
  default_context_ = std::move(context);
  default_type_sid_ = sids_->intern(default_context_.type());
}

Sid MacEngine::type_sid_of(const std::string& entity) const noexcept {
  const auto it = label_type_sids_.find(entity);
  return it == label_type_sids_.end() ? default_type_sid_ : it->second;
}

void MacEngine::rebuild() {
  PolicyDbBuilder builder;
  builder.add_class(kAssetClass, {"read", "write"});
  // The builder rejects duplicate type declarations; modules may share
  // types with each other or with the default context, so dedupe here.
  std::set<std::string> declared;
  auto declare = [&](const std::string& t) {
    if (declared.insert(t).second) builder.add_type(t);
  };
  declare(default_context_.type());
  for (const auto& mod : modules_) {
    for (const auto& t : mod.types) declare(t);
  }
  for (const auto& mod : modules_) {
    for (const auto& rule : mod.allows) builder.allow(rule);
    for (const auto& cond : mod.conditional_allows) {
      const auto it = booleans_.find(cond.boolean);
      if (it == booleans_.end()) {
        throw std::invalid_argument("conditional rule references undeclared "
                                    "boolean '" + cond.boolean + "'");
      }
      if (it->second == cond.active_when) builder.allow(cond.rule);
    }
    for (const auto& rule : mod.neverallows) builder.neverallow(rule);
  }
  // Compile the whole generation — database plus the SID-space
  // coordinates of the asset class (the bit layout follows registration
  // order above and is stable across rebuilds) — into one immutable
  // snapshot, then publish it atomically. Concurrent readers keep
  // answering from whichever snapshot they pinned; the AVC notices the
  // seqno change lazily on the owner's next query.
  auto snap = std::make_shared<DbSnapshot>();
  snap->db = builder.build(next_seqno_++, sids_);
  const ClassDef* asset = snap->db.find_class(std::string_view(kAssetClass));
  snap->asset_class_sid = asset->sid;
  snap->read_mask = *asset->bit("read");
  snap->write_mask = *asset->bit("write");
  {
    std::scoped_lock lock(publish_mutex_);
    active_ = std::move(snap);
  }
}

void MacEngine::load_module(PolicyModule module) {
  if (module.name.empty()) {
    throw std::invalid_argument("load_module: module name required");
  }
  const bool duplicate = std::any_of(
      modules_.begin(), modules_.end(),
      [&](const PolicyModule& m) { return m.name == module.name; });
  if (duplicate) {
    throw std::invalid_argument("load_module: module '" + module.name +
                                "' already loaded");
  }
  // Declare the module's booleans (defaults apply unless already set by an
  // earlier module — redeclaration keeps the existing runtime value).
  std::vector<std::string> fresh_booleans;
  for (const auto& [name, default_value] : module.booleans) {
    if (booleans_.emplace(name, default_value).second) {
      fresh_booleans.push_back(name);
    }
  }
  modules_.push_back(std::move(module));
  try {
    rebuild();
  } catch (...) {
    modules_.pop_back();
    for (const auto& name : fresh_booleans) booleans_.erase(name);
    rebuild();  // restore previous state
    throw;
  }
}

void MacEngine::set_boolean(const std::string& name, bool value) {
  const auto it = booleans_.find(name);
  if (it == booleans_.end()) {
    throw std::invalid_argument("set_boolean: undeclared boolean '" + name + "'");
  }
  if (it->second == value) return;
  it->second = value;
  rebuild();
}

bool MacEngine::boolean(const std::string& name) const {
  const auto it = booleans_.find(name);
  if (it == booleans_.end()) {
    throw std::invalid_argument("boolean: undeclared boolean '" + name + "'");
  }
  return it->second;
}

bool MacEngine::unload_module(const std::string& name) {
  const auto it =
      std::find_if(modules_.begin(), modules_.end(),
                   [&](const PolicyModule& m) { return m.name == name; });
  if (it == modules_.end()) return false;
  modules_.erase(it);
  rebuild();
  return true;
}

std::vector<std::string> MacEngine::loaded_modules() const {
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const auto& m : modules_) names.push_back(m.name);
  return names;
}

core::Decision MacEngine::decide(const DbSnapshot& snap, Sid source,
                                 Sid target, AccessVector av,
                                 core::AccessType access,
                                 bool permissive) const {
  const AccessVector need =
      access == core::AccessType::kRead ? snap.read_mask : snap.write_mask;
  if ((av & need) != 0) {
    // Hot path: both literals fit the small-string buffer, so a cached
    // allow constructs no heap memory at all.
    return core::Decision::allow("te", "avc: granted");
  }
  // Denials reverse-map SIDs to names for the audit trail; this is where
  // the interner's reverse table earns its keep. SIDs the interner never
  // issued still deny with a placeholder name instead of throwing.
  constexpr std::string_view kInvalidSid = "<invalid-sid>";
  const std::string_view source_name =
      sids_->contains(source) ? sids_->name_of(source) : kInvalidSid;
  const std::string_view target_name =
      sids_->contains(target) ? sids_->name_of(target) : kInvalidSid;
  const std::string_view perm = core::to_string(access);
  if (permissive) {
    permissive_denials_.fetch_add(1, std::memory_order_relaxed);
    return core::Decision::allow(
        "te-permissive", "would deny " + std::string(source_name) + " -> " +
                             std::string(target_name) + " " +
                             std::string(perm));
  }
  return core::Decision::deny(
      "te", "no allow rule " + std::string(source_name) + " -> " +
                std::string(target_name) + " : asset { " + std::string(perm) +
                " }");
}

core::Decision MacEngine::evaluate(const core::AccessRequest& request) {
  const DbSnapshot& snap = *active_;  // owner thread: direct read is safe
  const Sid source = type_sid_of(request.subject);
  const Sid target = type_sid_of(request.object);
  const AccessVector av =
      avc_.query(snap.db, source, target, snap.asset_class_sid);
  return decide(snap, source, target, av, request.access, permissive());
}

core::SidRequest MacEngine::resolve(const core::AccessRequest& request) const {
  core::SidRequest resolved;
  resolved.subject = type_sid_of(request.subject);
  resolved.object = type_sid_of(request.object);
  resolved.access = request.access;
  // MacEngine ignores request modes (mode gating lives in the policy
  // layer above); keep the field null so equivalent requests compare equal.
  resolved.mode = kNullSid;
  return resolved;
}

void MacEngine::evaluate_batch_allowed_shared(
    std::span<const core::SidRequest> requests,
    std::span<std::uint8_t> allowed_out) const {
  if (requests.size() != allowed_out.size()) {
    throw std::invalid_argument(
        "MacEngine::evaluate_batch_allowed_shared: span lengths differ");
  }
  // Pin one policy generation AND one enforcement mode for the whole
  // span: every element is adjudicated against the same database, masks
  // and permissive flag, even if the owner publishes a new snapshot or
  // toggles set_permissive mid-call.
  const std::shared_ptr<const DbSnapshot> snap = snapshot();
  const bool permissive_mode = permissive();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const core::SidRequest& request = requests[i];
    // SIDs beyond the packed 24-bit field (never issued by the interner;
    // e.g. core::kUnresolvedSid from a hand-built request) would alias a
    // real type — clamp them to the null SID, which can only deny.
    const Sid source =
        request.subject <= kMaxTypeSid ? request.subject : kNullSid;
    const Sid target =
        request.object <= kMaxTypeSid ? request.object : kNullSid;
    const AccessVector av =
        avc_.query_shared(snap->db, source, target, snap->asset_class_sid);
    const AccessVector need = request.access == core::AccessType::kRead
                                  ? snap->read_mask
                                  : snap->write_mask;
    const bool allowed = (av & need) != 0;
    // Permissive parity with decide(): a would-be denial is allowed but
    // counted, so telemetry sees the same totals either path.
    if (!allowed && permissive_mode) {
      permissive_denials_.fetch_add(1, std::memory_order_relaxed);
    }
    allowed_out[i] = static_cast<std::uint8_t>(allowed || permissive_mode);
  }
}

bool MacEngine::allowed(const std::string& source_type,
                        const std::string& target_type,
                        const std::string& perm) {
  return avc_.allowed(active_->db, source_type, target_type, kAssetClass, perm);
}

}  // namespace psme::mac
