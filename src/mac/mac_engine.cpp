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
  // The asset class's bit layout follows registration order above and
  // is stable across rebuilds. The AVC notices the seqno change on its
  // next query.
  Generation next;
  next.db = builder.build(next_seqno_++, sids_);
  const ClassDef* asset = next.db.find_class(std::string_view(kAssetClass));
  next.asset_class_sid = asset->sid;
  next.read_mask = *asset->bit("read");
  next.write_mask = *asset->bit("write");
  active_ = std::move(next);
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

core::Decision MacEngine::decide(Sid source, Sid target, AccessVector av,
                                 core::AccessType access) {
  const AccessVector need = access == core::AccessType::kRead
                                ? active_.read_mask
                                : active_.write_mask;
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
  if (permissive_) {
    ++permissive_denials_;
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
  const Sid source = type_sid_of(request.subject);
  const Sid target = type_sid_of(request.object);
  const AccessVector av =
      avc_.query(active_.db, source, target, active_.asset_class_sid);
  return decide(source, target, av, request.access);
}

bool MacEngine::allowed(const std::string& source_type,
                        const std::string& target_type,
                        const std::string& perm) {
  return avc_.allowed(active_.db, source_type, target_type, kAssetClass, perm);
}

}  // namespace psme::mac
