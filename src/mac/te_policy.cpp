#include "mac/te_policy.h"

#include <algorithm>
#include <stdexcept>

#include "mac/batch_probe.h"

namespace psme::mac {

std::optional<AccessVector> ClassDef::bit(std::string_view perm) const noexcept {
  for (std::size_t i = 0; i < permissions.size(); ++i) {
    if (permissions[i] == perm) return AccessVector{1u} << i;
  }
  return std::nullopt;
}

void AvTable::grow() {
  const std::size_t new_cap = keys_.empty() ? 16 : keys_.size() * 2;
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<AccessVector> old_values = std::move(values_);
  keys_.assign(new_cap, 0);
  values_.assign(new_cap, 0);
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    const std::uint64_t key = old_keys[i];
    if (key == 0) continue;
    // Keys are unique, so the walk stops at the first empty slot.
    const std::size_t j =
        probe::find_slot(keys_.data(), mask, key, mix_av_key(key) & mask);
    keys_[j] = key;
    values_[j] = old_values[i];
  }
}

void AvTable::merge(std::uint64_t key, AccessVector av) {
  // Keep load below ~0.7 so probe sequences stay short.
  if (keys_.empty() || (size_ + 1) * 10 > keys_.size() * 7) grow();
  const std::size_t mask = keys_.size() - 1;
  const std::size_t i =
      probe::find_slot(keys_.data(), mask, key, mix_av_key(key) & mask);
  if (keys_[i] == 0) {
    keys_[i] = key;
    ++size_;
  }
  values_[i] |= av;
}

const ClassDef* PolicyDb::find_class(Sid cls) const noexcept {
  for (const auto& c : classes_) {
    if (c.sid == cls) return &c;
  }
  return nullptr;
}

const ClassDef* PolicyDb::find_class(std::string_view name) const noexcept {
  for (const auto& c : classes_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

AccessVector PolicyDb::lookup(std::string_view source_type,
                              std::string_view target_type,
                              std::string_view object_class) const noexcept {
  return lookup(sids_->find(source_type), sids_->find(target_type),
                sids_->find(object_class));
}

bool PolicyDb::allowed(std::string_view source_type,
                       std::string_view target_type,
                       std::string_view object_class,
                       std::string_view perm) const noexcept {
  const ClassDef* cls = find_class(object_class);
  if (cls == nullptr) return false;
  const auto bit = cls->bit(perm);
  if (!bit.has_value()) return false;
  return allowed(sids_->find(source_type), sids_->find(target_type), cls->sid,
                 *bit);
}

PolicyDbBuilder& PolicyDbBuilder::add_class(
    std::string name, std::vector<std::string> permissions) {
  if (name.empty()) throw std::invalid_argument("add_class: empty class name");
  if (permissions.empty() || permissions.size() > 32) {
    throw std::invalid_argument(
        "add_class: class '" + name + "' needs 1..32 permissions, got " +
        std::to_string(permissions.size()) +
        " (an AccessVector holds 32 bits)");
  }
  for (std::size_t i = 0; i < permissions.size(); ++i) {
    for (std::size_t j = i + 1; j < permissions.size(); ++j) {
      if (permissions[i] == permissions[j]) {
        throw std::invalid_argument("add_class: class '" + name +
                                    "' declares permission '" +
                                    permissions[i] + "' twice");
      }
    }
  }
  for (const auto& c : classes_) {
    if (c.name == name) {
      throw std::invalid_argument("add_class: duplicate class '" + name + "'");
    }
  }
  classes_.push_back(ClassDef{std::move(name), std::move(permissions)});
  return *this;
}

PolicyDbBuilder& PolicyDbBuilder::add_type(std::string name) {
  if (name.empty()) throw std::invalid_argument("add_type: empty type name");
  if (attributes_.count(name) != 0) {
    throw std::invalid_argument("add_type: '" + name + "' is an attribute");
  }
  if (types_.count(name) != 0) {
    throw std::invalid_argument("add_type: duplicate type '" + name + "'");
  }
  types_.insert(std::move(name));
  return *this;
}

PolicyDbBuilder& PolicyDbBuilder::add_attribute(
    std::string name, std::vector<std::string> member_types) {
  if (name.empty()) {
    throw std::invalid_argument("add_attribute: empty attribute name");
  }
  if (types_.count(name) != 0) {
    throw std::invalid_argument("add_attribute: '" + name + "' is a type");
  }
  if (attributes_.count(name) != 0) {
    throw std::invalid_argument("add_attribute: duplicate attribute '" + name +
                                "'");
  }
  for (const auto& t : member_types) {
    if (types_.count(t) == 0) {
      throw std::invalid_argument("add_attribute '" + name +
                                  "': unknown member type '" + t + "'");
    }
  }
  attributes_[std::move(name)] = std::move(member_types);
  return *this;
}

void PolicyDbBuilder::validate_rule(const TeRule& rule, const char* kind) const {
  auto known = [this](const std::string& n) {
    return types_.count(n) != 0 || attributes_.count(n) != 0;
  };
  if (!known(rule.source)) {
    throw std::invalid_argument(std::string(kind) + ": unknown source '" +
                                rule.source + "'");
  }
  if (!known(rule.target)) {
    throw std::invalid_argument(std::string(kind) + ": unknown target '" +
                                rule.target + "'");
  }
  const auto cls = std::find_if(classes_.begin(), classes_.end(),
                                [&](const ClassDef& c) {
                                  return c.name == rule.object_class;
                                });
  if (cls == classes_.end()) {
    throw std::invalid_argument(std::string(kind) + ": unknown class '" +
                                rule.object_class + "'");
  }
  if (rule.permissions.empty()) {
    throw std::invalid_argument(std::string(kind) + ": empty permission set");
  }
  for (const auto& p : rule.permissions) {
    if (!cls->bit(p).has_value()) {
      throw std::invalid_argument(std::string(kind) + ": class '" +
                                  rule.object_class + "' has no permission '" +
                                  p + "'");
    }
  }
}

PolicyDbBuilder& PolicyDbBuilder::allow(TeRule rule) {
  validate_rule(rule, "allow");
  allows_.push_back(std::move(rule));
  return *this;
}

PolicyDbBuilder& PolicyDbBuilder::neverallow(TeRule rule) {
  validate_rule(rule, "neverallow");
  neverallows_.push_back(std::move(rule));
  return *this;
}

const std::vector<std::string>& PolicyDbBuilder::expand(
    const std::string& name, std::vector<std::string>& scratch) const {
  const auto attr = attributes_.find(name);
  if (attr != attributes_.end()) return attr->second;
  scratch.assign(1, name);
  return scratch;
}

PolicyDb PolicyDbBuilder::build(std::uint64_t seqno,
                                std::shared_ptr<SidTable> sids) const {
  PolicyDb db;
  if (sids != nullptr) db.sids_ = std::move(sids);
  SidTable& table = *db.sids_;

  // Classes first: when the database owns a fresh interner this keeps
  // class SIDs tiny. With a shared, long-lived interner the class may have
  // been interned late; the packed key reserves only 16 bits for it.
  db.classes_ = classes_;
  for (auto& cls : db.classes_) {
    cls.sid = table.intern(cls.name);
    if (cls.sid > kMaxClassSid) {
      throw std::length_error("PolicyDbBuilder::build: class '" + cls.name +
                              "' interned beyond the packed-key class range");
    }
  }

  for (const auto& t : types_) (void)table.intern(t);
  db.is_type_.assign(table.size() + 1, 0);
  for (const auto& t : types_) db.is_type_[table.find(t)] = 1;
  db.seqno_ = seqno;

  auto vector_of = [this](const TeRule& rule) -> AccessVector {
    const auto cls = std::find_if(classes_.begin(), classes_.end(),
                                  [&](const ClassDef& c) {
                                    return c.name == rule.object_class;
                                  });
    AccessVector av = 0;
    for (const auto& p : rule.permissions) av |= *cls->bit(p);
    return av;
  };
  auto class_sid = [&db](const TeRule& rule) -> Sid {
    return db.find_class(std::string_view(rule.object_class))->sid;
  };

  // Attribute expansion resolves to SIDs here, at build time: the compiled
  // table only ever holds concrete (type, type, class) triples.
  std::vector<std::string> scratch_src, scratch_tgt;
  for (const auto& rule : allows_) {
    const AccessVector av = vector_of(rule);
    const Sid cls = class_sid(rule);
    for (const auto& src : expand(rule.source, scratch_src)) {
      const Sid src_sid = table.find(src);
      for (const auto& tgt : expand(rule.target, scratch_tgt)) {
        db.av_.merge(pack_av_key(src_sid, table.find(tgt), cls), av);
      }
    }
  }

  // neverallow enforcement: any overlap between a compiled grant and a
  // neverallow is a hard error — matching SELinux semantics where policy
  // compilation fails.
  for (const auto& never : neverallows_) {
    const AccessVector banned = vector_of(never);
    const Sid cls = class_sid(never);
    for (const auto& src : expand(never.source, scratch_src)) {
      const Sid src_sid = table.find(src);
      for (const auto& tgt : expand(never.target, scratch_tgt)) {
        if ((db.av_.find(pack_av_key(src_sid, table.find(tgt), cls)) &
             banned) != 0) {
          throw std::logic_error("neverallow violated: " + src + " -> " + tgt +
                                 " : " + never.object_class);
        }
      }
    }
  }
  return db;
}

}  // namespace psme::mac
