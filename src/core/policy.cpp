#include "core/policy.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "core/policy_image.h"

namespace psme::core {

std::string_view to_string(AccessType t) noexcept {
  return t == AccessType::kRead ? "read" : "write";
}

std::string AccessRequest::to_string() const {
  std::ostringstream out;
  out << subject << " " << core::to_string(access) << " " << object;
  if (!mode.value.empty()) out << " [mode=" << mode.value << "]";
  return out.str();
}

Decision Decision::allow(std::string rule_id, std::string reason) {
  return Decision{true, std::move(rule_id), std::move(reason)};
}

Decision Decision::deny(std::string rule_id, std::string reason) {
  return Decision{false, std::move(rule_id), std::move(reason)};
}

bool PolicyRule::matches(const AccessRequest& request) const noexcept {
  if (subject != "*" && subject != request.subject) return false;
  if (object != "*" && object != request.object) return false;
  if (!modes.empty() && !request.mode.value.empty()) {
    if (std::find(modes.begin(), modes.end(), request.mode) == modes.end()) {
      return false;
    }
  }
  // A mode-conditional rule does not match a mode-less request unless the
  // caller opted out of mode tracking entirely (empty request mode matches
  // everything — the engine cannot know the mode, so the rule applies).
  return true;
}

int PolicyRule::specificity() const noexcept {
  return (subject != "*" ? 1 : 0) + (object != "*" ? 1 : 0);
}

std::string PolicyRule::to_string() const {
  std::ostringstream out;
  out << id << ": " << subject << " -> " << object << " = "
      << threat::to_string(permission);
  if (!modes.empty()) {
    out << " when {";
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (i != 0) out << ',';
      out << modes[i].value;
    }
    out << '}';
  }
  out << " prio=" << priority;
  return out.str();
}

void PolicySet::add_rule(PolicyRule rule) {
  if (rule.id.empty()) {
    throw std::invalid_argument("PolicySet::add_rule: empty rule id");
  }
  const bool duplicate =
      std::any_of(rules_.begin(), rules_.end(),
                  [&](const PolicyRule& r) { return r.id == rule.id; });
  if (duplicate) {
    throw std::invalid_argument("PolicySet::add_rule: duplicate rule id '" +
                                rule.id + "'");
  }
  rules_.push_back(std::move(rule));
  invalidate();
}

bool PolicySet::remove_rule(std::string_view rule_id) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [&](const PolicyRule& r) { return r.id == rule_id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  invalidate();
  return true;
}

std::uint64_t PolicySet::name_hash(std::string_view name) noexcept {
  return mac::fnv1a(name);
}

void PolicySet::invalidate() noexcept {
  image_.reset();
  // A mutation implies the caller holds exclusive access again; the next
  // evaluation re-pins whichever thread performs it.
  eval_pin_.id = std::thread::id{};
}

void PolicySet::assert_single_thread() const noexcept {
#ifndef NDEBUG
  if (eval_pin_.id == std::thread::id{}) {
    eval_pin_.id = std::this_thread::get_id();
  }
  assert(eval_pin_.id == std::this_thread::get_id() &&
         "PolicySet lazy-compile paths are single-threaded by design "
         "(DESIGN.md §3): they write through mutable members");
#endif
}

const CompiledPolicyImage& PolicySet::ensure_image() const {
  // Fast path: once the image exists it is immutable and evaluation is a
  // pure const read — safe from any number of threads, provided the
  // compile happened-before they started (DESIGN.md "Concurrency model").
  // Only the lazy COMPILE writes through the mutable members, so only it
  // carries the debug single-thread pin.
  if (image_ != nullptr) return *image_;
  assert_single_thread();
  if (sids_ == nullptr) sids_ = std::make_shared<mac::SidTable>();
  image_ = std::make_shared<const CompiledPolicyImage>(
      CompiledPolicyImage::from_policy_set(*this, sids_));
  return *image_;
}

const CompiledPolicyImage& PolicySet::image() const { return ensure_image(); }

std::shared_ptr<const CompiledPolicyImage> PolicySet::image_ptr() const {
  ensure_image();
  return image_;
}

SidRequest PolicySet::resolve(const AccessRequest& request) const {
  return ensure_image().resolve(request);
}

Decision PolicySet::evaluate(const SidRequest& request) const {
  return ensure_image().evaluate(request);
}

Decision PolicySet::evaluate(const AccessRequest& request) const {
  // String shim: resolve the names once (transparent, non-allocating
  // lookups) and delegate to the SID-native image.
  const CompiledPolicyImage& img = ensure_image();
  return img.evaluate(img.resolve(request));
}

void PolicySet::merge(const PolicySet& other) {
  // Check every incoming id before appending any, so a collision leaves
  // the set as it was. `other` is itself a PolicySet, so its own ids are
  // unique and non-empty.
  for (const PolicyRule& incoming : other.rules_) {
    const bool duplicate =
        std::any_of(rules_.begin(), rules_.end(),
                    [&](const PolicyRule& r) { return r.id == incoming.id; });
    if (duplicate) {
      throw std::invalid_argument("PolicySet::merge: duplicate rule id '" +
                                  incoming.id + "'");
    }
  }
  rules_.insert(rules_.end(), other.rules_.begin(), other.rules_.end());
  invalidate();
}

std::string PolicySet::serialize() const {
  std::ostringstream out;
  out << "policyset " << name_ << " v" << version_
      << " default=" << (default_allow_ ? "allow" : "deny") << '\n';
  for (const auto& rule : rules_) out << rule.to_string() << '\n';
  return out.str();
}

std::uint64_t PolicySet::fingerprint() const noexcept {
  // FNV-1a 64-bit over the canonical serialisation.
  return name_hash(serialize());
}

}  // namespace psme::core
