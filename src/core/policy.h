// psme::core — policies, policy sets and the policy engine interface.
//
// The paper's central artefact: a security model expressed not as prose
// guidelines but as machine-enforceable rules. A PolicyRule grants (or
// explicitly denies) read/write access between a subject (an entry point,
// node or application) and an object (an asset or resource), optionally
// conditioned on the device's operational mode. A PolicySet is a versioned
// collection of rules with deny-by-default semantics (least privilege,
// paper Sec. V-B citing Saltzer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mac/sid_table.h"
#include "threat/asset.h"
#include "threat/threat.h"

namespace psme::core {

class CompiledPolicyImage;

using threat::Permission;

/// Read or write — the two access types Table I policies govern.
enum class AccessType : std::uint8_t { kRead, kWrite };

[[nodiscard]] std::string_view to_string(AccessType t) noexcept;

[[nodiscard]] constexpr bool permits(Permission p, AccessType t) noexcept {
  return t == AccessType::kRead ? threat::allows_read(p)
                                : threat::allows_write(p);
}

/// One access to adjudicate: "may <subject> <read|write> <object> while the
/// device is in <mode>?"
struct AccessRequest {
  std::string subject;   // entry point / node / application identity
  std::string object;    // asset / resource identity
  AccessType access = AccessType::kRead;
  threat::ModeId mode;   // empty value => mode-independent request

  [[nodiscard]] std::string to_string() const;
};

/// Sentinel SID for a name that was *given* but is unknown to the
/// interner at hand. Distinct from mac::kNullSid ("no name given"): an
/// unresolved mode matches only mode-free rules, whereas a null mode
/// means the request is mode-independent and matches everything. Never
/// issued by any SidTable (it exceeds mac::kMaxTypeSid).
inline constexpr mac::Sid kUnresolvedSid = 0xFFFFFFFFu;

/// An access request whose identities are already resolved to SIDs — the
/// native currency of the compiled pipeline. For core::PolicySet /
/// CompiledPolicyImage the SIDs name the request's subject/object/mode in
/// the image's interner; for mac::MacEngine::evaluate_batch they are the
/// pre-resolved source/target *type* SIDs (mode is ignored there, as in
/// the scalar MacEngine::evaluate). Resolve once at the fleet boundary,
/// evaluate millions of times.
struct SidRequest {
  mac::Sid subject = mac::kNullSid;
  mac::Sid object = mac::kNullSid;
  AccessType access = AccessType::kRead;
  mac::Sid mode = mac::kNullSid;  // kNullSid => mode-independent request
};

/// Batch chunk size the staged decision pipelines are tuned for.
/// mac::MacEngine sizes its batch scratch to it (reserving up front and
/// shrinking back after an oversized batch) and car::FleetEvaluatorOptions
/// defaults batch_chunk to it, so the layers agree on one number: large
/// enough to amortise per-batch costs, small enough that a chunk's
/// requests and decisions stay cache-resident.
inline constexpr std::size_t kRecommendedBatchChunk = 4096;

/// Outcome of policy evaluation.
struct Decision {
  bool allowed = false;
  std::string rule_id;   // empty when the default applied
  std::string reason;

  [[nodiscard]] static Decision allow(std::string rule_id, std::string reason);
  [[nodiscard]] static Decision deny(std::string rule_id, std::string reason);
};

/// A single rule. Subject/object accept the wildcard "*" (any); everything
/// else matches exactly. An empty `modes` list applies in every mode.
/// `permission` states what the subject may do; kNone is an explicit deny.
struct PolicyRule {
  std::string id;
  std::string subject;
  std::string object;
  Permission permission = Permission::kNone;
  std::vector<threat::ModeId> modes;
  /// Higher priority wins; ties broken by specificity (exact beats
  /// wildcard), then by insertion order (first wins).
  int priority = 0;
  std::string rationale;  // which threat motivated the rule

  [[nodiscard]] bool matches(const AccessRequest& request) const noexcept;

  /// 0 = both wildcards … 2 = both exact; used for tie-breaking.
  [[nodiscard]] int specificity() const noexcept;

  [[nodiscard]] std::string to_string() const;
};

/// Versioned, deny-by-default rule collection.
class PolicySet {
 public:
  PolicySet() = default;
  PolicySet(std::string name, std::uint64_t version)
      : name_(std::move(name)), version_(version) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  void set_version(std::uint64_t v) noexcept { version_ = v; }

  /// Appends a rule. Throws std::invalid_argument on duplicate rule id.
  void add_rule(PolicyRule rule);

  /// Removes a rule by id; returns true if it existed.
  bool remove_rule(std::string_view rule_id);

  [[nodiscard]] const std::vector<PolicyRule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }

  /// When true, requests matching no rule are allowed. Defaults to false
  /// (least privilege). Useful for incremental deployment where only the
  /// riskiest assets are policed.
  void set_default_allow(bool allow) noexcept {
    default_allow_ = allow;
    invalidate();
  }
  [[nodiscard]] bool default_allow() const noexcept { return default_allow_; }

  /// Adjudicates a request against the rules. This is a shim over the
  /// SID-native path: the set lazily compiles itself to a
  /// CompiledPolicyImage after any mutation, the request's names are
  /// resolved to SIDs once (non-allocating transparent lookups), and the
  /// image answers. Concurrency: once the image is compiled (call image()
  /// or evaluate once before sharing), const evaluation is safe from any
  /// number of threads; the lazy COMPILE itself writes through mutable
  /// members and stays single-threaded — debug builds pin the compiling
  /// thread (DESIGN.md "Concurrency model"). Mutations always require
  /// exclusive access.
  [[nodiscard]] Decision evaluate(const AccessRequest& request) const;

  /// SID-native overload: adjudicates a request pre-resolved against
  /// sid_table() (see resolve()). Fleet callers resolve identities once
  /// and evaluate per tick without touching a string.
  [[nodiscard]] Decision evaluate(const SidRequest& request) const;

  /// Resolves a string request into this set's SID space without growing
  /// the interner (unknown names still match wildcard rules, unknown
  /// modes match only mode-free rules — the string semantics exactly).
  [[nodiscard]] SidRequest resolve(const AccessRequest& request) const;

  /// The set compiled to packed SID-space entries; (re)built lazily
  /// after a mutation. The reference is invalidated by any mutation.
  [[nodiscard]] const CompiledPolicyImage& image() const;

  /// Shared ownership of the compiled image: survives a later mutation
  /// of this set (the holder keeps answering from the snapshot it
  /// retained). This is what long-lived consumers (BindingCompiler)
  /// hold.
  [[nodiscard]] std::shared_ptr<const CompiledPolicyImage> image_ptr() const;

  /// The interner the lazy image compiles against (created on demand).
  /// Bind a shared table *before* first evaluation so labels, databases
  /// and images across a fleet agree on SID space.
  [[nodiscard]] const std::shared_ptr<mac::SidTable>& sid_table() const;
  void bind_sid_table(std::shared_ptr<mac::SidTable> sids);

  /// Merges another set's rules into this one (policy *module* loading, as
  /// in SELinux's modular policies). Duplicate rule ids throw.
  void merge(const PolicySet& other);

  /// Stable 64-bit fingerprint over name, version, flags and all rules;
  /// used by the update mechanism for integrity checking.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Canonical single-line-per-rule text form (also the fingerprint input).
  [[nodiscard]] std::string serialize() const;

 private:
  [[nodiscard]] static std::uint64_t name_hash(std::string_view name) noexcept;
  /// Drops the compiled image (called by every mutation) and re-opens
  /// the thread pin — a mutation implies the caller holds exclusive
  /// access again.
  void invalidate() noexcept;
  /// Debug builds: pins the first calling thread and asserts on any
  /// other. Guards the entry points that WRITE through the mutable
  /// lazy-compile members (compiling the image, creating the interner);
  /// const evaluation over an existing image bypasses it. No-op in
  /// release builds.
  void assert_single_thread() const noexcept;
  /// Compiles the image if absent (thread-pinned, see above).
  const CompiledPolicyImage& ensure_image() const;

  std::string name_;
  std::uint64_t version_ = 0;
  bool default_allow_ = false;
  std::vector<PolicyRule> rules_;
  /// Interner shared with image_ (and with any fleet caller that bound
  /// its own). Copies of this set share it; SIDs only ever grow.
  mutable std::shared_ptr<mac::SidTable> sids_;
  /// Lazily compiled SID-space form. Immutable once built, so copies of
  /// this set may share it; reset by any mutation.
  mutable std::shared_ptr<const CompiledPolicyImage> image_;
  /// DESIGN.md "Concurrency model": the lazy image compile writes
  /// through mutable members and is single-threaded; the first COMPILING
  /// evaluation pins the thread so concurrent compile misuse fails loudly
  /// instead of corrupting the image (const evaluation over a built image
  /// is thread-safe and skips the pin). Copies and moves start unpinned —
  /// a copy is a distinct object with its own (possibly different)
  /// owning thread. Only debug builds check the pin, but the member exists
  /// in every build: the class layout must not depend on NDEBUG, or a
  /// consumer built without it misreads a release library's objects.
  struct ThreadPin {
    std::thread::id id{};
    ThreadPin() noexcept = default;
    ThreadPin(const ThreadPin&) noexcept {}
    ThreadPin& operator=(const ThreadPin&) noexcept {
      id = {};
      return *this;
    }
  };
  mutable ThreadPin eval_pin_;
};

/// Abstract policy decision point. Implemented by the software MAC engine
/// (psme::mac::MacEngine) and wrapped by the hardware policy engine
/// (psme::hpe); SimplePolicyEngine is the reference implementation.
class PolicyEngine {
 public:
  virtual ~PolicyEngine() = default;

  [[nodiscard]] virtual Decision evaluate(const AccessRequest& request) = 0;
  [[nodiscard]] virtual std::string_view engine_name() const noexcept = 0;
};

/// PolicySet-backed engine with decision counters.
class SimplePolicyEngine final : public PolicyEngine {
 public:
  explicit SimplePolicyEngine(PolicySet set) : set_(std::move(set)) {}

  [[nodiscard]] Decision evaluate(const AccessRequest& request) override;
  [[nodiscard]] std::string_view engine_name() const noexcept override {
    return "simple";
  }

  /// Swaps in a new policy set (the paper's "policy update"); atomic from
  /// the caller's perspective — no request ever sees a half-updated set.
  void load(PolicySet set) { set_ = std::move(set); }

  [[nodiscard]] const PolicySet& policy() const noexcept { return set_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }
  [[nodiscard]] std::uint64_t denials() const noexcept { return denials_; }

 private:
  PolicySet set_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t denials_ = 0;
};

}  // namespace psme::core
