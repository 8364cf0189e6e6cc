// psme::car — translating policy rules into bus-level enforcement.
//
// Policy rules talk about entry points and assets; the enforcement points
// (HPE read/write filters, controller acceptance filters) talk in CAN
// message IDs. The binding rules are:
//
//  WRITE side — node N may emit command id c of asset A in mode m iff some
//  entry point hosted by N is allowed to write A in m. N may always emit
//  the status ids of assets it owns.
//
//  READ side — node N may receive status id s of asset A in mode m iff
//  some entry point hosted by N may read A in m. N may receive the command
//  ids of an asset it owns only in modes where *some* entry point in the
//  system may legitimately write that asset — if nobody may command the
//  asset in mode m, a command frame arriving in m is necessarily spoofed
//  and the reading filter drops it at the victim.
//
//  Structural ids — every node reads the mode-change broadcast and the
//  fail-safe trigger; the gateway alone emits mode changes; diagnostic
//  request/response ids are enabled only in remote-diagnostic mode.
//
//  GATEWAY — a segmented vehicle puts kTelematicsNodes on the telematics
//  bus and every other node on the control bus. The policy gateway
//  between them forwards an asset's command ids toward its owner's
//  segment iff some node on the other segment may write the asset in the
//  current mode, and its status ids away from the owner's segment iff
//  some node there may read it. Toward telematics it also forwards the
//  fail-safe trigger and the e-call; mode frames cross by the bridge's
//  own rule, and only from the control side, where the mode master sits.
//
// Compiling a full vehicle asks the policy the same (entry point, asset,
// access, mode) question many times over — every node consults
// anyone_may_write for every asset in every mode. BindingCompiler below
// consumes the policy's SID-native compiled form (CompiledPolicyImage):
// entity and mode names resolve through the image's *shared* interner —
// there is no per-compiler re-interning stage — and each verdict is
// memoised under a packed 64-bit SID key, so each unique question
// reaches the image exactly once per compilation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "can/controller.h"
#include "can/wire_mac.h"
#include "car/ids.h"
#include "car/modes.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "hpe/bridge.h"
#include "hpe/hpe.h"
#include "mac/sid_table.h"

namespace psme::car {

/// The nodes a segmented vehicle places on its telematics bus, the
/// attacker-facing segment (side A of the gateway). Every other node sits
/// on the control bus (side B), with the mode master.
inline constexpr std::array<std::string_view, 2> kTelematicsNodes = {
    "connectivity", "infotainment"};

[[nodiscard]] bool on_telematics_segment(std::string_view node) noexcept;

/// Feature switches for the binding — each is one of the design choices
/// DESIGN.md calls out; the ablation bench toggles them independently.
struct BindingOptions {
  /// Paper's fine-grained extension: payload constraints on approved ids
  /// (only-unlock during fail-safe, only-arm over the bus, plausibility
  /// bounds on crash acceleration).
  bool content_rules = false;
  /// ∃-writer rule: an asset's command ids enter its owner's read list
  /// only in modes where some entry point may legitimately write the
  /// asset. Disabling reverts to "owners always accept their commands".
  bool writer_existence_gate = true;
  /// Per-mode approved lists with autonomous mode snooping. Disabling
  /// freezes every HPE on its normal-mode lists.
  bool mode_conditional = true;
};

/// SID-native, memoising compiler from one compiled policy to
/// approved-id lists. Holds a reference to the image — keep it (and,
/// for the PolicySet convenience constructor, the set) alive and
/// unmodified for the compiler's lifetime (rebuild the compiler after a
/// policy update; a stale memo would happily answer from the old rules).
class BindingCompiler {
 public:
  /// Compiles against a SID-native policy image; entity names resolve
  /// through the image's shared interner.
  explicit BindingCompiler(const core::CompiledPolicyImage& image,
                           BindingOptions options = {});

  /// Convenience: compiles against the set's lazily-built image. The
  /// compiler retains shared ownership of that image snapshot, so a
  /// later mutation of the set leaves this compiler answering (stale
  /// but well-defined) from the snapshot — rebuild after a policy
  /// update, as ever.
  explicit BindingCompiler(const core::PolicySet& policy,
                           BindingOptions options = {});

  /// True when `entry_point` may access `asset_id` in `mode` — one
  /// memoised PolicySet::evaluate.
  [[nodiscard]] bool entry_point_may(const std::string& entry_point,
                                     const std::string& asset_id,
                                     core::AccessType access, CarMode mode);

  /// OR over the node's entry points.
  [[nodiscard]] bool node_may(const std::string& node,
                              const std::string& asset_id,
                              core::AccessType access, CarMode mode);

  /// True when any entry point in the system may write `asset_id` in `mode`.
  [[nodiscard]] bool anyone_may_write(const std::string& asset_id,
                                      CarMode mode);

  /// Approved read/write lists for one node in one mode.
  [[nodiscard]] hpe::ListPair build_lists(const std::string& node,
                                          CarMode mode);

  /// Full HPE configuration: per-mode lists plus autonomous mode snooping.
  [[nodiscard]] hpe::HpeConfig build_hpe_config(const std::string& node);

  /// Software acceptance filters equivalent to the mode-`mode` read list.
  /// (Software filters cannot switch modes autonomously; the node's
  /// firmware must reprogram them on mode change — the vulnerability the
  /// HPE removes.)
  [[nodiscard]] std::vector<can::AcceptanceFilter> build_rx_filters(
      const std::string& node, CarMode mode);

  /// Compiles the wire-MAC binding table for one node's ingress in one
  /// mode — the read side of the binding rules expressed in SID space:
  ///   * status ids of every asset bind (subjects = the node's entry
  ///     points, object = asset, READ) — the frame is admitted iff the
  ///     node may read the asset;
  ///   * command ids of assets the node OWNS bind (subjects = EVERY
  ///     entry point in the system, object = asset, WRITE) — the wire
  ///     form of the ∃-writer gate: a command frame is legitimate iff
  ///     SOME entry point may command the asset, adjudicated as an OR
  ///     over candidate subjects in one batch;
  ///   * command ids of assets the node does not own stay unbound
  ///     (deny-by-default), as in the HPE read lists;
  ///   * structural ids pass: mode change, fail-safe trigger, the
  ///     OSEK-NM window [0x420, 0x43F], and (in remote-diagnostic mode
  ///     only) the diagnostic request/response pair, which carry ISO-TP
  ///     conversations and are marked as such.
  /// The table's mode SID is the given mode's, so an image-backed
  /// can::WireMac adjudicates mode-conditional rules correctly.
  [[nodiscard]] can::WireBindingTable build_wire_table(const std::string& node,
                                                       CarMode mode);

  /// The gateway's forwarding lists in one mode (the GATEWAY rule above):
  /// a_to_b runs telematics -> control, b_to_a control -> telematics.
  [[nodiscard]] hpe::BridgeLists build_gateway_lists(CarMode mode);

  /// Full gateway configuration: per-mode lists, the normal-mode lists as
  /// defaults, and the mode-change frame to snoop. Independent of the
  /// options, which shape only HPE lists.
  [[nodiscard]] hpe::BridgeConfig build_gateway_config();

  struct Stats {
    std::uint64_t queries = 0;             // entry_point_may calls
    std::uint64_t policy_evaluations = 0;  // of which reached the image (misses)
    std::uint64_t unique_questions = 0;    // memo table population
    [[nodiscard]] std::uint64_t memo_hits() const noexcept {
      return queries - policy_evaluations;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const core::CompiledPolicyImage& image() const noexcept {
    return image_;
  }
  [[nodiscard]] const BindingOptions& options() const noexcept { return options_; }

 private:
  /// Primary: `image` when borrowing (non-owning public ctor), null to
  /// answer from the retained snapshot (PolicySet ctor).
  BindingCompiler(std::shared_ptr<const core::CompiledPolicyImage> retained,
                  const core::CompiledPolicyImage* image,
                  BindingOptions options);

  /// Non-null only on the PolicySet path: keeps the set's image
  /// snapshot alive across later set mutations.
  std::shared_ptr<const core::CompiledPolicyImage> retained_;
  const core::CompiledPolicyImage& image_;
  BindingOptions options_;
  /// The image's interner — shared, not a private re-interning table.
  std::shared_ptr<mac::SidTable> sids_;
  /// CarMode -> the image-space SID of its mode id, resolved once.
  std::array<mac::Sid, 3> mode_sids_{};
  std::unordered_map<std::uint64_t, bool> memo_;
  Stats stats_;
};

}  // namespace psme::car
