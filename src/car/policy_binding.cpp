#include "car/policy_binding.h"

#include <algorithm>
#include <array>

#include "car/network_mgmt.h"

namespace psme::car {

namespace {

void add_all(hpe::ApprovedIdList& list, const std::vector<std::uint32_t>& ids) {
  for (const auto id : ids) list.add(can::CanId::standard(id));
}

void add_content_rules(const std::string& node, CarMode mode,
                       hpe::ListPair& lists) {
  // Fine-grained, situational constraints (paper Sec. V-A.2's "more
  // fine-grained policies"). Ids must already be on the relevant list;
  // these rules narrow the accepted payloads.
  if (node == "doors" && mode == CarMode::kFailSafe) {
    // During an accident only UNLOCK may traverse the bus (threat T14).
    lists.content_rules.push_back(
        hpe::PayloadRule{msg::kLockCommand, 0, op::kUnlock, op::kUnlock});
  }
  if (node == "connectivity" && mode == CarMode::kFailSafe) {
    // Table I keeps RW toward the modem in fail-safe (T09: emergency and
    // door subsystems must command it), so id filtering alone cannot stop
    // a malicious DISABLE; the content rule narrows fail-safe commands to
    // ENABLE only.
    lists.content_rules.push_back(
        hpe::PayloadRule{msg::kModemCommand, 0, op::kEnable, op::kEnable});
  }
  if (node == "safety") {
    if (mode == CarMode::kNormal) {
      // Alarm can be armed over the bus but never disarmed (threat T16);
      // disarm happens via the physical key path.
      lists.content_rules.push_back(
          hpe::PayloadRule{msg::kAlarmCommand, 0, op::kArm, op::kArm});
    }
    // Crash-grade acceleration values from the bus are implausible; the
    // airbag event (hard-wired) is the authoritative crash signal (T15).
    lists.content_rules.push_back(hpe::PayloadRule{
        msg::kSensorAccel, 0, 0,
        static_cast<std::uint8_t>(199)});
  }
}

/// Packs (entry point SID, asset SID, access, mode) into one memo key.
/// Entity-name SIDs are dense and tiny (dozens for the case study); 24
/// bits each leaves 16 for the enum pair.
[[nodiscard]] std::uint64_t memo_key(mac::Sid entry_point, mac::Sid asset,
                                     core::AccessType access,
                                     CarMode mode) noexcept {
  return (static_cast<std::uint64_t>(entry_point) << 40) |
         (static_cast<std::uint64_t>(asset) << 16) |
         (static_cast<std::uint64_t>(mode) << 1) |
         static_cast<std::uint64_t>(access == core::AccessType::kWrite);
}

}  // namespace

bool on_telematics_segment(std::string_view node) noexcept {
  return std::find(kTelematicsNodes.begin(), kTelematicsNodes.end(), node) !=
         kTelematicsNodes.end();
}

BindingCompiler::BindingCompiler(
    std::shared_ptr<const core::CompiledPolicyImage> retained,
    const core::CompiledPolicyImage* image, BindingOptions options)
    : retained_(std::move(retained)),
      image_(image != nullptr ? *image : *retained_),
      options_(options),
      sids_(image_.sid_table()) {
  // Resolve the three operational modes into image SID space once; every
  // memoised question after this runs without touching a string.
  for (CarMode mode : kAllModes) {
    mode_sids_[static_cast<std::size_t>(mode)] =
        image_.mode_sid(mode_id(mode));
  }
}

BindingCompiler::BindingCompiler(const core::CompiledPolicyImage& image,
                                 BindingOptions options)
    : BindingCompiler(nullptr, &image, options) {}

BindingCompiler::BindingCompiler(const core::PolicySet& policy,
                                 BindingOptions options)
    : BindingCompiler(policy.image_ptr(), nullptr, options) {}

bool BindingCompiler::entry_point_may(const std::string& entry_point,
                                      const std::string& asset_id,
                                      core::AccessType access, CarMode mode) {
  ++stats_.queries;
  // Interning through the *shared* table (rather than a private one)
  // keeps the whole pipeline in one SID space; names the policy already
  // knows resolve to their existing SIDs, fresh entity names grow the
  // table without disturbing any issued SID.
  const mac::Sid subject = sids_->intern(entry_point);
  const mac::Sid object = sids_->intern(asset_id);
  const std::uint64_t key = memo_key(subject, object, access, mode);
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  ++stats_.policy_evaluations;
  core::SidRequest request;
  request.subject = subject;
  request.object = object;
  request.access = access;
  request.mode = mode_sids_[static_cast<std::size_t>(mode)];
  const bool verdict = image_.evaluate(request).allowed;
  memo_.emplace(key, verdict);
  stats_.unique_questions = memo_.size();
  return verdict;
}

bool BindingCompiler::node_may(const std::string& node,
                               const std::string& asset_id,
                               core::AccessType access, CarMode mode) {
  const auto entry_points = entry_points_of(node);
  return std::any_of(entry_points.begin(), entry_points.end(),
                     [&](const std::string& ep) {
                       return entry_point_may(ep, asset_id, access, mode);
                     });
}

bool BindingCompiler::anyone_may_write(const std::string& asset_id,
                                       CarMode mode) {
  for (const auto& binding : node_bindings()) {
    for (const auto& ep : binding.entry_points) {
      if (entry_point_may(ep, asset_id, core::AccessType::kWrite, mode)) {
        return true;
      }
    }
  }
  return false;
}

hpe::ListPair BindingCompiler::build_lists(const std::string& node,
                                           CarMode mode) {
  hpe::ListPair lists;

  // Structural: everyone hears mode changes and the fail-safe trigger.
  lists.read.add(can::CanId::standard(msg::kModeChange));
  lists.read.add(can::CanId::standard(msg::kFailSafeTrigger));

  // Structural: diagnostics only inside remote-diagnostic mode.
  if (mode == CarMode::kRemoteDiagnostic) {
    lists.read.add(can::CanId::standard(msg::kDiagRequest));
    lists.write.add(can::CanId::standard(msg::kDiagResponse));
    if (node == "connectivity") {
      lists.write.add(can::CanId::standard(msg::kDiagRequest));
      lists.read.add(can::CanId::standard(msg::kDiagResponse));
    }
  }

  for (const AssetBinding& asset : asset_bindings()) {
    const bool owns = asset.owner_node == node;
    if (owns) {
      // Owners publish their own status unconditionally...
      add_all(lists.write, asset.status_ids);
      // ...but accept commands only in modes where a legitimate commander
      // exists; otherwise the frames are spoofed by construction.
      if (!options_.writer_existence_gate ||
          anyone_may_write(asset.asset_id, mode)) {
        add_all(lists.read, asset.command_ids);
      }
      continue;
    }
    if (node_may(node, asset.asset_id, core::AccessType::kRead, mode)) {
      add_all(lists.read, asset.status_ids);
    }
    if (node_may(node, asset.asset_id, core::AccessType::kWrite, mode)) {
      add_all(lists.write, asset.command_ids);
    }
  }

  // The safety node owns the fail-safe trigger (listed among its status
  // ids) — already covered by the owner branch above.
  if (options_.content_rules) add_content_rules(node, mode, lists);
  return lists;
}

can::WireBindingTable BindingCompiler::build_wire_table(
    const std::string& node, CarMode mode) {
  can::WireBindingTable::Builder builder;
  builder.set_mode(mode_sids_[static_cast<std::size_t>(mode)]);

  // Structural pass-throughs: mode changes, the fail-safe trigger and
  // the OSEK-NM ring window are bus plumbing every node must hear — the
  // 5-bit NM address space maps to exactly [0x420, 0x43F] (the PR 9
  // regression pin).
  builder.pass_standard(msg::kModeChange);
  builder.pass_standard(msg::kFailSafeTrigger);
  builder.pass_standard_range(nm::kNmBase, nm::kNmBase | nm::kMaxAddress);
  if (mode == CarMode::kRemoteDiagnostic) {
    // Diagnostic payloads exceed one frame; both ids carry ISO-TP. Bind
    // them to the connectivity entry point (the paper's remote-diag
    // commander) against the EV ECU — the asset under diagnosis, which
    // the remote-diagnostic rules grant that entry point read AND write
    // on (requests command the ECU, responses report its state).
    const mac::Sid diag_subject = sids_->intern(entry::kConnectivity);
    const mac::Sid diag_object = sids_->intern(asset::kEvEcu);
    const std::array<mac::Sid, 1> diag_subjects{diag_subject};
    builder.bind_standard(msg::kDiagRequest, diag_subjects, diag_object,
                          core::AccessType::kWrite, /*isotp=*/true);
    builder.bind_standard(msg::kDiagResponse, diag_subjects, diag_object,
                          core::AccessType::kRead, /*isotp=*/true);
  }

  // Candidate-subject pools. The node's own entry points answer READ
  // questions; the system-wide pool answers the ∃-writer question for
  // command ids of owned assets.
  std::vector<mac::Sid> node_subjects;
  for (const std::string& ep : entry_points_of(node)) {
    node_subjects.push_back(sids_->intern(ep));
  }
  std::vector<mac::Sid> all_subjects;
  for (const NodeBinding& nb : node_bindings()) {
    for (const std::string& ep : nb.entry_points) {
      all_subjects.push_back(sids_->intern(ep));
    }
  }

  // Structural ids stay pass-through even when an asset also lists them
  // (the fail-safe trigger doubles as a safety status id): everyone must
  // hear them regardless of read permissions.
  const auto structural = [](std::uint32_t id) {
    return id == msg::kModeChange || id == msg::kFailSafeTrigger;
  };

  for (const AssetBinding& asset : asset_bindings()) {
    const mac::Sid object = sids_->intern(asset.asset_id);
    if (!node_subjects.empty()) {
      for (const std::uint32_t id : asset.status_ids) {
        if (structural(id)) continue;
        builder.bind_standard(id, node_subjects, object,
                              core::AccessType::kRead);
      }
    }
    if (asset.owner_node == node) {
      for (const std::uint32_t id : asset.command_ids) {
        builder.bind_standard(id, all_subjects, object,
                              core::AccessType::kWrite);
      }
    }
  }
  return builder.build();
}

hpe::BridgeLists BindingCompiler::build_gateway_lists(CarMode mode) {
  hpe::BridgeLists lists;
  lists.b_to_a.add(can::CanId::standard(msg::kFailSafeTrigger));
  lists.b_to_a.add(can::CanId::standard(msg::kEmergencyCall));

  // OR over the nodes of one segment.
  const auto segment_may = [&](bool telematics, const std::string& asset_id,
                               core::AccessType access) {
    return std::any_of(
        node_bindings().begin(), node_bindings().end(),
        [&](const NodeBinding& binding) {
          return on_telematics_segment(binding.node) == telematics &&
                 node_may(binding.node, asset_id, access, mode);
        });
  };
  for (const AssetBinding& asset : asset_bindings()) {
    const bool owner_on_telematics = on_telematics_segment(asset.owner_node);
    hpe::ApprovedIdList& toward_owner =
        owner_on_telematics ? lists.b_to_a : lists.a_to_b;
    hpe::ApprovedIdList& from_owner =
        owner_on_telematics ? lists.a_to_b : lists.b_to_a;
    if (segment_may(!owner_on_telematics, asset.asset_id,
                    core::AccessType::kWrite)) {
      add_all(toward_owner, asset.command_ids);
    }
    if (segment_may(!owner_on_telematics, asset.asset_id,
                    core::AccessType::kRead)) {
      add_all(from_owner, asset.status_ids);
    }
  }
  return lists;
}

hpe::BridgeConfig BindingCompiler::build_gateway_config() {
  hpe::BridgeConfig config;
  config.mode_frame_id = msg::kModeChange;
  for (CarMode mode : kAllModes) {
    config.per_mode[static_cast<std::uint8_t>(mode)] = build_gateway_lists(mode);
  }
  config.default_lists =
      config.per_mode[static_cast<std::uint8_t>(CarMode::kNormal)];
  return config;
}

hpe::HpeConfig BindingCompiler::build_hpe_config(const std::string& node) {
  hpe::HpeConfig config;
  config.mode_frame_id = msg::kModeChange;
  if (options_.mode_conditional) {
    for (CarMode mode : kAllModes) {
      config.per_mode[static_cast<std::uint8_t>(mode)] =
          build_lists(node, mode);
    }
  }
  // Default lists (unknown mode byte, or mode-conditionality ablated):
  // normal-mode lists.
  config.default_lists = build_lists(node, CarMode::kNormal);
  return config;
}

std::vector<can::AcceptanceFilter> BindingCompiler::build_rx_filters(
    const std::string& node, CarMode mode) {
  // Reconstruct the read list and express it as exact-match filters. The
  // approved lists built above only use exact standard ids, so this is a
  // faithful software equivalent.
  std::vector<can::AcceptanceFilter> filters;
  const hpe::ListPair lists = build_lists(node, mode);

  // Enumerate all known standard ids and keep those the list accepts;
  // exact ids in the car's map are the only ones ever used.
  static const std::uint32_t known[] = {
      msg::kModeChange,   msg::kFailSafeTrigger, msg::kEmergencyCall,
      msg::kEcuCommand,   msg::kEcuStatus,       msg::kEpsCommand,
      msg::kEpsStatus,    msg::kEngineCommand,   msg::kEngineStatus,
      msg::kLockCommand,  msg::kLockStatus,      msg::kAlarmCommand,
      msg::kAlarmStatus,  msg::kModemCommand,    msg::kModemStatus,
      msg::kIviCommand,   msg::kIviStatus,       msg::kSensorAccel,
      msg::kSensorBrake,  msg::kSensorSpeed,     msg::kSensorProximity,
      msg::kAirbagEvent,  msg::kTrackingReport,  msg::kFirmwareUpdate,
      msg::kDiagRequest,  msg::kDiagResponse,
  };
  for (const auto id : known) {
    if (lists.read.contains(can::CanId::standard(id))) {
      filters.push_back(can::AcceptanceFilter::exact(id));
    }
  }
  return filters;
}

}  // namespace psme::car
