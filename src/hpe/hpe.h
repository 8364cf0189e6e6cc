// psme::hpe — the hardware-based policy engine (paper Fig. 4).
//
// The HPE sits between a node's CAN controller and the bus, exactly where
// Fig. 4 places it: a *reading filter* screens frames arriving from the
// bus and a *writing filter* screens frames the node tries to send. Each
// filter consults an approved message-ID list through the decision block,
// which "either grants or blocks the access".
//
// Properties reproduced from the paper:
//  * transparency — the HPE implements can::Channel, so node software
//    (the Controller) cannot tell whether it is present;
//  * inside-attack curtailment — the writing filter stops a compromised
//    node from emitting unapproved IDs;
//  * outside-attack curtailment — the reading filter stops unapproved IDs
//    from reaching the node even if the node's own software filter was
//    reprogrammed by an attacker;
//  * tamper resistance — after lock(), lists change only through an
//    authenticated policy update (cf. software filters, which any firmware
//    compromise can rewrite).
//
// Mode awareness: the engine optionally snoops a designated mode-change
// broadcast frame and switches between per-mode list pairs without any
// software involvement, supporting Table I's mode-conditional policies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/channel.h"
#include "core/update.h"
#include "hpe/approved_list.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace psme::hpe {

enum class Direction : std::uint8_t { kRead, kWrite };

[[nodiscard]] std::string_view to_string(Direction d) noexcept;

/// One audit record emitted by the decision block for a blocked frame.
struct AuditRecord {
  sim::SimTime at{};
  Direction direction = Direction::kRead;
  can::CanId id;
  std::uint8_t mode = 0;
};

struct HpeStats {
  std::uint64_t read_granted = 0;
  std::uint64_t read_blocked = 0;
  std::uint64_t write_granted = 0;
  std::uint64_t write_blocked = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t tamper_attempts = 0;  // rejected runtime modifications

  [[nodiscard]] std::uint64_t total_blocked() const noexcept {
    return read_blocked + write_blocked;
  }
};

/// Fine-grained content rule (the paper's "more complex policies such as
/// behavioural or situational based policies"): frames carrying `id` must
/// have payload byte `byte_index` within [min, max] or they are blocked
/// even though the id itself is approved. Example: in fail-safe mode the
/// door node accepts the lock-command id but only with the UNLOCK opcode.
struct PayloadRule {
  std::uint32_t id = 0;  // standard identifier the rule applies to
  std::uint8_t byte_index = 0;
  std::uint8_t min = 0;
  std::uint8_t max = 255;

  [[nodiscard]] bool satisfied_by(const can::Frame& frame) const noexcept {
    if (frame.id().is_extended() || frame.id().raw() != id) return true;
    if (frame.dlc() <= byte_index) return false;  // byte absent: reject
    const std::uint8_t v = frame.data()[byte_index];
    return v >= min && v <= max;
  }
};

/// Read- and write-list pair for one operational mode, plus optional
/// content rules applied after the id check (both directions).
struct ListPair {
  ApprovedIdList read;
  ApprovedIdList write;
  std::vector<PayloadRule> content_rules;
};

struct HpeConfig {
  /// Lists used when no per-mode entry exists for the current mode.
  ListPair default_lists;
  /// Mode key (e.g. car mode enum value) -> lists for that mode.
  std::map<std::uint8_t, ListPair> per_mode;
  /// When set, the engine snoops this standard frame id; payload byte 0 is
  /// interpreted as the new mode key.
  std::optional<std::uint32_t> mode_frame_id;
  /// Simulated lookup cost in hardware clock cycles, accounted per frame
  /// (a CAM lookup is 1-2 cycles; the default is deliberately pessimistic).
  std::uint32_t decision_cycles = 4;
};

class HardwarePolicyEngine final : public can::Channel, public can::FrameSink {
 public:
  /// Blocks the audit log keeps: the most recent ones.
  static constexpr std::size_t kAuditCapacity = 1024;

  /// Wraps `inner` (usually a Bus port). The engine registers itself as the
  /// inner channel's sink; the protected controller then attaches to the
  /// engine. `name` labels trace/audit output. `policy_version` is the
  /// version of the policy `config` was compiled from: apply_update()
  /// accepts only bundles newer than it.
  HardwarePolicyEngine(can::Channel& inner, HpeConfig config, std::string name,
                       sim::Trace* trace = nullptr,
                       std::uint64_t policy_version = 1);
  ~HardwarePolicyEngine() override;

  HardwarePolicyEngine(const HardwarePolicyEngine&) = delete;
  HardwarePolicyEngine& operator=(const HardwarePolicyEngine&) = delete;

  // -- can::Channel (node-facing side) ----------------------------------
  bool submit(const can::Frame& frame) override;     // writing filter
  void set_sink(can::FrameSink* sink) override { node_sink_ = sink; }
  [[nodiscard]] bool busy() const override { return inner_.busy(); }

  // -- can::FrameSink (bus-facing side) ----------------------------------
  void on_frame(const can::Frame& frame, sim::SimTime at) override;  // reading filter
  void on_transmit_complete(const can::Frame& frame, bool success,
                            sim::SimTime at) override;

  // -- provisioning and update -------------------------------------------

  /// Freezes the configuration. After locking, set_config() throws — the
  /// only way in is apply_update(). Models one-time-programmable policy
  /// storage provisioned at manufacture.
  void lock() noexcept { locked_ = true; }
  [[nodiscard]] bool locked() const noexcept { return locked_; }

  /// Replaces the configuration. Throws std::logic_error once locked
  /// (counted as a tamper attempt — this is the entry point a firmware
  /// compromise would try).
  void set_config(HpeConfig config);

  /// Authenticated reconfiguration: verifies the bundle tag with the
  /// device-provisioned verifier, requires a strictly newer version, then
  /// installs lists derived by the caller. Returns false (and counts a
  /// tamper attempt) on verification failure.
  bool apply_update(const core::PolicyBundle& bundle,
                    const core::PolicySigner& verifier, HpeConfig new_config);

  // -- observation --------------------------------------------------------
  [[nodiscard]] const HpeStats& stats() const noexcept { return stats_; }
  /// The last kAuditCapacity blocks (all of them until there are more),
  /// oldest first: a snapshot, as sim::Trace::entries() is.
  [[nodiscard]] std::vector<AuditRecord> audit_log() const;
  [[nodiscard]] std::uint8_t current_mode() const noexcept { return mode_; }
  [[nodiscard]] std::uint64_t policy_version() const noexcept {
    return policy_version_;
  }
  [[nodiscard]] std::uint64_t cycles_spent() const noexcept { return cycles_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Forces the mode (used when no mode_frame_id snooping is configured).
  void set_mode(std::uint8_t mode) noexcept;

 private:
  [[nodiscard]] const ListPair& active_lists() const noexcept {
    return *active_;
  }
  /// Re-resolves active_ after a mode or configuration change, so the
  /// per-frame decision path never walks the per-mode map.
  void refresh_active_lists() noexcept;
  [[nodiscard]] bool decide(const can::Frame& frame, Direction direction,
                            sim::SimTime at);
  void record_block(can::CanId id, Direction direction, sim::SimTime at);

  can::Channel& inner_;
  HpeConfig config_;
  const ListPair* active_ = nullptr;  // into config_; never null post-ctor
  std::string name_;
  sim::Trace* trace_;
  std::string trace_component_;  // "hpe.<name>"
  // trace_component_ in trace_, from the first block on.
  std::optional<sim::TraceComponent> trace_handle_;
  can::FrameSink* node_sink_ = nullptr;
  bool locked_ = false;
  std::uint8_t mode_ = 0;
  std::uint64_t policy_version_;
  std::uint64_t cycles_ = 0;
  HpeStats stats_;
  /// Ring of the most recent blocks, allocated at the first block: block
  /// n (from 0) lands at n % kAuditCapacity, over the oldest record.
  std::unique_ptr<AuditRecord[]> audit_;
  std::uint64_t audit_blocks_ = 0;  // blocks recorded so far
};

}  // namespace psme::hpe
