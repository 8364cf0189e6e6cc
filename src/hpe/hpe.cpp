#include "hpe/hpe.h"

#include <stdexcept>

namespace psme::hpe {

std::string_view to_string(Direction d) noexcept {
  return d == Direction::kRead ? "read" : "write";
}

HardwarePolicyEngine::HardwarePolicyEngine(can::Channel& inner,
                                           HpeConfig config, std::string name,
                                           sim::Trace* trace)
    : inner_(inner),
      config_(std::move(config)),
      name_(std::move(name)),
      trace_(trace),
      trace_component_("hpe." + name_) {
  refresh_active_lists();
  inner_.set_sink(this);
}

HardwarePolicyEngine::~HardwarePolicyEngine() { inner_.set_sink(nullptr); }

void HardwarePolicyEngine::refresh_active_lists() noexcept {
  const auto it = config_.per_mode.find(mode_);
  active_ = it == config_.per_mode.end() ? &config_.default_lists : &it->second;
}

bool HardwarePolicyEngine::decide(const can::Frame& frame, Direction direction,
                                  sim::SimTime at) {
  cycles_ += config_.decision_cycles;
  const can::CanId id = frame.id();
  const ListPair& lists = active_lists();
  const ApprovedIdList& list =
      direction == Direction::kRead ? lists.read : lists.write;
  bool granted = list.contains(id);
  if (granted) {
    // Fine-grained content rules: all rules naming this id must hold.
    for (const PayloadRule& rule : lists.content_rules) {
      if (!rule.satisfied_by(frame)) {
        granted = false;
        break;
      }
    }
  }
  if (granted) {
    if (direction == Direction::kRead) {
      ++stats_.read_granted;
    } else {
      ++stats_.write_granted;
    }
    return true;
  }
  if (direction == Direction::kRead) {
    ++stats_.read_blocked;
  } else {
    ++stats_.write_blocked;
  }
  record_block(id, direction, at);
  return false;
}

void HardwarePolicyEngine::record_block(can::CanId id, Direction direction,
                                        sim::SimTime at) {
  if (audit_.size() < kAuditCapacity) {
    audit_.push_back(AuditRecord{at, direction, id, mode_});
  }
  if (trace_ != nullptr && trace_->keeps(sim::TraceLevel::kSecurity)) {
    std::string message(to_string(direction));
    message += " blocked id=";
    message += id.to_string();
    trace_->record(at, sim::TraceLevel::kSecurity, trace_component_,
                   std::move(message));
  }
}

bool HardwarePolicyEngine::submit(const can::Frame& frame) {
  // Writing filter: curtails inside attacks (compromised local firmware
  // trying to emit unapproved identifiers).
  if (!decide(frame, Direction::kWrite, sim::kSimStart)) {
    return false;
  }
  return inner_.submit(frame);
}

void HardwarePolicyEngine::on_frame(const can::Frame& frame, sim::SimTime at) {
  // Autonomous mode snooping happens before filtering so that a mode
  // change frame need not be on the node's own approved read list.
  if (config_.mode_frame_id.has_value() && !frame.id().is_extended() &&
      frame.id().raw() == *config_.mode_frame_id && frame.dlc() >= 1) {
    set_mode(frame.byte0());
  }

  // Reading filter: curtails outside attacks (malicious nodes injecting
  // unapproved identifiers toward this node).
  if (!decide(frame, Direction::kRead, at)) {
    return;  // frame never reaches the controller
  }
  if (node_sink_ != nullptr) node_sink_->on_frame(frame, at);
}

void HardwarePolicyEngine::on_transmit_complete(const can::Frame& frame,
                                                bool success, sim::SimTime at) {
  if (node_sink_ != nullptr) node_sink_->on_transmit_complete(frame, success, at);
}

void HardwarePolicyEngine::set_mode(std::uint8_t mode) noexcept {
  if (mode_ != mode) {
    mode_ = mode;
    ++stats_.mode_switches;
    refresh_active_lists();
  }
}

void HardwarePolicyEngine::set_config(HpeConfig config) {
  if (locked_) {
    ++stats_.tamper_attempts;
    throw std::logic_error(
        "HardwarePolicyEngine::set_config: engine is locked; use apply_update");
  }
  config_ = std::move(config);
  refresh_active_lists();
}

bool HardwarePolicyEngine::apply_update(const core::PolicyBundle& bundle,
                                        const core::PolicySigner& verifier,
                                        HpeConfig new_config) {
  if (!verifier.verify(bundle.set, bundle.tag)) {
    ++stats_.tamper_attempts;
    if (trace_ != nullptr) {
      trace_->record(sim::kSimStart, sim::TraceLevel::kError, trace_component_,
                     "rejected policy update: bad signature");
    }
    return false;
  }
  if (bundle.version() <= policy_version_) {
    ++stats_.tamper_attempts;
    if (trace_ != nullptr) {
      trace_->record(sim::kSimStart, sim::TraceLevel::kError, trace_component_,
                     "rejected policy update: version rollback");
    }
    return false;
  }
  config_ = std::move(new_config);
  refresh_active_lists();
  policy_version_ = bundle.version();
  return true;
}

}  // namespace psme::hpe
