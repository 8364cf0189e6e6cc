#include "hpe/hpe.h"

#include <algorithm>
#include <stdexcept>

namespace psme::hpe {

namespace {

// A block's trace message, "<direction> blocked id=<id>", rendered when
// the trace is read. The argument is the id's packed() form with the
// direction in bit 30.
constexpr std::uint32_t kWriteBit = 1U << 30;

char* render_block(char* out, std::uint32_t arg) noexcept {
  const std::string_view direction =
      to_string((arg & kWriteBit) != 0 ? Direction::kWrite : Direction::kRead);
  out = std::copy(direction.begin(), direction.end(), out);
  constexpr std::string_view kBlocked = " blocked id=";
  out = std::copy(kBlocked.begin(), kBlocked.end(), out);
  return can::CanId::unpack(arg).put_text(out);
}

constexpr sim::TraceFormat kBlockFormat{
    &render_block, std::string_view("write blocked id=").size() +
                       can::CanId::kMaxText};

}  // namespace

std::string_view to_string(Direction d) noexcept {
  return d == Direction::kRead ? "read" : "write";
}

HardwarePolicyEngine::HardwarePolicyEngine(can::Channel& inner,
                                           HpeConfig config, std::string name,
                                           sim::Trace* trace,
                                           std::uint64_t policy_version)
    : inner_(inner),
      config_(std::move(config)),
      name_(std::move(name)),
      trace_(trace),
      trace_component_("hpe." + name_),
      policy_version_(policy_version) {
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
  if (!audit_) {
    audit_ = std::make_unique<AuditRecord[]>(kAuditCapacity);
  }
  audit_[audit_blocks_++ % kAuditCapacity] =
      AuditRecord{at, direction, id, mode_};
  if (trace_ != nullptr) {
    // Resolved here, not in the constructor, so an engine adds nothing
    // to its vehicle's build until it blocks.
    if (!trace_handle_) trace_handle_ = trace_->component(trace_component_);
    const std::uint32_t write =
        direction == Direction::kWrite ? kWriteBit : 0;
    trace_->record(at, sim::TraceLevel::kSecurity, *trace_handle_,
                   kBlockFormat, id.packed() | write);
  }
}

std::vector<AuditRecord> HardwarePolicyEngine::audit_log() const {
  const std::uint64_t first =
      audit_blocks_ > kAuditCapacity ? audit_blocks_ - kAuditCapacity : 0;
  std::vector<AuditRecord> log;
  log.reserve(audit_blocks_ - first);
  for (std::uint64_t n = first; n < audit_blocks_; ++n) {
    log.push_back(audit_[n % kAuditCapacity]);
  }
  return log;
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
