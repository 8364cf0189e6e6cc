#include "can/wire_mac.h"

#include <algorithm>
#include <stdexcept>

namespace psme::can {

namespace {

[[nodiscard]] std::uint64_t flow_key_of(CanId id) noexcept {
  return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
}

}  // namespace

std::string_view to_string(WireDropReason reason) noexcept {
  switch (reason) {
    case WireDropReason::kPolicyDenied: return "policy-denied";
    case WireDropReason::kUnbound: return "unbound";
    case WireDropReason::kFlowDenied: return "flow-denied";
    case WireDropReason::kMalformedIsoTp: return "malformed-isotp";
    case WireDropReason::kFlowTimeout: return "flow-timeout";
    case WireDropReason::kCount: break;
  }
  return "invalid";
}

// -- WireBindingTable::Builder --------------------------------------------

WireBindingTable::Builder& WireBindingTable::Builder::pass_standard(
    std::uint32_t id) {
  return pass_standard_range(id, id);
}

WireBindingTable::Builder& WireBindingTable::Builder::pass_standard_range(
    std::uint32_t first, std::uint32_t last) {
  if (first > last || last > CanId::kMaxStandard) {
    throw std::invalid_argument("WireBindingTable: bad standard id range");
  }
  for (std::uint32_t id = first; id <= last; ++id) {
    table_.std_slots_[id] = kPassSlot;
  }
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::pass_pgn(
    std::uint32_t pgn) {
  table_.pgn_slots_[pgn] = kPassSlot;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::bind_standard(
    std::uint32_t id, std::span<const mac::Sid> subjects, mac::Sid object,
    core::AccessType access, bool isotp) {
  if (id > CanId::kMaxStandard) {
    throw std::invalid_argument("WireBindingTable: standard id > 0x7FF");
  }
  if (subjects.empty()) {
    throw std::invalid_argument(
        "WireBindingTable: standard binding needs at least one subject");
  }
  Binding b;
  b.object = object;
  b.access = access;
  b.subject_offset = static_cast<std::uint32_t>(table_.subjects_.size());
  b.subject_count = static_cast<std::uint16_t>(subjects.size());
  b.isotp = isotp;
  table_.subjects_.insert(table_.subjects_.end(), subjects.begin(),
                          subjects.end());
  table_.max_subjects_ = std::max(table_.max_subjects_, subjects.size());
  table_.std_slots_[id] = static_cast<std::int32_t>(table_.bindings_.size());
  table_.bindings_.push_back(b);
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::bind_pgn(
    std::uint32_t pgn, std::span<const mac::Sid> subjects, mac::Sid object,
    core::AccessType access, bool isotp) {
  Binding b;
  b.object = object;
  b.access = access;
  b.subject_offset = static_cast<std::uint32_t>(table_.subjects_.size());
  b.subject_count = static_cast<std::uint16_t>(subjects.size());
  b.isotp = isotp;
  table_.subjects_.insert(table_.subjects_.end(), subjects.begin(),
                          subjects.end());
  table_.max_subjects_ =
      std::max<std::size_t>(table_.max_subjects_,
                            subjects.empty() ? 1 : subjects.size());
  table_.pgn_slots_[pgn] = static_cast<std::int32_t>(table_.bindings_.size());
  table_.bindings_.push_back(b);
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::j1939_source(
    std::uint8_t address, mac::Sid subject) {
  table_.j1939_sources_[address] = subject;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::set_mode(
    mac::Sid mode_sid) {
  table_.mode_sid_ = mode_sid;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::set_unbound_allowed(
    bool allowed) {
  table_.unbound_allowed_ = allowed;
  return *this;
}

WireBindingTable WireBindingTable::Builder::build() {
  return std::move(table_);
}

// -- WireMac ---------------------------------------------------------------

WireMac::WireMac(WireBindingTable table,
                 const core::CompiledPolicyImage& image)
    : table_(std::move(table)), image_(image) {}

void WireMac::count_drop(const Frame& frame, WireDropReason reason,
                         sim::SimTime at) {
  ++drops_by_reason_[static_cast<std::size_t>(reason)];
  switch (reason) {
    case WireDropReason::kPolicyDenied: ++stats_.denied; break;
    case WireDropReason::kUnbound: ++stats_.unbound; break;
    case WireDropReason::kFlowDenied: ++stats_.flow_denied_frames; break;
    case WireDropReason::kMalformedIsoTp: ++stats_.isotp_errors; break;
    case WireDropReason::kFlowTimeout:
    case WireDropReason::kCount: break;
  }
  if (drop_sink_ != nullptr) drop_sink_->on_wire_drop(frame, reason, at);
}

void WireMac::expire_flows(sim::SimTime now) {
  for (const CanId id : reassembler_.expire(now)) {
    flow_verdicts_.erase(flow_key_of(id));
    ++stats_.flow_timeouts;
    ++drops_by_reason_[static_cast<std::size_t>(WireDropReason::kFlowTimeout)];
  }
}

WireMac::Plan WireMac::classify(const Frame& frame, sim::SimTime at) {
  Plan plan;
  const CanId id = frame.id();

  std::int32_t slot;
  std::span<const mac::Sid> subjects;
  mac::Sid j1939_single = mac::kNullSid;
  if (!id.is_extended()) {
    slot = table_.standard_slot(id.raw());
  } else {
    const J1939Id j = J1939Id::decompose(id.raw());
    slot = table_.pgn_slot(j.pgn);
    if (slot >= 0 && table_.binding(slot).subject_count == 0) {
      j1939_single = table_.j1939_subject(j.src);
      if (j1939_single == mac::kNullSid) slot = WireBindingTable::kUnboundSlot;
    }
  }

  if (slot == WireBindingTable::kPassSlot) {
    plan.kind = Plan::Kind::kPass;
    return plan;
  }
  if (slot == WireBindingTable::kUnboundSlot) {
    if (table_.unbound_allowed()) {
      plan.kind = Plan::Kind::kPass;
    } else {
      plan.kind = Plan::Kind::kDrop;
      plan.reason = WireDropReason::kUnbound;
    }
    return plan;
  }

  const WireBindingTable::Binding& binding = table_.binding(slot);
  if (binding.subject_count != 0) subjects = table_.subjects_of(binding);

  const auto emit_lanes = [&]() {
    plan.kind = Plan::Kind::kAdjudicate;
    plan.lane_offset = static_cast<std::uint32_t>(lanes_.size());
    const mac::Sid mode = table_.mode_sid();
    if (binding.subject_count == 0) {
      plan.lane_count = 1;
      lanes_.push_back(core::SidRequest{j1939_single, binding.object,
                                        binding.access, mode});
      return;
    }
    plan.lane_count = binding.subject_count;
    for (const mac::Sid subject : subjects) {
      lanes_.push_back(
          core::SidRequest{subject, binding.object, binding.access, mode});
    }
  };

  if (!binding.isotp) {
    emit_lanes();
    return plan;
  }

  // ISO-TP id: the transport state machine decides whether this frame
  // buys a verdict (SF, FF) or rides the flow's (CF).
  const std::uint64_t key = flow_key_of(id);
  const IsoTpReassembler::Event event = reassembler_.feed(frame, at);
  switch (event.kind) {
    case IsoTpReassembler::EventKind::kMessageComplete:
      if (event.message != nullptr && isotp_frame_type(frame) ==
                                          IsoTpFrameType::kSingle) {
        // A whole message in one frame adjudicates like a plain frame;
        // it also tore down any half-open flow on the id.
        flow_verdicts_.erase(key);
        batch_flow_leaders_.erase(key);
        emit_lanes();
        return plan;
      }
      // Final CF: inherit the flow verdict, then forget the flow.
      plan.flow_op = Plan::FlowOp::kComplete;
      [[fallthrough]];
    case IsoTpReassembler::EventKind::kPayloadFrame: {
      plan.flow_key = key;
      const auto leader = batch_flow_leaders_.find(key);
      if (leader != batch_flow_leaders_.end()) {
        plan.kind = Plan::Kind::kInheritFlow;
        plan.flow_leader = leader->second;
        if (plan.flow_op == Plan::FlowOp::kComplete) {
          batch_flow_leaders_.erase(leader);
        }
        return plan;
      }
      const auto verdict = flow_verdicts_.find(key);
      if (verdict == flow_verdicts_.end()) {
        // Conversation open but no verdict: unreachable, since a verdict
        // is dropped only with its conversation (completion, SF, an error
        // that ends it, expiry). Fail closed if it ever happens.
        plan.kind = Plan::Kind::kDrop;
        plan.reason = WireDropReason::kFlowDenied;
        return plan;
      }
      plan.kind = Plan::Kind::kCachedFlow;
      plan.cached_allowed = verdict->second;
      return plan;
    }
    case IsoTpReassembler::EventKind::kMessageStart:
      // The FF buys the flow's verdict; same-batch CFs inherit it by
      // frame index, later batches through flow_verdicts_.
      emit_lanes();
      plan.flow_op = Plan::FlowOp::kRecord;
      plan.flow_key = key;
      return plan;
    case IsoTpReassembler::EventKind::kError:
      // A malformed SF, FF or FC leaves the conversation open, and its
      // remaining CFs still ride the verdict; only an error that ended
      // the conversation ends the flow. (frame.id() rather than `id`:
      // keeping `id` live across feed() slowed bench_wire_mac's j1939
      // row by ~7% under gcc 12.)
      if (!reassembler_.in_conversation(frame.id())) {
        flow_verdicts_.erase(key);
        batch_flow_leaders_.erase(key);
      }
      plan.kind = Plan::Kind::kDrop;
      plan.reason = WireDropReason::kMalformedIsoTp;
      return plan;
    case IsoTpReassembler::EventKind::kNone:
      // Flow control: receiver pacing, carries no adjudicable payload.
      plan.kind = Plan::Kind::kPass;
      return plan;
  }
  plan.kind = Plan::Kind::kDrop;
  plan.reason = WireDropReason::kMalformedIsoTp;
  return plan;
}

bool WireMac::admit(const Frame& frame, sim::SimTime at) {
  std::uint8_t allowed = 0;
  adjudicate_batch({&frame, 1}, at, {&allowed, 1});
  return allowed != 0;
}

void WireMac::adjudicate_batch(std::span<const Frame> frames, sim::SimTime at,
                               std::span<std::uint8_t> allowed_out) {
  if (frames.size() != allowed_out.size()) {
    throw std::invalid_argument(
        "WireMac::adjudicate_batch: span lengths differ");
  }
  expire_flows(at);

  // Classify pass: one plan per frame, SID lanes accumulated for ONE
  // image call.
  plans_.clear();
  lanes_.clear();
  batch_flow_leaders_.clear();
  plans_.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Plan plan = classify(frames[i], at);
    if (plan.flow_op == Plan::FlowOp::kRecord) {
      batch_flow_leaders_[plan.flow_key] = static_cast<std::uint32_t>(i);
    }
    plans_.push_back(plan);
  }

  lane_verdicts_.resize(lanes_.size());
  if (!lanes_.empty()) {
    image_.evaluate_batch_allowed(lanes_, lane_verdicts_);
  }

  // Apply pass: resolve each plan to a verdict, in stream order so flow
  // bookkeeping (record, inherit, complete) sees a consistent timeline.
  stats_.frames += frames.size();
  stats_.sid_requests += lanes_.size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Plan& plan = plans_[i];
    bool allowed = false;
    switch (plan.kind) {
      case Plan::Kind::kPass:
        allowed = true;
        ++stats_.passed;
        break;
      case Plan::Kind::kDrop:
        count_drop(frames[i], plan.reason, at);
        break;
      case Plan::Kind::kAdjudicate: {
        ++stats_.adjudicated;
        for (std::uint32_t lane = plan.lane_offset;
             lane < plan.lane_offset + plan.lane_count; ++lane) {
          if (lane_verdicts_[lane] != 0) {
            allowed = true;
            break;
          }
        }
        if (plan.flow_op == Plan::FlowOp::kRecord) {
          flow_verdicts_[plan.flow_key] = allowed;
          ++stats_.flow_starts;
        }
        if (!allowed) count_drop(frames[i], WireDropReason::kPolicyDenied, at);
        break;
      }
      case Plan::Kind::kInheritFlow:
      case Plan::Kind::kCachedFlow: {
        allowed = plan.kind == Plan::Kind::kInheritFlow
                      ? allowed_out[plan.flow_leader] != 0
                      : plan.cached_allowed;
        if (allowed) {
          ++stats_.flow_frames;
        } else {
          count_drop(frames[i], WireDropReason::kFlowDenied, at);
        }
        if (plan.flow_op == Plan::FlowOp::kComplete) {
          flow_verdicts_.erase(plan.flow_key);
        }
        break;
      }
    }
    if (allowed) ++stats_.allowed;
    allowed_out[i] = allowed ? 1 : 0;
  }
}

}  // namespace psme::can
