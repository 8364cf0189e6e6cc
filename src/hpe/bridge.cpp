#include "hpe/bridge.h"

#include <algorithm>

namespace psme::hpe {
using can::Bus;
using can::Controller;
using can::Frame;
using can::FrameSink;
using can::Port;

namespace {

// A drop's trace message, "<direction> dropped <id>", rendered when the
// trace is read. The argument is the id's packed() form with bit 30 set
// for b->a.
constexpr std::uint32_t kBToABit = 1U << 30;

char* render_drop(char* out, std::uint32_t arg) noexcept {
  const std::string_view direction = to_string(
      (arg & kBToABit) != 0 ? BridgeDirection::kBToA : BridgeDirection::kAToB);
  out = std::copy(direction.begin(), direction.end(), out);
  constexpr std::string_view kDropped = " dropped ";
  out = std::copy(kDropped.begin(), kDropped.end(), out);
  return can::CanId::unpack(arg).put_text(out);
}

constexpr sim::TraceFormat kDropFormat{
    &render_drop, std::string_view("a->b dropped ").size() +
                      can::CanId::kMaxText};

}  // namespace

std::string_view to_string(BridgeDirection d) noexcept {
  return d == BridgeDirection::kAToB ? "a->b" : "b->a";
}

Bridge::Bridge(sim::Scheduler& sched, Bus& bus_a, Bus& bus_b,
               BridgeConfig config, std::string name, sim::Trace* trace)
    : sched_(sched),
      config_(std::move(config)),
      name_(std::move(name)),
      trace_(trace),
      side_a_(*this, BridgeDirection::kAToB),
      side_b_(*this, BridgeDirection::kBToA),
      port_a_(bus_a.attach(name_ + ".a")),
      port_b_(bus_b.attach(name_ + ".b")),
      ctrl_a_(sched, port_a_, name_ + ".a", trace),
      ctrl_b_(sched, port_b_, name_ + ".b", trace) {
  if (trace_ != nullptr) {
    trace_component_ = trace_->component("bridge." + name_);
  }
  refresh_active_lists();
  // The controllers own the ports' sinks; route their RX paths into the
  // forwarding logic. (Controller delivers accepted frames to its handler;
  // default accept-all filters make the bridge transparent at this layer.)
  ctrl_a_.set_rx_handler([this](const Frame& f, sim::SimTime at) {
    side_a_.on_frame(f, at);
  });
  ctrl_b_.set_rx_handler([this](const Frame& f, sim::SimTime at) {
    side_b_.on_frame(f, at);
  });
}

void Bridge::refresh_active_lists() noexcept {
  const auto it = config_.per_mode.find(mode_);
  active_ = it == config_.per_mode.end() ? &config_.default_lists : &it->second;
}

void Bridge::set_mode(std::uint8_t mode) noexcept {
  if (mode_ != mode) {
    mode_ = mode;
    ++stats_.mode_switches;
    refresh_active_lists();
  }
}

void Bridge::forward(const Frame& frame, BridgeDirection direction,
                     sim::SimTime at) {
  const bool a_to_b = direction == BridgeDirection::kAToB;
  // Mode snooping first: a mode frame from the mode master's side is
  // structural and always forwarded.
  const bool is_mode_frame = !a_to_b && config_.mode_frame_id.has_value() &&
                             !frame.id().is_extended() &&
                             frame.id().raw() == *config_.mode_frame_id;
  if (is_mode_frame && frame.dlc() >= 1) set_mode(frame.byte0());

  const BridgeLists& lists = active_lists();
  const bool allowed =
      is_mode_frame ||
      (a_to_b ? lists.a_to_b : lists.b_to_a).contains(frame.id());
  if (allowed) {
    Controller& out = a_to_b ? ctrl_b_ : ctrl_a_;
    std::uint64_t& forwarded =
        a_to_b ? stats_.forwarded_a_to_b : stats_.forwarded_b_to_a;
    std::uint64_t& refused =
        a_to_b ? stats_.refused_a_to_b : stats_.refused_b_to_a;
    if (out.make_room_for(frame)) {
      // The pushed-out frame was counted as forwarded when it was queued.
      --forwarded;
      ++refused;
    }
    ++(out.transmit(frame) ? forwarded : refused);
    return;
  }
  ++(a_to_b ? stats_.dropped_a_to_b : stats_.dropped_b_to_a);
  if (trace_ != nullptr) {
    trace_->record(at, sim::TraceLevel::kSecurity, trace_component_,
                   kDropFormat, frame.id().packed() | (a_to_b ? 0 : kBToABit));
  }
}

}  // namespace psme::hpe
