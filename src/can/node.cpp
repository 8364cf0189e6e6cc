#include "can/node.h"

namespace psme::can {

Node::Node(sim::Scheduler& sched, Channel& channel, std::string name,
           sim::Trace* trace, std::uint64_t rng_seed)
    : sched_(sched),
      name_(std::move(name)),
      trace_(trace),
      trace_component_("node." + name_),
      rng_(rng_seed),
      controller_(sched, channel, name_, trace) {
  controller_.set_rx_handler(
      [this](const Frame& f, sim::SimTime at) { handle_frame(f, at); });
}

bool Node::tracing(sim::TraceLevel level) const noexcept {
  return trace_ != nullptr && trace_->keeps(level);
}

void Node::trace(sim::TraceLevel level, std::string_view msg) {
  if (tracing(level)) {
    trace_->record(sched_.now(), level, trace_component_, std::string(msg));
  }
}

}  // namespace psme::can
