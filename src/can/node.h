// psme::can — base class for application nodes attached to the bus.
//
// A Node pairs a Controller with an application "processor" (the virtual
// handle_frame). Car components (psme::car) and attacker models
// (psme::attack) both derive from this.
#pragma once

#include <string>
#include <string_view>

#include "can/controller.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace psme::can {

class Node {
 public:
  /// `channel` is the node's attachment toward the bus. When a hardware
  /// policy engine protects the node, the HPE object is passed here and
  /// wraps the real port — node code is identical either way, which is the
  /// transparency property claimed in the paper.
  Node(sim::Scheduler& sched, Channel& channel, std::string name,
       sim::Trace* trace = nullptr, std::uint64_t rng_seed = 7);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Controller& controller() noexcept { return controller_; }
  [[nodiscard]] const Controller& controller() const noexcept {
    return controller_;
  }

 protected:
  /// Application handler; called for every frame the controller accepts.
  virtual void handle_frame(const Frame& frame, sim::SimTime at) {
    (void)frame;
    (void)at;
  }

  /// Queues a frame for transmission via the controller.
  bool send(const Frame& frame) { return controller_.transmit(frame); }

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }

  /// True when an attached trace keeps `level`. A message that needs
  /// formatting is built only inside this guard (DESIGN.md §8).
  [[nodiscard]] bool tracing(sim::TraceLevel level) const noexcept;
  /// Records `msg` under "node.<name>" when tracing(level).
  void trace(sim::TraceLevel level, std::string_view msg);

 private:
  sim::Scheduler& sched_;
  std::string name_;
  sim::Trace* trace_;
  std::string trace_component_;  // "node.<name>"
  sim::Rng rng_;
  Controller controller_;
};

}  // namespace psme::can
