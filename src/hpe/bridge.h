// psme::hpe — policy-filtering bridge between two CAN segments.
//
// One of the traditional countermeasures the paper quotes is "CAN bus
// gateway: Limit components with CAN bus access". This bridge realises
// that countermeasure as an *enforcement point*: it joins two buses and
// forwards frames between them only when the frame's identifier is on the
// per-direction approved list (optionally per operational mode, snooped
// from the mode-change broadcast like the HPE does). A segmented topology
// with a policy gateway shrinks the attack surface of the control segment
// to exactly the forwarded id set.
//
// Bus B hosts the mode master. Only a mode frame from side B switches the
// lists and crosses unconditionally; one from side A is an ordinary frame,
// checked against the a->b list, so a device on A cannot move the gateway
// (or, through it, side B) into a more permissive mode. A frame counts as
// forwarded only when the outbound controller queued it. When that queue
// is full, a frame that outranks its lowest-priority frame pushes that
// frame out (which moves from forwarded to refused), so a flood of one
// id cannot hold the queue against the mode frame or an e-call; any
// other frame is refused. Refusals are counted apart from the policy's
// drops.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "can/bus.h"
#include "can/controller.h"
#include "hpe/approved_list.h"
#include "sim/trace.h"

namespace psme::hpe {
using can::Bus;
using can::Controller;
using can::Frame;
using can::FrameSink;
using can::Port;

enum class BridgeDirection : std::uint8_t {
  kAToB,
  kBToA,
};

[[nodiscard]] std::string_view to_string(BridgeDirection d) noexcept;

struct BridgeStats {
  std::uint64_t forwarded_a_to_b = 0;
  std::uint64_t dropped_a_to_b = 0;   // not on the a->b list
  std::uint64_t refused_a_to_b = 0;   // approved, but refused by the
                                      // controller toward B (queue full)
                                      // or pushed out of its queue
  std::uint64_t forwarded_b_to_a = 0;
  std::uint64_t dropped_b_to_a = 0;
  std::uint64_t refused_b_to_a = 0;
  std::uint64_t mode_switches = 0;
};

/// Per-direction approved-id pair for one mode.
struct BridgeLists {
  hpe::ApprovedIdList a_to_b;
  hpe::ApprovedIdList b_to_a;
};

struct BridgeConfig {
  BridgeLists default_lists;
  std::map<std::uint8_t, BridgeLists> per_mode;
  /// Mode-change frame (byte 0 = mode key) of the mode master on bus B.
  /// From side B it is snooped and always forwarded, so both segments
  /// share one mode; from side A it is an ordinary frame.
  std::optional<std::uint32_t> mode_frame_id;
};

/// Store-and-forward gateway. Frames arriving on one segment are re-queued
/// for transmission on the other through a normal controller (so forwarded
/// traffic arbitrates fairly against local traffic).
class Bridge {
 public:
  Bridge(sim::Scheduler& sched, Bus& bus_a, Bus& bus_b, BridgeConfig config,
         std::string name = "gateway", sim::Trace* trace = nullptr);

  Bridge(const Bridge&) = delete;
  Bridge& operator=(const Bridge&) = delete;

  [[nodiscard]] const BridgeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint8_t current_mode() const noexcept { return mode_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void set_config(BridgeConfig config) {
    config_ = std::move(config);
    refresh_active_lists();
  }
  void set_mode(std::uint8_t mode) noexcept;

 private:
  class Side final : public FrameSink {
   public:
    Side(Bridge& bridge, BridgeDirection outbound) noexcept
        : bridge_(bridge), outbound_(outbound) {}
    void on_frame(const Frame& frame, sim::SimTime at) override {
      bridge_.forward(frame, outbound_, at);
    }

   private:
    Bridge& bridge_;
    BridgeDirection outbound_;
  };

  [[nodiscard]] const BridgeLists& active_lists() const noexcept {
    return *active_;
  }
  /// Re-resolves active_ after a mode or configuration change, keeping the
  /// per-frame forwarding path free of map lookups.
  void refresh_active_lists() noexcept;
  void forward(const Frame& frame, BridgeDirection direction, sim::SimTime at);

  sim::Scheduler& sched_;
  BridgeConfig config_;
  const BridgeLists* active_ = nullptr;  // into config_; never null post-ctor
  std::string name_;
  sim::Trace* trace_;
  sim::TraceComponent trace_component_;  // "bridge.<name>" in trace_
  std::uint8_t mode_ = 0;
  BridgeStats stats_;

  Side side_a_;  // listens on bus A, forwards toward B
  Side side_b_;
  Port& port_a_;
  Port& port_b_;
  Controller ctrl_a_;  // transmits onto bus A (i.e. B->A direction)
  Controller ctrl_b_;
};

}  // namespace psme::hpe
