// psme::monitor — bus-level anomaly detection.
//
// The paper's software policy engine "check[s] application permission
// boundaries and identif[ies] anomalous behaviour" (Sec. IV). Permission
// boundaries are psme::mac; this module supplies the anomaly half: a
// passive bus tap that learns the vehicle's static CAN traffic matrix and
// flags
//   * unknown identifiers — ids never seen during training (a classic CAN
//     IDS signal: the frame matrix of a vehicle is fixed at design time);
//   * rate anomalies — a known id arriving far above its learned per-
//     window ceiling (flooding, command-injection bursts).
//
// The monitor is deliberately *detection only*: it cannot block (it is a
// tap, not a shim), which is exactly the division of labour the paper
// draws between monitoring software and the enforcing HPE.
//
// Alongside the bus tap, DenyStreakMonitor consumes the fleet-scale
// telemetry feed (car::FleetTickStats::vehicle_denied): a vehicle whose
// policy denials persist across consecutive sweeps is behaving outside
// its threat-model envelope tick after tick — a compromised-vehicle
// candidate, not traffic noise.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "can/channel.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace psme::monitor {

enum class AlertKind : std::uint8_t {
  kUnknownId,     // id absent from the learned matrix
  kRateExceeded,  // known id above threshold_factor x learned ceiling
};

[[nodiscard]] std::string_view to_string(AlertKind kind) noexcept;

struct Alert {
  sim::SimTime at{};
  AlertKind kind = AlertKind::kUnknownId;
  can::CanId id;
  std::uint64_t observed = 0;  // frames in the offending window
  std::uint64_t ceiling = 0;   // learned per-window ceiling (0 for unknown)
};

struct RateMonitorOptions {
  /// Bucketing granularity for rate accounting.
  sim::SimDuration window = std::chrono::milliseconds{100};
  /// Alert when a window's count exceeds ceiling * factor. Must be
  /// finite and > 1.
  double threshold_factor = 4.0;
  /// Ids whose learned ceiling is below this floor use the floor instead
  /// (protects rarely-seen ids from alerting on normal jitter).
  std::uint64_t min_ceiling = 3;
};

/// Passive CAN tap. Attach it as the sink of a dedicated bus port:
///
///   can::Port& tap = bus.attach("ids");
///   monitor::FrameRateMonitor ids(sched, options);
///   tap.set_sink(&ids);
///   ids.start_training();  ... run normal traffic ...
///   ids.start_detection(); ... alerts() fills on anomalies ...
class FrameRateMonitor final : public can::FrameSink {
 public:
  explicit FrameRateMonitor(sim::Scheduler& sched,
                            RateMonitorOptions options = {},
                            sim::Trace* trace = nullptr);

  /// Begins (or restarts) learning the traffic matrix.
  void start_training();

  /// Freezes the learned baseline and begins alerting. Throws
  /// std::logic_error if no training happened first.
  void start_detection();

  [[nodiscard]] bool detecting() const noexcept { return detecting_; }

  // -- results -----------------------------------------------------------
  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] std::uint64_t frames_observed() const noexcept {
    return observed_;
  }
  /// Number of distinct ids in the learned matrix.
  [[nodiscard]] std::size_t known_ids() const noexcept {
    return baseline_.size();
  }
  /// Learned per-window ceiling for an id (0 when unknown).
  [[nodiscard]] std::uint64_t ceiling(can::CanId id) const noexcept;

  // -- can::FrameSink ------------------------------------------------------
  void on_frame(const can::Frame& frame, sim::SimTime at) override;

 private:
  [[nodiscard]] static std::uint64_t key(can::CanId id) noexcept {
    return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
  }
  [[nodiscard]] std::int64_t window_index(sim::SimTime at) const noexcept {
    return at.count() / options_.window.count();
  }

  sim::Scheduler& sched_;
  RateMonitorOptions options_;
  sim::Trace* trace_;
  sim::TraceComponent trace_component_;  // "monitor.ids" in trace_

  struct IdState {
    std::int64_t current_window = -1;
    std::uint64_t count_in_window = 0;
    std::uint64_t ceiling = 0;       // trained maximum per window
    bool alerted_this_window = false;
  };
  std::map<std::uint64_t, IdState> live_;
  std::map<std::uint64_t, std::uint64_t> baseline_;  // frozen at detection

  bool training_ = false;
  bool trained_ = false;
  bool detecting_ = false;
  std::uint64_t observed_ = 0;
  std::vector<Alert> alerts_;
};

struct DenyStreakOptions {
  /// A tick extends a vehicle's streak when its deny count reaches this.
  std::uint32_t deny_threshold = 1;
  /// Consecutive qualifying ticks before the vehicle is flagged.
  std::uint32_t streak_ticks = 3;
};

/// Fleet-scale deny-streak detector. Feed it each fleet sweep's
/// per-vehicle deny counts (car::FleetTickStats::vehicle_denied); a
/// vehicle denied on `streak_ticks` CONSECUTIVE sweeps is flagged once as
/// a compromised-vehicle candidate. One below-threshold tick resets the
/// vehicle's streak (denial bursts are normal during mode transitions;
/// persistence is the signal). Detection only, like everything in this
/// module: flagging feeds an operator console, it does not block.
class DenyStreakMonitor {
 public:
  /// Throws std::invalid_argument on a zero fleet, zero threshold or
  /// zero streak length.
  explicit DenyStreakMonitor(std::size_t fleet_size,
                             DenyStreakOptions options = {});

  /// Accounts one fleet sweep. `vehicle_denied` must have exactly
  /// fleet-size entries (throws std::invalid_argument otherwise).
  void observe_tick(std::span<const std::uint32_t> vehicle_denied);

  /// Vehicles flagged so far, in first-flag order (each appears once).
  [[nodiscard]] const std::vector<std::uint32_t>& flagged() const noexcept {
    return flagged_;
  }
  /// O(1) cohort health summary — the fraction of the fleet NOT flagged
  /// so far (flags are sticky, so this is monotone non-increasing
  /// between resets). This is the wave gate the OTA campaign
  /// orchestrator (car::CampaignServer) keys on: no per-vehicle
  /// iteration by callers, just the flag count the monitor already
  /// maintains. 1.0 before any tick.
  [[nodiscard]] double healthy_fraction() const noexcept {
    return 1.0 - static_cast<double>(flagged_.size()) /
                     static_cast<double>(streaks_.size());
  }
  /// Current consecutive-deny-tick streak of one vehicle.
  [[nodiscard]] std::uint32_t streak(std::size_t vehicle) const;
  [[nodiscard]] std::uint64_t ticks_observed() const noexcept {
    return ticks_;
  }
  [[nodiscard]] std::size_t fleet_size() const noexcept {
    return streaks_.size();
  }

  /// Clears streaks and flags. Reset semantics across policy swaps: the
  /// monitor itself never observes a swap — streaks and flags persist
  /// until the OWNER resets, which is deliberate in both directions.
  /// During a staged rollout the campaign gate wants denial persistence
  /// ACROSS the swap boundary (a deny-storm policy shows up as streaks
  /// that begin right after the cohort commits), so the orchestrator
  /// resets its gate monitor when a wave's observation window OPENS and
  /// reads healthy_fraction() when it closes. A fleet operator's
  /// long-lived monitor instead resets AFTER a rollout completes, so
  /// denial bursts caused by the rule change itself (new quarantines
  /// biting) are not mistaken for per-vehicle compromise streaks.
  void reset();

 private:
  DenyStreakOptions options_;
  std::vector<std::uint32_t> streaks_;       // per vehicle
  std::vector<std::uint8_t> already_flagged_;  // per vehicle, sticky
  std::vector<std::uint32_t> flagged_;       // first-flag order
  std::uint64_t ticks_ = 0;
};

}  // namespace psme::monitor
