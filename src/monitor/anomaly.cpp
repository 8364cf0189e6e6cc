#include "monitor/anomaly.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psme::monitor {

namespace {

// The alerts' trace messages, "<prefix><id>", rendered when the trace is
// read. The argument is the id's packed() form.
template <const std::string_view& kPrefix>
char* render_alert(char* out, std::uint32_t arg) noexcept {
  out = std::copy(kPrefix.begin(), kPrefix.end(), out);
  return can::CanId::unpack(arg).put_text(out);
}

constexpr std::string_view kUnknownId = "unknown id ";
constexpr std::string_view kRateAnomaly = "rate anomaly on ";
constexpr sim::TraceFormat kUnknownIdFormat{
    &render_alert<kUnknownId>, kUnknownId.size() + can::CanId::kMaxText};
constexpr sim::TraceFormat kRateAnomalyFormat{
    &render_alert<kRateAnomaly>, kRateAnomaly.size() + can::CanId::kMaxText};

}  // namespace

std::string_view to_string(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kUnknownId: return "unknown-id";
    case AlertKind::kRateExceeded: return "rate-exceeded";
  }
  return "?";
}

FrameRateMonitor::FrameRateMonitor(sim::Scheduler& sched,
                                   RateMonitorOptions options,
                                   sim::Trace* trace)
    : sched_(sched), options_(options), trace_(trace) {
  if (options_.window <= sim::SimDuration::zero()) {
    throw std::invalid_argument("FrameRateMonitor: window must be positive");
  }
  if (!std::isfinite(options_.threshold_factor) ||
      options_.threshold_factor <= 1.0) {
    throw std::invalid_argument(
        "FrameRateMonitor: threshold factor must be finite and exceed 1");
  }
  if (trace_ != nullptr) trace_component_ = trace_->component("monitor.ids");
}

void FrameRateMonitor::start_training() {
  training_ = true;
  detecting_ = false;
  trained_ = false;
  live_.clear();
  // A restart learns the matrix from scratch. Without this, ids from the
  // previous baseline — including unknown ids registered (at ceiling 0)
  // during a past detection phase — would leak into the new matrix and
  // permanently mute the unknown-id alert for them.
  baseline_.clear();
}

void FrameRateMonitor::start_detection() {
  if (!trained_ && !training_) {
    throw std::logic_error("FrameRateMonitor: train before detecting");
  }
  // Freeze ceilings (include the still-open windows).
  for (auto& [id, state] : live_) {
    state.ceiling = std::max(state.ceiling, state.count_in_window);
    baseline_[id] = state.ceiling;
    state.current_window = -1;
    state.count_in_window = 0;
    state.alerted_this_window = false;
  }
  training_ = false;
  trained_ = true;
  detecting_ = true;
}

std::uint64_t FrameRateMonitor::ceiling(can::CanId id) const noexcept {
  const auto it = baseline_.find(key(id));
  return it == baseline_.end() ? 0 : it->second;
}

void FrameRateMonitor::on_frame(const can::Frame& frame, sim::SimTime at) {
  ++observed_;
  if (!training_ && !detecting_) return;

  const std::uint64_t id_key = key(frame.id());
  const std::int64_t window = window_index(at);

  if (training_) {
    IdState& state = live_[id_key];
    if (state.current_window != window) {
      state.ceiling = std::max(state.ceiling, state.count_in_window);
      state.current_window = window;
      state.count_in_window = 0;
    }
    ++state.count_in_window;
    return;
  }

  // Detection.
  const auto known = baseline_.find(id_key);
  if (known == baseline_.end()) {
    alerts_.push_back(Alert{at, AlertKind::kUnknownId, frame.id(), 1, 0});
    if (trace_ != nullptr) {
      trace_->record(at, sim::TraceLevel::kSecurity, trace_component_,
                     kUnknownIdFormat, frame.id().packed());
    }
    // Register so a flood of one unknown id produces one alert per window
    // rather than one per frame.
    baseline_[id_key] = 0;
    IdState& state = live_[id_key];
    state.current_window = window;
    state.count_in_window = 1;
    state.alerted_this_window = true;
    return;
  }

  IdState& state = live_[id_key];
  if (state.current_window != window) {
    state.current_window = window;
    state.count_in_window = 0;
    state.alerted_this_window = false;
  }
  ++state.count_in_window;

  const std::uint64_t effective_ceiling =
      std::max(known->second, options_.min_ceiling);
  // Compared in double: the product may exceed any integer type, and
  // for an integral count `count > x` equals `count > floor(x)`.
  const double threshold =
      static_cast<double>(effective_ceiling) * options_.threshold_factor;
  if (!state.alerted_this_window &&
      static_cast<double>(state.count_in_window) > threshold) {
    state.alerted_this_window = true;
    alerts_.push_back(Alert{at, AlertKind::kRateExceeded, frame.id(),
                            state.count_in_window, known->second});
    if (trace_ != nullptr) {
      trace_->record(at, sim::TraceLevel::kSecurity, trace_component_,
                     kRateAnomalyFormat, frame.id().packed());
    }
  }
}

DenyStreakMonitor::DenyStreakMonitor(std::size_t fleet_size,
                                     DenyStreakOptions options)
    : options_(options) {
  if (fleet_size == 0) {
    throw std::invalid_argument("DenyStreakMonitor: empty fleet");
  }
  if (options_.deny_threshold == 0) {
    throw std::invalid_argument(
        "DenyStreakMonitor: deny threshold must be positive");
  }
  if (options_.streak_ticks == 0) {
    throw std::invalid_argument(
        "DenyStreakMonitor: streak length must be positive");
  }
  streaks_.assign(fleet_size, 0);
  already_flagged_.assign(fleet_size, 0);
}

void DenyStreakMonitor::observe_tick(
    std::span<const std::uint32_t> vehicle_denied) {
  if (vehicle_denied.size() != streaks_.size()) {
    throw std::invalid_argument(
        "DenyStreakMonitor::observe_tick: fleet size mismatch");
  }
  ++ticks_;
  for (std::size_t v = 0; v < vehicle_denied.size(); ++v) {
    if (vehicle_denied[v] >= options_.deny_threshold) {
      if (++streaks_[v] >= options_.streak_ticks &&
          already_flagged_[v] == 0) {
        already_flagged_[v] = 1;
        flagged_.push_back(static_cast<std::uint32_t>(v));
      }
    } else {
      streaks_[v] = 0;
    }
  }
}

std::uint32_t DenyStreakMonitor::streak(std::size_t vehicle) const {
  return streaks_.at(vehicle);
}

void DenyStreakMonitor::reset() {
  std::fill(streaks_.begin(), streaks_.end(), 0u);
  std::fill(already_flagged_.begin(), already_flagged_.end(),
            static_cast<std::uint8_t>(0));
  flagged_.clear();
  ticks_ = 0;
}

}  // namespace psme::monitor
