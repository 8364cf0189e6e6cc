// psme::sim — discrete-event simulation kernel.
//
// A Scheduler owns a priority queue of (time, sequence, action) events and
// executes them in nondecreasing time order. Ties are broken by insertion
// sequence, which makes runs fully deterministic: the same schedule calls
// always replay in the same order.
//
// All psme substrates (the CAN bus, car component nodes, attack traffic
// generators, the OTA update channel) are driven from one Scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace psme::sim {

/// Handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Discrete-event scheduler.
///
/// Not thread-safe by design: discrete-event simulation is sequential, and
/// determinism is a hard requirement (see DESIGN.md). All interaction with
/// a Scheduler must happen from the thread running it.
class Scheduler {
 public:
  using Action = std::function<void()>;

  Scheduler() = default;

  // The queue stores self-referential callbacks; moving a live scheduler is
  // never needed and would invite subtle bugs, so forbid copies and moves.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Starts at kSimStart.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` to run at absolute time `at`. Scheduling in the
  /// past (at < now) is a programming error and throws std::logic_error.
  /// The scheduler stores `label` as a view: its characters must outlive
  /// the event (a string literal always does; DESIGN.md §8).
  EventId schedule_at(SimTime at, Action action, std::string_view label = {});

  /// Schedules `action` to run `delay` after the current time.
  EventId schedule_in(SimDuration delay, Action action,
                      std::string_view label = {});

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired. Cancelling an already-executed, already-cancelled or
  /// unknown id is a no-op that returns false. Scans the queue: O(pending()).
  bool cancel(EventId id) noexcept;

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= deadline; afterwards now() == deadline even
  /// if the queue drained early (so periodic processes can resume cleanly).
  /// Returns the number of events executed.
  std::size_t run_until(SimTime deadline);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Number of events waiting (including cancelled-but-not-reaped ones).
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    SimTime at;
    EventId id;             // issued in insertion order: the FIFO tie-breaker
    std::string_view label;
    Action action;          // empty once cancelled
  };
  /// Heap order: the earliest (time, id) sits at queue_.front().
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  std::vector<Event> queue_;  // binary heap under Later
  SimTime now_ = kSimStart;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
};

/// Convenience for periodic processes: reschedules itself every `period`
/// until stop() is called or the owning scheduler drains past `until`.
class PeriodicTask {
 public:
  /// Starts immediately at `first` (absolute), then every `period`.
  PeriodicTask(Scheduler& sched, SimTime first, SimDuration period,
               std::function<void()> body, std::string label = {});
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings. Safe to call from inside the task body.
  void stop() noexcept;

  [[nodiscard]] bool running() const noexcept { return !stopped_; }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  void arm(SimTime at);

  Scheduler& sched_;
  SimDuration period_;
  std::function<void()> body_;
  std::string label_;  // owns the characters every armed event's label views
  EventId pending_ = 0;
  bool stopped_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace psme::sim
