#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace psme::sim {

EventId Scheduler::schedule_at(SimTime at, Action action,
                               std::string_view label) {
  if (at < now_) {
    throw std::logic_error("Scheduler::schedule_at: time is in the past");
  }
  if (!action) {
    throw std::invalid_argument("Scheduler::schedule_at: empty action");
  }
  const EventId id = next_id_++;
  queue_.push_back(Event{at, id, label, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return id;
}

EventId Scheduler::schedule_in(SimDuration delay, Action action,
                               std::string_view label) {
  return schedule_at(now_ + delay, std::move(action), label);
}

bool Scheduler::cancel(EventId id) noexcept {
  // Only queued events can be cancelled; an executed one has left the
  // queue. The mark is the emptied action, which step() skips; the label
  // goes too, so a cancelled event keeps no view of its owner's storage.
  for (Event& ev : queue_) {
    if (ev.id != id) continue;
    if (!ev.action) return false;
    ev.action = nullptr;
    ev.label = {};
    return true;
  }
  return false;
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    if (!ev.action) continue;  // cancelled
    now_ = ev.at;
    ++executed_;
    ev.action();
    return true;
  }
  return false;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.front().at <= deadline) {
    if (step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

PeriodicTask::PeriodicTask(Scheduler& sched, SimTime first, SimDuration period,
                           std::function<void()> body, std::string label)
    : sched_(sched),
      period_(period),
      body_(std::move(body)),
      label_(std::move(label)) {
  if (period_ <= SimDuration::zero()) {
    throw std::invalid_argument("PeriodicTask: period must be positive");
  }
  arm(first);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::arm(SimTime at) {
  pending_ = sched_.schedule_at(
      at,
      [this] {
        if (stopped_) return;
        ++fired_;
        const SimTime next = sched_.now() + period_;
        body_();
        // body_() may have called stop(); only re-arm if still live.
        if (!stopped_) arm(next);
      },
      label_);
}

void PeriodicTask::stop() noexcept {
  stopped_ = true;
  if (pending_ != 0) {
    sched_.cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace psme::sim
