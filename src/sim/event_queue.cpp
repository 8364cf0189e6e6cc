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
  std::uint32_t slot = free_slot_;
  if (slot != kNoSlot) {
    free_slot_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].action = std::move(action);
  slots_[slot].label = label;
  const EventId id = next_id_++;
  heap_.push_back(Key{at, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

EventId Scheduler::schedule_in(SimDuration delay, Action action,
                               std::string_view label) {
  return schedule_at(now_ + delay, std::move(action), label);
}

bool Scheduler::cancel(EventId id) noexcept {
  // Only queued events can be cancelled: an executed one has left the
  // heap, and its slot may already hold a later event. The mark is the
  // emptied action, which step() skips; the label goes too, so a
  // cancelled event keeps no view of its owner's storage.
  for (const Key& key : heap_) {
    if (key.id != id) continue;
    Slot& slot = slots_[key.slot];
    if (!slot.action) return false;
    slot.action = nullptr;
    slot.label = {};
    return true;
  }
  return false;
}

Scheduler::Action Scheduler::pop_head() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t index = heap_.back().slot;
  heap_.pop_back();
  Slot& slot = slots_[index];
  Action action = std::move(slot.action);
  slot.action = nullptr;  // a moved-from std::function is unspecified
  slot.label = {};
  slot.next_free = free_slot_;
  free_slot_ = index;
  return action;
}

void Scheduler::drop_cancelled_head() noexcept {
  while (!heap_.empty() && !slots_[heap_.front().slot].action) pop_head();
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    const SimTime at = heap_.front().at;
    // The slot is free before the action runs, so the action may schedule
    // into it (and may grow slots_, which the local copy survives).
    const Action action = pop_head();
    if (!action) continue;  // cancelled
    now_ = at;
    ++executed_;
    action();
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
  // The head must be live before its time is compared: a cancelled head
  // would otherwise admit the next event whatever its time.
  for (drop_cancelled_head();
       !heap_.empty() && heap_.front().at <= deadline;
       drop_cancelled_head()) {
    step();  // runs exactly the live head
    ++n;
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
