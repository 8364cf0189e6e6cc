// Unit tests for the discrete-event simulation kernel (psme::sim).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace psme::sim {
namespace {

using namespace std::chrono_literals;

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), kSimStart);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime{30ns}, [&] { order.push_back(3); });
  sched.schedule_at(SimTime{10ns}, [&] { order.push_back(1); });
  sched.schedule_at(SimTime{20ns}, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime{30ns});
}

TEST(Scheduler, BreaksTiesByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{5ns}, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(SimTime{10ns}, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(SimTime{5ns}, [] {}), std::logic_error);
}

TEST(Scheduler, EmptyActionThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(SimTime{1ns}, Scheduler::Action{}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id = sched.schedule_in(10ns, [&] { ran = true; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelUnknownIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(12345));
  EXPECT_FALSE(sched.cancel(0));
}

TEST(Scheduler, DoubleCancelReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_in(10ns, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelOfExecutedIdReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_in(10ns, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, CancelOfRunningEventReturnsFalse) {
  Scheduler sched;
  EventId self = 0;
  bool cancelled = true;
  self = sched.schedule_in(10ns, [&] { cancelled = sched.cancel(self); });
  sched.run();
  EXPECT_FALSE(cancelled);
}

// An event's slot is reused once the event has left the queue, so an id
// must answer for its own event only, never for the slot's next tenant.
TEST(Scheduler, StaleIdDoesNotCancelAReusedSlot) {
  Scheduler sched;
  const EventId a = sched.schedule_at(SimTime{10ns}, [] {});
  ASSERT_TRUE(sched.cancel(a));
  sched.run_until(SimTime{20ns});  // reaps A and frees its slot
  EXPECT_EQ(sched.pending(), 0u);
  bool b_ran = false;
  sched.schedule_at(SimTime{30ns}, [&] { b_ran = true; });  // A's old slot
  EXPECT_FALSE(sched.cancel(a));
  sched.run();
  EXPECT_TRUE(b_ran);

  // A running event's slot is already free: C takes it, and the event's
  // own id must not cancel C.
  EventId self = 0;
  bool cancelled = true;
  bool c_ran = false;
  self = sched.schedule_in(10ns, [&] {
    sched.schedule_in(5ns, [&] { c_ran = true; });
    cancelled = sched.cancel(self);
  });
  sched.run();
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(c_ran);
}

TEST(Scheduler, RunUntilAdvancesClockToDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime{5ns}, [&] { ++fired; });
  sched.schedule_at(SimTime{50ns}, [&] { ++fired; });
  const std::size_t executed = sched.run_until(SimTime{10ns});
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime{10ns});
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilSkipsCancelledHeadWithoutPassingDeadline) {
  // A cancelled earliest event must not let the next event in the queue
  // run early: the deadline applies to the first LIVE event.
  Scheduler sched;
  int fired = 0;
  const EventId early = sched.schedule_at(SimTime{5ns}, [&] { ++fired; });
  sched.schedule_at(SimTime{50ns}, [&] { ++fired; });
  ASSERT_TRUE(sched.cancel(early));
  const std::size_t executed = sched.run_until(SimTime{10ns});
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), SimTime{10ns});
  EXPECT_EQ(sched.run_until(SimTime{50ns}), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsCanScheduleFurtherEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_in(1ns, recurse);
  };
  sched.schedule_in(1ns, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(PeriodicTask, FiresAtFixedCadence) {
  Scheduler sched;
  int count = 0;
  PeriodicTask task(sched, SimTime{0ns}, SimDuration{10ns}, [&] { ++count; });
  sched.run_until(SimTime{95ns});
  EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
  EXPECT_EQ(task.fired(), 10u);
}

TEST(PeriodicTask, StopFromInsideBody) {
  Scheduler sched;
  int count = 0;
  PeriodicTask task(
      sched, SimTime{0ns}, SimDuration{10ns},
      [&] {
        if (++count == 3) task.stop();
      });
  sched.run_until(SimTime{1000ns});
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, NonPositivePeriodThrows) {
  Scheduler sched;
  EXPECT_THROW(PeriodicTask(sched, SimTime{0ns}, SimDuration{0ns}, [] {}),
               std::invalid_argument);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.25);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// Property: run_until never executes events beyond the deadline, for
// arbitrary interleavings of schedule times.
class SchedulerDeadlineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDeadlineProperty, NoEventBeyondDeadline) {
  Scheduler sched;
  Rng rng(GetParam());
  std::vector<SimTime> fired;
  for (int i = 0; i < 200; ++i) {
    const SimTime at{static_cast<std::int64_t>(rng.uniform(0, 1000))};
    sched.schedule_at(at, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  const SimTime deadline{500ns};
  sched.run_until(deadline);
  for (const SimTime t : fired) EXPECT_LE(t, deadline);
  // Remaining events are all strictly later... or equal-time events that
  // were already executed; completing the run fires the rest.
  const std::size_t before = fired.size();
  sched.run();
  EXPECT_EQ(fired.size(), 200u);
  for (std::size_t i = before; i < fired.size(); ++i) {
    EXPECT_GT(fired[i], deadline);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDeadlineProperty,
                         ::testing::Values(1, 2, 3, 42, 99, 12345));

// Differential property: under random schedule, cancel and nested-schedule
// sequences the scheduler runs exactly the events a sorted reference model
// predicts, in (time, insertion) order, and cancel() answers as the model
// does (true only for an event still queued and not yet cancelled).
class SchedulerReferenceModel : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Schedules event number `tag` = issued_.size() in both worlds.
  void add(SimTime at) {
    const std::size_t tag = issued_.size();
    issued_.push_back(
        sched_.schedule_at(at, [this, tag] { fire(tag); }, "test.model"));
    model_.emplace(at, tag);
  }

  void cancel_random() {
    const std::size_t tag =
        static_cast<std::size_t>(rng_.uniform(0, issued_.size() - 1));
    const auto queued = std::find_if(
        model_.begin(), model_.end(),
        [tag](const auto& entry) { return entry.second == tag; });
    const bool expected = queued != model_.end();
    if (expected) model_.erase(queued);
    EXPECT_EQ(sched_.cancel(issued_[tag]), expected) << "tag " << tag;
  }

  /// A running event: it must be the model's earliest, then it may
  /// schedule children (possibly at the current instant) and cancel any
  /// issued id — pending, executed, cancelled or itself.
  void fire(std::size_t tag) {
    ASSERT_FALSE(model_.empty());
    const auto [at, expected] = *model_.begin();
    model_.erase(model_.begin());
    EXPECT_EQ(tag, expected);
    EXPECT_EQ(sched_.now(), at);
    ++fired_;
    if (issued_.size() < 2000) {
      const auto children = rng_.uniform(0, 2);
      for (std::uint64_t i = 0; i < children; ++i) {
        add(sched_.now() +
            SimDuration{static_cast<std::int64_t>(rng_.uniform(0, 40))});
      }
    }
    if (rng_.chance(0.3)) cancel_random();
  }

  Scheduler sched_;
  Rng rng_{GetParam()};
  std::set<std::pair<SimTime, std::size_t>> model_;  // (time, insertion)
  std::vector<EventId> issued_;
  std::size_t fired_ = 0;
};

TEST_P(SchedulerReferenceModel, RunsInSortedOrderAndCancelsExactly) {
  for (int i = 0; i < 300; ++i) {
    add(SimTime{static_cast<std::int64_t>(rng_.uniform(0, 500))});
    if (rng_.chance(0.2)) cancel_random();
  }
  const std::size_t executed = sched_.run();
  EXPECT_TRUE(model_.empty());
  EXPECT_EQ(executed, fired_);
  EXPECT_EQ(sched_.executed(), fired_);
  EXPECT_EQ(sched_.pending(), 0u);
  // Every id has now run or been cancelled.
  for (const EventId id : issued_) EXPECT_FALSE(sched_.cancel(id));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerReferenceModel,
                         ::testing::Values(1, 7, 42, 1234, 20261016));

}  // namespace
}  // namespace psme::sim
