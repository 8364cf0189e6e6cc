// Unit tests for the discrete-event simulation kernel (psme::sim).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/trace.h"

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

TEST(Histogram, BasicStatistics) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_NEAR(h.stddev(), std::sqrt(2.0), 1e-9);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h;
  h.add(0.0);
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
}

TEST(Histogram, EmptyThrows) {
  Histogram h;
  EXPECT_THROW((void)h.mean(), std::logic_error);
  EXPECT_THROW((void)h.quantile(0.5), std::logic_error);
}

TEST(Histogram, BadQuantileThrows) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.add(1.0);
  h.reset();
  EXPECT_TRUE(h.empty());
}

TEST(MetricRegistry, NamedAccessAndRender) {
  MetricRegistry reg;
  reg.counter("a.count").increment(3);
  reg.histogram("a.lat").add(1.5);
  EXPECT_EQ(reg.counter("a.count").value(), 3u);
  const std::string out = reg.render();
  EXPECT_NE(out.find("a.count = 3"), std::string::npos);
  EXPECT_NE(out.find("a.lat"), std::string::npos);
}

TEST(Trace, FiltersBelowMinLevel) {
  Trace trace(TraceLevel::kSecurity);
  trace.record(SimTime{1ns}, TraceLevel::kDebug, "x", "dropped");
  trace.record(SimTime{2ns}, TraceLevel::kSecurity, "x", "kept");
  trace.record(SimTime{3ns}, TraceLevel::kError, "y", "kept too");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.count(TraceLevel::kSecurity), 1u);
  EXPECT_EQ(trace.count_component("y"), 1u);
}

TEST(Trace, RenderContainsComponentAndMessage) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{1500000ns}, TraceLevel::kInfo, "can.bus", "hello");
  const std::string out = trace.render();
  EXPECT_NE(out.find("can.bus"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("1.5ms"), std::string::npos);
}

TEST(Trace, ForEachFiltersByComponent) {
  Trace trace(TraceLevel::kDebug);
  trace.record(SimTime{}, TraceLevel::kInfo, "a", "1");
  trace.record(SimTime{}, TraceLevel::kInfo, "b", "2");
  int seen = 0;
  trace.for_each("a", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 1);
  seen = 0;
  trace.for_each("", [&](const TraceEntry&) { ++seen; });
  EXPECT_EQ(seen, 2);
}

TEST(Trace, EntryComponentOutlivesTheCallersString) {
  Trace trace(TraceLevel::kDebug);
  {
    const std::string name = "hpe.component-longer-than-sso";
    trace.record(SimTime{}, TraceLevel::kInfo, name, "first");
  }
  for (int i = 0; i < 1000; ++i) {
    trace.record(SimTime{}, TraceLevel::kInfo, "other." + std::to_string(i),
                 "more");
  }
  EXPECT_EQ(trace.entries().front().component, "hpe.component-longer-than-sso");
  EXPECT_EQ(trace.count_component("hpe.component-longer-than-sso"), 1u);
}

TEST(Trace, KeepsMatchesRecordFiltering) {
  Trace trace(TraceLevel::kSecurity);
  EXPECT_FALSE(trace.keeps(TraceLevel::kDebug));
  EXPECT_FALSE(trace.keeps(TraceLevel::kInfo));
  EXPECT_TRUE(trace.keeps(TraceLevel::kSecurity));
  EXPECT_TRUE(trace.keeps(TraceLevel::kError));
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
