// A consumer compiled without NDEBUG, linked against the library as the
// build made it (with NDEBUG in Release). If a public class's layout
// depended on NDEBUG, this binary would misread the library's objects;
// core::PolicySet once did, and building a vehicle here then crashed.
// tests/CMakeLists.txt compiles this file with -UNDEBUG.
#include <gtest/gtest.h>

#ifdef NDEBUG
#error "test_ndebug_abi.cpp must be compiled without NDEBUG"
#endif

#include "car/vehicle.h"
#include "sim/event_queue.h"

namespace psme {
namespace {

using namespace std::chrono_literals;

TEST(NdebugAbi, VehicleBuildsAndDrivesOneSecond) {
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  car::Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 1s);
  EXPECT_GT(vehicle.bus().frames_delivered(), 100u);
  EXPECT_TRUE(vehicle.ecu().active());
}

}  // namespace
}  // namespace psme
