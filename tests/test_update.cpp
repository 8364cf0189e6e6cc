// Unit tests for policy signing and the simulated OTA channel
// (psme::core).
#include <gtest/gtest.h>

#include "core/update.h"

namespace psme::core {
namespace {

using namespace std::chrono_literals;

PolicySet make_set(std::uint64_t version, const std::string& rule_id = "r1") {
  PolicySet set("fleet", version);
  PolicyRule rule;
  rule.id = rule_id;
  rule.subject = "a";
  rule.object = "b";
  rule.permission = threat::Permission::kRead;
  set.add_rule(rule);
  return set;
}

TEST(PolicySigner, SignVerifyRoundTrip) {
  const PolicySigner signer(0xDEADBEEFu);
  const PolicySet set = make_set(1);
  const std::uint64_t tag = signer.sign(set);
  EXPECT_TRUE(signer.verify(set, tag));
  EXPECT_FALSE(signer.verify(set, tag ^ 1));
}

TEST(PolicySigner, DifferentKeyCannotVerify) {
  const PolicySigner oem(111), mallory(222);
  const PolicySet set = make_set(1);
  EXPECT_FALSE(oem.verify(set, mallory.sign(set)));
}

TEST(PolicySigner, TagBindsContent) {
  const PolicySigner signer(7);
  const std::uint64_t tag = signer.sign(make_set(1));
  EXPECT_FALSE(signer.verify(make_set(2), tag));          // version changed
  EXPECT_FALSE(signer.verify(make_set(1, "other"), tag)); // rule changed
}

TEST(UpdateChannel, DeliversAfterLatency) {
  sim::Scheduler sched;
  UpdateChannel channel(sched, 10ms);
  int deliveries = 0;
  std::uint64_t seen_version = 0;
  channel.subscribe([&](const PolicyBundle& b) {
    ++deliveries;
    seen_version = b.version();
  });
  channel.publish(PolicyBundle{make_set(9), 0, "oem"});
  sched.run_until(sched.now() + 5ms);
  EXPECT_EQ(deliveries, 0);  // still in flight
  sched.run_until(sched.now() + 10ms);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(seen_version, 9u);
  EXPECT_EQ(channel.delivered(), 1u);
}

TEST(UpdateChannel, FansOutToAllSubscribers) {
  sim::Scheduler sched;
  UpdateChannel channel(sched, 1ms);
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    channel.subscribe([&](const PolicyBundle&) { ++count; });
  }
  channel.publish(PolicyBundle{make_set(2), 0, "oem"});
  sched.run();
  EXPECT_EQ(count, 5);
}

TEST(UpdateChannel, RetriesLossyDeliveries) {
  sim::Scheduler sched;
  UpdateChannel channel(sched, 1ms, /*loss_rate=*/0.5, /*seed=*/3);
  int count = 0;
  for (int i = 0; i < 20; ++i) {
    channel.subscribe([&](const PolicyBundle&) { ++count; });
  }
  channel.set_max_attempts(10);
  channel.publish(PolicyBundle{make_set(2), 0, "oem"});
  sched.run();
  // With 10 attempts at 50% loss, effectively every subscriber converges.
  EXPECT_EQ(count, 20);
  EXPECT_EQ(channel.lost(), 0u);
}

TEST(UpdateChannel, GivesUpAfterMaxAttempts) {
  sim::Scheduler sched;
  UpdateChannel channel(sched, 1ms, /*loss_rate=*/1.0, /*seed=*/3);
  int count = 0;
  channel.subscribe([&](const PolicyBundle&) { ++count; });
  channel.set_max_attempts(4);
  channel.publish(PolicyBundle{make_set(2), 0, "oem"});
  sched.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(channel.lost(), 1u);
}

}  // namespace
}  // namespace psme::core
