// Integration-level tests for the assembled vehicle (psme::car::Vehicle):
// topology, normal-operation traffic, mode handling, policy updates, and
// the compiled VehiclePlan that vehicles of one key share.
#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "car/vehicle.h"

namespace psme::car {
namespace {

using namespace std::chrono_literals;

/// Renders every field of a list pair, so two compare equal exactly when
/// their renderings do.
std::string describe(const hpe::ListPair& lists) {
  std::string out =
      "read\n" + lists.read.to_string() + "write\n" + lists.write.to_string();
  for (const hpe::PayloadRule& rule : lists.content_rules) {
    out += "rule " + std::to_string(rule.id) + " byte " +
           std::to_string(rule.byte_index) + " in " + std::to_string(rule.min) +
           ".." + std::to_string(rule.max) + "\n";
  }
  return out;
}

std::string describe(const hpe::HpeConfig& config) {
  std::string out = "default\n" + describe(config.default_lists);
  for (const auto& [mode, lists] : config.per_mode) {
    out += "mode " + std::to_string(mode) + "\n" + describe(lists);
  }
  out += "snoop " +
         (config.mode_frame_id ? std::to_string(*config.mode_frame_id)
                               : std::string("none")) +
         " cycles " + std::to_string(config.decision_cycles) + "\n";
  return out;
}

std::string describe(const hpe::BridgeLists& lists) {
  return "a->b\n" + lists.a_to_b.to_string() + "b->a\n" +
         lists.b_to_a.to_string();
}

std::string describe(const hpe::BridgeConfig& config) {
  std::string out = "default\n" + describe(config.default_lists);
  for (const auto& [mode, lists] : config.per_mode) {
    out += "mode " + std::to_string(mode) + "\n" + describe(lists);
  }
  out += "snoop " + (config.mode_frame_id
                         ? std::to_string(*config.mode_frame_id)
                         : std::string("none")) +
         "\n";
  return out;
}

std::string describe(const std::vector<can::AcceptanceFilter>& filters) {
  std::string out;
  for (const can::AcceptanceFilter& f : filters) {
    out += std::to_string(f.mask) + "/" + std::to_string(f.value) +
           (f.extended ? "x " : " ");
  }
  return out;
}

/// Every node's configuration in an HPE plan, rendered in node order.
std::string describe(const VehiclePlan& plan) {
  std::string out;
  for (const NodeBinding& node : node_bindings()) {
    out += node.node + "\n" + describe(plan.hpe_config(node.node));
  }
  return out;
}

/// Policy release `version` with the head unit quarantined: both
/// of its entry points lose every grant, so its engine stops reading the
/// speed broadcast and its lists differ from v1's.
core::PolicySet head_unit_quarantined(std::uint64_t version) {
  core::PolicySet set = full_policy(connected_car_threat_model(), version);
  set.add_rule(quarantine_rule());
  set.add_rule(core::PolicyRule{"T15.quarantine.browser", entry::kMediaBrowser,
                                "*", threat::Permission::kNone, {}, 1000,
                                "media browser quarantined with the unit"});
  return set;
}

TEST(Vehicle, NormalOperationTrafficFlows) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  sched.run_until(sched.now() + 1s);

  // Sensors broadcast, the ECU tracks speed, the engine receives torque
  // demands, connectivity reports tracking, all without enforcement.
  EXPECT_GT(vehicle.bus().frames_delivered(), 100u);
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
  EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
  EXPECT_EQ(vehicle.infotainment().displayed_speed(), vehicle.sensors().speed());
  EXPECT_TRUE(vehicle.ecu().active());
  EXPECT_TRUE(vehicle.eps().active());
  EXPECT_TRUE(vehicle.engine().active());
}

TEST(Vehicle, NormalOperationUnharmedByEnforcement) {
  // The key transparency claim: with HPE enforcement on, legitimate
  // traffic still flows and no hazards appear.
  for (const bool content_rules : {false, true}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = Enforcement::kHpe;
    config.hpe_content_rules = content_rules;
    Vehicle vehicle(sched, config);
    sched.run_until(sched.now() + 1s);

    EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
    EXPECT_GT(vehicle.engine().torque_commands(), 10u);
    EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
    EXPECT_TRUE(vehicle.ecu().active());
    EXPECT_EQ(vehicle.ecu().disable_events(), 0u);
    EXPECT_EQ(vehicle.doors().unlocks_while_moving(), 0u);
  }
}

TEST(Vehicle, SoftwareFilterRegimeAlsoTransparent) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kSoftwareFilter;
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 1s);
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
}

TEST(Vehicle, NodeLookupByName) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  EXPECT_EQ(vehicle.node("ecu"), &vehicle.ecu());
  EXPECT_EQ(vehicle.node("doors"), &vehicle.doors());
  EXPECT_EQ(vehicle.node("ghost"), nullptr);
  EXPECT_EQ(vehicle.node_names().size(), 8u);
}

TEST(Vehicle, HpeAccessorsDependOnRegime) {
  sim::Scheduler s1, s2;
  Vehicle plain(s1);
  EXPECT_EQ(plain.hpe("ecu"), nullptr);

  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle guarded(s2, config);
  ASSERT_NE(guarded.hpe("ecu"), nullptr);
  EXPECT_TRUE(guarded.hpe("ecu")->locked());
  EXPECT_EQ(guarded.hpe("ghost"), nullptr);
}

TEST(Vehicle, ModeChangePropagatesToNodesAndHpes) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 100ms);

  vehicle.set_mode(CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 100ms);
  EXPECT_EQ(vehicle.mode(), CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.ecu().mode(), CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.hpe("ecu")->current_mode(),
            static_cast<std::uint8_t>(CarMode::kRemoteDiagnostic));
}

TEST(Vehicle, FailSafeTriggerSwitchesModeAutomatically) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  sched.run_until(sched.now() + 100ms);
  ASSERT_EQ(vehicle.mode(), CarMode::kNormal);

  // A crash-grade acceleration reading makes the safety node trigger
  // fail-safe; the gateway hears it and broadcasts the mode change.
  vehicle.safety().set_armed(true);
  vehicle.sensors().set_speed(30);
  // Inject the crash directly at the safety node's input path by sending a
  // high-acceleration sensor frame from the sensor node itself.
  vehicle.sensors().controller().transmit(
      command_frame(msg::kSensorAccel, 250));
  sched.run_until(sched.now() + 200ms);

  EXPECT_EQ(vehicle.mode(), CarMode::kFailSafe);
  EXPECT_GE(vehicle.safety().failsafe_triggers(), 1u);
  EXPECT_FALSE(vehicle.doors().locked());  // crash unlock
  EXPECT_GE(vehicle.connectivity().ecalls_made(), 1u);
}

TEST(Vehicle, PolicyUpdateAcceptedWhenSigned) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  const core::PolicySigner oem(0xFEED);

  core::PolicySet next = full_policy(connected_car_threat_model(), 2);
  core::PolicyBundle bundle{next, oem.sign(next), "oem"};
  EXPECT_TRUE(vehicle.apply_policy_update(bundle, oem));
  EXPECT_EQ(vehicle.policy().version(), 2u);
  EXPECT_EQ(vehicle.hpe("ecu")->policy_version(), 2u);
}

TEST(Vehicle, PolicyUpdateRejectedWhenForged) {
  for (const Enforcement regime :
       {Enforcement::kNone, Enforcement::kSoftwareFilter, Enforcement::kHpe}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = regime;
    Vehicle vehicle(sched, config);
    const core::PolicySigner oem(0xFEED);
    core::PolicySet next = full_policy(connected_car_threat_model(), 2);
    core::PolicyBundle forged{next, 0xBAD, "mallory"};
    EXPECT_FALSE(vehicle.apply_policy_update(forged, oem))
        << to_string(regime);
    EXPECT_EQ(vehicle.policy().version(), 1u);
    // Every engine refuses the forgery itself and counts it.
    for (const std::string& name : vehicle.node_names()) {
      if (const hpe::HardwarePolicyEngine* engine = vehicle.hpe(name)) {
        EXPECT_EQ(engine->policy_version(), 1u) << name;
        EXPECT_EQ(engine->stats().tamper_attempts, 1u) << name;
      }
    }
  }
}

TEST(Vehicle, SameVersionBundleIsRefusedUnderEveryRegime) {
  // A vehicle built from v2 runs v2 in every regime, its engines too, so
  // a signed v2 bundle is no update; v3 still is.
  const core::PolicySigner oem(0xFEED);
  const core::PolicySet v2 = full_policy(connected_car_threat_model(), 2);
  const core::PolicySet v3 = full_policy(connected_car_threat_model(), 3);
  for (const Enforcement regime :
       {Enforcement::kNone, Enforcement::kSoftwareFilter, Enforcement::kHpe}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = regime;
    config.policy_version = 2;
    Vehicle vehicle(sched, config);
    for (const std::string& name : vehicle.node_names()) {
      if (const hpe::HardwarePolicyEngine* engine = vehicle.hpe(name)) {
        EXPECT_EQ(engine->policy_version(), 2u) << name;
      }
    }
    EXPECT_FALSE(vehicle.apply_policy_update(
        core::PolicyBundle{v2, oem.sign(v2), "oem"}, oem))
        << to_string(regime);
    EXPECT_EQ(vehicle.policy().version(), 2u) << to_string(regime);
    EXPECT_TRUE(vehicle.apply_policy_update(
        core::PolicyBundle{v3, oem.sign(v3), "oem"}, oem))
        << to_string(regime);
    EXPECT_EQ(vehicle.policy().version(), 3u) << to_string(regime);
  }
}

TEST(Vehicle, BusErrorsToleratedByRetransmission) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.bus_error_rate = 0.05;  // 5% of frames destroyed
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 1s);
  EXPECT_GT(vehicle.bus().frames_corrupted(), 0u);
  // The control loop still works end to end.
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 5u);
}

TEST(Vehicle, AttackerPortIsUnpoliced) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  can::Port& port = vehicle.attach_attacker("mallory");
  EXPECT_TRUE(port.connected());
  // An attacker frame reaches the wire without any HPE involvement.
  EXPECT_TRUE(port.submit(command_frame(msg::kSensorSpeed, 0)));
}

TEST(Vehicle, EnforcementNamesRender) {
  EXPECT_EQ(to_string(Enforcement::kNone), "none");
  EXPECT_EQ(to_string(Enforcement::kSoftwareFilter), "software-filter");
  EXPECT_EQ(to_string(Enforcement::kHpe), "hpe");
}

TEST(Vehicle, RefusedUpdateLeavesEveryEngineAsItWas) {
  // One engine already runs v3, taken through its own update path. A
  // vehicle-wide v2 must then be refused as a whole: no engine moves to
  // v2, and only the engine that refuses it counts a tamper attempt.
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  const core::PolicySigner oem(0xFEED);
  const core::PolicySet v3 = full_policy(connected_car_threat_model(), 3);
  ASSERT_TRUE(vehicle.hpe("ecu")->apply_update(
      core::PolicyBundle{v3, oem.sign(v3), "oem"}, oem,
      BindingCompiler(v3).build_hpe_config("ecu")));
  const BindingCompiler* binding = &vehicle.binding();
  sched.run_until(sched.now() + 200ms);

  const core::PolicySet v2 = head_unit_quarantined(2);
  EXPECT_FALSE(vehicle.apply_policy_update(
      core::PolicyBundle{v2, oem.sign(v2), "oem"}, oem));

  for (const std::string& name : vehicle.node_names()) {
    const hpe::HardwarePolicyEngine& engine = *vehicle.hpe(name);
    EXPECT_EQ(engine.policy_version(), name == "ecu" ? 3u : 1u) << name;
    EXPECT_EQ(engine.stats().tamper_attempts, name == "ecu" ? 1u : 0u) << name;
  }
  EXPECT_EQ(vehicle.policy().version(), 1u);
  EXPECT_EQ(&vehicle.binding(), binding);

  // The head unit still runs v1's lists: a new speed reaches its display.
  vehicle.sensors().set_speed(77);
  sched.run_until(sched.now() + 500ms);
  EXPECT_EQ(vehicle.infotainment().displayed_speed(), 77u);
}

// ----------------------------------------------------------- the plan

VehicleConfig hpe_config() {
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  return config;
}

TEST(VehiclePlan, EachKeyFieldSelectsItsOwnPlan) {
  const VehicleConfig base = hpe_config();
  const auto plan = VehiclePlan::shared(base);
  std::vector<VehicleConfig> variants(7, base);
  variants[0].policy_version = 2;
  variants[1].enforcement = Enforcement::kNone;
  variants[2].enforcement = Enforcement::kSoftwareFilter;
  variants[3].hpe_content_rules = true;
  variants[4].hpe_writer_gate = false;
  variants[5].hpe_mode_conditional = false;
  variants[6].topology = Topology::kSegmented;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto other = VehiclePlan::shared(variants[i]);
    EXPECT_NE(other, plan) << "variant " << i;
    EXPECT_EQ(other, VehiclePlan::shared(variants[i])) << "variant " << i;
  }
  EXPECT_EQ(VehiclePlan::shared(variants[0])->policy().version(), 2u);
}

TEST(VehiclePlan, FieldsOutsideTheKeyShareOnePlan) {
  const VehicleConfig base = hpe_config();
  std::vector<VehicleConfig> variants(4, base);
  variants[0].seed = 7;
  variants[1].initial_mode = CarMode::kRemoteDiagnostic;
  variants[2].bus_error_rate = 0.05;
  variants[3].lock_hpes = false;
  sim::Scheduler sched;
  const Vehicle first(sched, base);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    sim::Scheduler own;
    const Vehicle vehicle(own, variants[i]);
    EXPECT_EQ(&vehicle.plan(), &first.plan()) << "variant " << i;
  }
  EXPECT_EQ(VehiclePlan::shared(base).get(), &first.plan());
}

TEST(VehiclePlan, AblationSwitchesShapeOnlyHpePlans) {
  // Software filters bind with default options and kNone binds nothing,
  // so neither regime's key holds the switches.
  for (const Enforcement regime :
       {Enforcement::kSoftwareFilter, Enforcement::kNone}) {
    VehicleConfig base;
    base.enforcement = regime;
    const auto plan = VehiclePlan::shared(base);
    std::vector<VehicleConfig> variants(3, base);
    variants[0].hpe_content_rules = true;
    variants[1].hpe_writer_gate = false;
    variants[2].hpe_mode_conditional = false;
    for (const VehicleConfig& variant : variants) {
      EXPECT_EQ(VehiclePlan::shared(variant), plan) << to_string(regime);
    }
    EXPECT_EQ(plan->binding().options().content_rules, false);
    EXPECT_EQ(plan->binding().options().writer_existence_gate, true);
    EXPECT_EQ(plan->binding().options().mode_conditional, true);
  }
}

TEST(VehiclePlan, ListsEqualAFreshBindingCompile) {
  const threat::ThreatModel model = connected_car_threat_model();
  for (const std::uint64_t version : {1u, 2u}) {
    const core::PolicySet policy = full_policy(model, version);
    for (int bits = 0; bits < 8; ++bits) {
      VehicleConfig config = hpe_config();
      config.policy_version = version;
      config.hpe_content_rules = (bits & 1) != 0;
      config.hpe_writer_gate = (bits & 2) != 0;
      config.hpe_mode_conditional = (bits & 4) != 0;
      const auto plan = VehiclePlan::shared(config);
      BindingOptions options;
      options.content_rules = config.hpe_content_rules;
      options.writer_existence_gate = config.hpe_writer_gate;
      options.mode_conditional = config.hpe_mode_conditional;
      BindingCompiler fresh(policy, options);
      for (const NodeBinding& node : node_bindings()) {
        EXPECT_EQ(describe(plan->hpe_config(node.node)),
                  describe(fresh.build_hpe_config(node.node)))
            << node.node << " v" << version << " bits " << bits;
      }
      // binding() is the compiler that answered the plan's questions.
      EXPECT_EQ(plan->binding().stats().queries, fresh.stats().queries);
      EXPECT_EQ(plan->binding().stats().unique_questions,
                fresh.stats().unique_questions);
      EXPECT_EQ(plan->policy().version(), version);
      EXPECT_EQ(plan->policy().fingerprint(), policy.fingerprint());
    }

    VehicleConfig filtered;
    filtered.enforcement = Enforcement::kSoftwareFilter;
    filtered.policy_version = version;
    const auto plan = VehiclePlan::shared(filtered);
    BindingCompiler fresh(policy);
    for (const NodeBinding& node : node_bindings()) {
      for (const CarMode mode : kAllModes) {
        EXPECT_EQ(describe(plan->rx_filters(node.node, mode)),
                  describe(fresh.build_rx_filters(node.node, mode)))
            << node.node << " " << to_string(mode) << " v" << version;
      }
    }
    EXPECT_EQ(plan->binding().stats().queries, fresh.stats().queries);
  }
}

TEST(VehiclePlan, GatewayConfigEqualsAFreshBindingCompile) {
  // A segmented plan compiles the gateway once, whatever the regime; the
  // regime's own lists are the flat plan's. A flat plan has no gateway.
  const threat::ThreatModel model = connected_car_threat_model();
  for (const std::uint64_t version : {1u, 2u}) {
    const core::PolicySet policy = full_policy(model, version);
    const std::string expected =
        describe(BindingCompiler(policy).build_gateway_config());
    for (const Enforcement regime :
         {Enforcement::kNone, Enforcement::kSoftwareFilter,
          Enforcement::kHpe}) {
      VehicleConfig config;
      config.enforcement = regime;
      config.policy_version = version;
      const auto flat = VehiclePlan::shared(config);
      EXPECT_THROW((void)flat->gateway_config(), std::out_of_range);
      config.topology = Topology::kSegmented;
      const auto segmented = VehiclePlan::shared(config);
      EXPECT_EQ(describe(segmented->gateway_config()), expected)
          << to_string(regime) << " v" << version;
      if (regime == Enforcement::kHpe) {
        EXPECT_EQ(describe(*segmented), describe(*flat)) << " v" << version;
      }
    }
  }
}

TEST(VehiclePlan, EngineEditsAndUpdatesStayInTheirVehicle) {
  const core::PolicySet v1 = full_policy(connected_car_threat_model(), 1);

  // One vehicle's unlocked engine is reprogrammed; another vehicle takes
  // an update whose lists differ from v1's.
  sim::Scheduler s1, s2, s3;
  VehicleConfig unlocked = hpe_config();
  unlocked.lock_hpes = false;
  Vehicle edited(s1, unlocked);
  edited.hpe("ecu")->set_config(hpe::HpeConfig{});

  Vehicle updated(s2, hpe_config());
  const core::PolicySigner oem(0xFEED);
  const core::PolicySet v2 = head_unit_quarantined(2);
  ASSERT_TRUE(updated.apply_policy_update(
      core::PolicyBundle{v2, oem.sign(v2), "oem"}, oem));

  // A vehicle built afterwards still gets v1 and the plan's own lists,
  // and its engines pass the traffic those lists approve.
  Vehicle later(s3, hpe_config());
  EXPECT_EQ(later.policy().version(), 1u);
  EXPECT_EQ(&later.plan(), &edited.plan());
  BindingCompiler fresh(v1);
  for (const NodeBinding& node : node_bindings()) {
    EXPECT_EQ(describe(later.plan().hpe_config(node.node)),
              describe(fresh.build_hpe_config(node.node)))
        << node.node;
  }
  s3.run_until(s3.now() + 1s);
  EXPECT_EQ(later.ecu().speed(), later.sensors().speed());
  EXPECT_EQ(later.infotainment().displayed_speed(), later.sensors().speed());

  // The updated vehicle's policy() and binding() answer from v2.
  EXPECT_EQ(updated.policy().version(), 2u);
  EXPECT_NE(&updated.plan(), &later.plan());
  EXPECT_EQ(&updated.binding(), &updated.plan().binding());
  EXPECT_EQ(&updated.binding().image(), &updated.policy().image());
  const core::Decision quarantined = updated.policy().evaluate(
      core::AccessRequest{entry::kInfotainment, asset::kSensors,
                          core::AccessType::kRead, mode_id(CarMode::kNormal)});
  EXPECT_FALSE(quarantined.allowed);
  EXPECT_EQ(quarantined.rule_id, "T15.quarantine");
  BindingCompiler fresh_v2(v2);
  for (const NodeBinding& node : node_bindings()) {
    EXPECT_EQ(describe(updated.plan().hpe_config(node.node)),
              describe(fresh_v2.build_hpe_config(node.node)))
        << node.node;
  }
  EXPECT_EQ(updated.binding().stats().queries, fresh_v2.stats().queries);
  EXPECT_NE(describe(updated.plan().hpe_config("infotainment")),
            describe(later.plan().hpe_config("infotainment")));
  // ...and its engines enforce v2: the quarantined head unit no longer
  // reads the speed broadcast.
  updated.sensors().set_speed(66);
  s2.run_until(s2.now() + 500ms);
  EXPECT_NE(updated.infotainment().displayed_speed(), 66u);
}

TEST(VehiclePlanConcurrency, FirstBuildsOnOneKeyShareOnePlan) {
  // Four threads, released together, each make the first build of a key
  // no other test in this file uses, each on its own scheduler. They
  // must all end up on one plan with one set of lists. Run under TSan by
  // the CI `tsan` leg (DESIGN.md §3).
  VehicleConfig config = hpe_config();
  config.policy_version = 5;
  config.hpe_writer_gate = false;
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<const VehiclePlan*> plans(kThreads, nullptr);
  std::vector<std::string> lists(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      sim::Scheduler sched;
      const Vehicle vehicle(sched, config);
      plans[static_cast<std::size_t>(t)] = &vehicle.plan();
      lists[static_cast<std::size_t>(t)] = describe(vehicle.plan());
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto shared = VehiclePlan::shared(config);
  BindingOptions options;
  options.writer_existence_gate = false;
  BindingCompiler fresh(full_policy(connected_car_threat_model(), 5),
                        options);
  std::string expected;
  for (const NodeBinding& node : node_bindings()) {
    expected += node.node + "\n" + describe(fresh.build_hpe_config(node.node));
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(plans[static_cast<std::size_t>(t)], shared.get()) << t;
    EXPECT_EQ(lists[static_cast<std::size_t>(t)], expected) << t;
  }
}

}  // namespace
}  // namespace psme::car
