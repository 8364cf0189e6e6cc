// Quickstart: the psme pipeline in ~60 lines.
//
//   1. Describe your use case: assets, entry points, modes.
//   2. Identify a threat, classify it with STRIDE, rate it with DREAD.
//   3. Compile the threat model into an enforceable policy set.
//   4. Evaluate access requests against the policy set.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/policy.h"
#include "core/policy_compiler.h"
#include "threat/threat_model.h"

int main() {
  using namespace psme;

  // 1. The use case: a smart lock with a radio interface.
  threat::ThreatModelBuilder builder("smart-lock");
  builder.add_asset({threat::AssetId{"bolt"}, "Locking bolt",
                     "The physical actuator", threat::Criticality::kSafety});
  builder.add_entry_point({threat::EntryPointId{"ble"}, "BLE radio",
                           "Phone-facing radio link", /*remote=*/true});
  builder.add_mode({threat::ModeId{"armed"}, "Armed", "Owner away"});
  builder.add_mode({threat::ModeId{"home"}, "Home", "Owner present"});

  // 2. One threat: unlocking over BLE while the system is armed.
  threat::Threat t;
  t.id = threat::ThreatId{"SL-1"};
  t.title = "Spoofed BLE unlock while armed";
  t.asset = threat::AssetId{"bolt"};
  t.entry_points = {threat::EntryPointId{"ble"}};
  t.modes = {threat::ModeId{"armed"}};                    // only when armed
  t.stride = threat::StrideSet::parse("STE");             // spoof/tamper/EoP
  t.dread = threat::DreadScore(8, 6, 5, 7, 5);            // avg 6.2: high
  t.recommended_policy = threat::Permission::kRead;       // BLE may only read
  builder.add_threat(t);
  const threat::ThreatModel model = builder.build();

  std::cout << "threat " << t.id.value << ": " << t.title << "\n"
            << "  STRIDE " << model.threats()[0].stride.letters()
            << ", DREAD " << model.threats()[0].dread.to_string() << " ("
            << threat::to_string(model.threats()[0].dread.band()) << ")\n";

  // 3. Compile: one deny-by-default rule per (threat, entry point).
  core::PolicySet policy = core::PolicyCompiler().compile(model);
  // Functional grant so the lock still works when the owner is home.
  core::PolicyRule grant;
  grant.id = "base/ble-home";
  grant.subject = "ble";
  grant.object = "bolt";
  grant.permission = threat::Permission::kReadWrite;
  grant.modes = {threat::ModeId{"home"}};
  policy.add_rule(grant);

  // 4. Adjudicate accesses.
  const auto ask = [&](core::AccessType access, const char* mode) {
    core::AccessRequest req{"ble", "bolt", access, threat::ModeId{mode}};
    const core::Decision d = policy.evaluate(req);
    std::cout << "  " << req.to_string() << " -> "
              << (d.allowed ? "ALLOW" : "DENY") << "  (" << d.reason << ")\n";
  };
  std::cout << "\ndecisions:\n";
  ask(core::AccessType::kRead, "armed");   // ALLOW: R is permitted
  ask(core::AccessType::kWrite, "armed");  // DENY:  the derived rule bites
  ask(core::AccessType::kWrite, "home");   // ALLOW: functional base grant
  return 0;
}
