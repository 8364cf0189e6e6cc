// The software enforcement path (paper Sec. V-B.1): SELinux-style
// type-enforcement inside the infotainment head unit.
//
// Table I row T11 is an *application-level* threat — the media player
// browser exploiting its way to a higher control level. Bus-side filters
// cannot see inside the head unit; the paper assigns this layer to
// SELinux-like mandatory access control. This example builds the policy
// module, labels the applications, and shows the confinement working,
// including the modular update path and the AVC at work.
//
// Build & run:  ./build/examples/selinux_style_mac
#include <cstdio>
#include <iostream>

#include "mac/mac_engine.h"

using namespace psme;

int main() {
  std::cout << "=== SELinux-style MAC inside the infotainment unit ===\n\n";
  // Every "(BUG)" line below also fails the run.
  bool ok = true;

  mac::MacEngine engine;

  // The head-unit policy module: the browser renders, the installer
  // installs, and a neverallow pins the browser away from system control
  // no matter what later modules try to grant.
  mac::PolicyModule module;
  module.name = "headunit";
  module.types = {"browser_t", "installer_t", "system_ctl_t", "media_store_t"};
  module.allows.push_back({"browser_t", "media_store_t", "asset", {"read"}});
  module.allows.push_back(
      {"installer_t", "system_ctl_t", "asset", {"read", "write"}});
  module.allows.push_back({"installer_t", "media_store_t", "asset", {"read", "write"}});
  module.neverallows.push_back({"browser_t", "system_ctl_t", "asset", {"write"}});
  engine.load_module(module);

  engine.label("media-browser", mac::SecurityContext("sys", "app", "browser_t"));
  engine.label("app-installer", mac::SecurityContext("sys", "app", "installer_t"));
  engine.label("vehicle-control", mac::SecurityContext("sys", "obj", "system_ctl_t"));
  engine.label("media-library", mac::SecurityContext("sys", "obj", "media_store_t"));

  const auto check = [&](const char* subject, const char* object,
                         core::AccessType access) {
    core::AccessRequest req{subject, object, access, {}};
    const core::Decision d = engine.evaluate(req);
    std::printf("  %-14s %-5s %-16s -> %s\n", subject,
                std::string(core::to_string(access)).c_str(), object,
                d.allowed ? "ALLOW" : "DENY");
    return d.allowed;
  };

  std::cout << "normal operation:\n";
  check("media-browser", "media-library", core::AccessType::kRead);
  check("app-installer", "vehicle-control", core::AccessType::kWrite);

  std::cout << "\nT11 exploit attempt — browser reaches for vehicle control:\n";
  check("media-browser", "vehicle-control", core::AccessType::kWrite);
  check("media-browser", "vehicle-control", core::AccessType::kRead);

  // A malicious (or buggy) policy module tries to widen the browser's
  // rights; the neverallow assertion rejects the load atomically.
  std::cout << "\nmalicious module load attempt:\n";
  mac::PolicyModule widen;
  widen.name = "totally-legit-plugin";
  widen.allows.push_back({"browser_t", "system_ctl_t", "asset", {"write"}});
  try {
    engine.load_module(widen);
    std::cout << "  module loaded (BUG!)\n";
    ok = false;
  } catch (const std::logic_error& e) {
    std::printf("  rejected: %s\n", e.what());
  }
  const bool escaped = engine.allowed("browser_t", "system_ctl_t", "write");
  ok &= !escaped;
  std::printf("  browser still confined: %s\n", escaped ? "NO (BUG)" : "yes");

  // Permissive mode: introduce a new policy to a live fleet without
  // breaking it — denials are logged, not enforced.
  std::cout << "\npermissive-mode rollout:\n";
  engine.set_permissive(true);
  check("media-browser", "vehicle-control", core::AccessType::kWrite);
  std::printf("  would-deny events logged: %llu\n",
              static_cast<unsigned long long>(engine.permissive_denials()));
  engine.set_permissive(false);

  // The AVC makes the repeated checks cheap.
  for (int i = 0; i < 1000; ++i) {
    core::AccessRequest req{"media-browser", "media-library",
                            core::AccessType::kRead, {}};
    (void)engine.evaluate(req);
  }
  std::printf("\nAVC after 1000 hot checks: hits=%llu misses=%llu "
              "(hit ratio %.3f)\n",
              static_cast<unsigned long long>(engine.avc_stats().hits),
              static_cast<unsigned long long>(engine.avc_stats().misses),
              engine.avc_stats().hit_ratio());
  return ok ? 0 : 1;
}
