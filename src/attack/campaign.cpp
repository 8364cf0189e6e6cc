#include "attack/campaign.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "attack/attacker.h"
#include "can/bus.h"
#include "car/diagnostics.h"
#include "car/fleet_boot.h"
#include "car/ids.h"
#include "car/modes.h"
#include "car/network_mgmt.h"
#include "car/quarantine.h"
#include "car/vehicle.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_synth.h"
#include "monitor/anomaly.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"

namespace psme::attack {

using namespace std::chrono_literals;

std::string_view to_string(Family family) noexcept {
  switch (family) {
    case Family::kNmImpersonation: return "nm-impersonation";
    case Family::kNmSleepAbuse: return "nm-sleep-abuse";
    case Family::kNmLimpHomeForce: return "nm-limp-home-force";
    case Family::kDiagSessionHijack: return "diag-session-hijack";
    case Family::kBusFlood: return "bus-flood";
    case Family::kTargetedFrameStorm: return "targeted-frame-storm";
    case Family::kFilterProbeSweep: return "filter-probe-sweep";
    case Family::kModeConfusion: return "mode-confusion";
    case Family::kFrameFuzz: return "frame-fuzz";
    case Family::kLateralMovement: return "lateral-movement";
    case Family::kOtaReplay: return "ota-replay";
    case Family::kOtaCorrupt: return "ota-corrupt";
  }
  return "?";
}

std::optional<std::string_view> out_of_scope_rationale(Family family) noexcept {
  if (family == Family::kModeConfusion) {
    return "a single forged mode-change frame is indistinguishable, at id "
           "granularity, from the gateway's own broadcast; attributing it "
           "needs sender authentication, which the modelled HPE does not "
           "provide (noisy variants are still rate-flagged)";
  }
  return std::nullopt;
}

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kDenied: return "denied";
    case Verdict::kFlagged: return "flagged";
    case Verdict::kDetectedHazard: return "detected-hazard";
    case Verdict::kOutOfScope: return "out-of-scope";
    case Verdict::kSilentSuccess: return "silent-success";
    case Verdict::kNoEffect: return "no-effect";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CampaignPlan — the pure generator.
// ---------------------------------------------------------------------------

CampaignPlan::CampaignPlan(CampaignOptions options) : options_(options) {}

std::uint64_t CampaignPlan::scenario_seed(Family family,
                                          std::uint32_t index) const noexcept {
  return sim::mix3(options_.seed,
                   0xFA00ULL + static_cast<std::uint64_t>(family), index);
}

namespace {

constexpr std::uint8_t kForgedSpeed = 0xF0;
constexpr std::uint32_t kFloodId = 0x001;
constexpr std::uint32_t kProbeBaseId = 0x600;

[[nodiscard]] std::uint64_t delta(std::uint64_t attacked,
                                  std::uint64_t control) noexcept {
  return attacked > control ? attacked - control : 0;
}

}  // namespace

std::vector<AttackStep> CampaignPlan::steps(Family family,
                                            std::uint32_t index) const {
  std::vector<AttackStep> steps;
  sim::Rng rng(scenario_seed(family, index));
  const auto scaled = [this](std::uint64_t nominal) {
    return std::max<std::uint64_t>(
        1, nominal * options_.intensity_permille / 1000);
  };

  switch (family) {
    case Family::kNmImpersonation: {
      // Forged ring/alive frames under a real member's address. The bus
      // never echoes a frame to its sender, so the victim sees its own
      // address arriving and must answer with alive (OSEK re-assertion).
      const auto victim = static_cast<std::uint8_t>(1 + rng.uniform(0, 3));
      const auto next = static_cast<std::uint8_t>(victim % 4 + 1);
      const std::uint64_t count = scaled(120);
      for (std::uint64_t i = 0; i < count; ++i) {
        const bool ring = rng.chance(0.7);
        steps.push_back(
            {std::chrono::microseconds{rng.uniform(0, 999'999)},
             car::nm::make_nm_frame(victim, ring ? next : victim,
                                    ring ? car::nm::kOpRing
                                         : car::nm::kOpAlive)});
      }
      break;
    }

    case Family::kNmSleepAbuse: {
      // Forged sleep.ack from a phantom top-of-address-space station while
      // the vehicle is active. Non-ready stations must refuse; any station
      // legitimately advertising readiness is talked into sleeping.
      const std::uint64_t count = scaled(40);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto dest = static_cast<std::uint8_t>(1 + rng.uniform(0, 3));
        steps.push_back(
            {std::chrono::microseconds{rng.uniform(0, 999'999)},
             car::nm::make_nm_frame(car::nm::kMaxAddress, dest,
                                    car::nm::kOpRing | car::nm::kSleepInd |
                                        car::nm::kSleepAck)});
      }
      break;
    }

    case Family::kNmLimpHomeForce: {
      // Ring poisoning: forged ring frames hand the token to phantom
      // addresses that never pass it back. Real members learn the phantoms
      // as ring members, route the token into the void, and starve into
      // limp home. A few phantom alive frames keep the phantoms "present".
      const std::uint64_t rounds = scaled(8);
      for (std::uint64_t i = 0; i < rounds; ++i) {
        const auto source = static_cast<std::uint8_t>(1 + rng.uniform(0, 3));
        const auto phantom =
            static_cast<std::uint8_t>(0x18 + rng.uniform(0, 3));
        const auto base = std::chrono::milliseconds{i * 100};
        steps.push_back(
            {base, car::nm::make_nm_frame(source, phantom, car::nm::kOpRing)});
        steps.push_back({base + 3ms, car::nm::make_nm_frame(
                                         phantom, phantom, car::nm::kOpAlive)});
      }
      break;
    }

    case Family::kDiagSessionHijack: {
      // UDS abuse against several responders: key without a seed request
      // (sequence violation), a seeded-but-wrong key, and security-gated
      // services while locked. Every attempt must earn a negative response.
      const std::uint8_t targets[] = {car::diag_address_of("ecu"),
                                      car::diag_address_of("doors"),
                                      car::diag_address_of("safety")};
      std::chrono::milliseconds at{0};
      for (const std::uint8_t target : targets) {
        const auto wrong_key = static_cast<std::uint8_t>(rng.uniform(0, 255));
        steps.push_back({at, car::diag::make_request(
                                 target, car::diag::kSecurityAccess,
                                 car::diag::kSubSendKey, wrong_key)});
        steps.push_back({at + 20ms, car::diag::make_request(
                                        target, car::diag::kSecurityAccess,
                                        car::diag::kSubRequestSeed)});
        steps.push_back({at + 40ms, car::diag::make_request(
                                        target, car::diag::kSecurityAccess,
                                        car::diag::kSubSendKey, wrong_key)});
        steps.push_back({at + 60ms, car::diag::make_request(
                                        target, car::diag::kWriteDataById,
                                        car::diag::kDidSetpoint, 0x7F)});
        steps.push_back(
            {at + 80ms, car::diag::make_request(target, car::diag::kEcuReset)});
        at += 220ms;
      }
      break;
    }

    case Family::kBusFlood: {
      // Highest-priority unknown id at a period below the frame time: the
      // attacker wins every arbitration round and starves legit traffic.
      const std::uint64_t count = scaled(4500);
      const std::uint8_t payload[8] = {0xAA, 0xAA, 0xAA, 0xAA,
                                       0xAA, 0xAA, 0xAA, 0xAA};
      const can::Frame frame(can::CanId::standard(kFloodId), payload);
      steps.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        steps.push_back({std::chrono::microseconds{i * 200}, frame});
      }
      break;
    }

    case Family::kTargetedFrameStorm: {
      // Spoofed high-rate storm on ONE legitimate id (the speed sensor):
      // receivers adopt the forged value unless the response layer cuts
      // the storming port (the id itself is Table-I-allowed, so id blocks
      // are off the table).
      const std::uint64_t count = scaled(500);
      const std::uint8_t payload[1] = {kForgedSpeed};
      const can::Frame frame(can::CanId::standard(car::msg::kSensorSpeed),
                             payload);
      for (std::uint64_t i = 0; i < count; ++i) {
        steps.push_back({std::chrono::milliseconds{i * 2}, frame});
      }
      break;
    }

    case Family::kFilterProbeSweep: {
      // Reconnaissance sweep over an unused id window: every probe must die
      // in acceptance filters / HPE read lists.
      for (std::uint32_t probe = 0; probe < 64; ++probe) {
        const std::uint8_t payload[2] = {0x01,
                                         static_cast<std::uint8_t>(probe)};
        steps.push_back(
            {std::chrono::milliseconds{probe * 12},
             can::Frame(can::CanId::standard(kProbeBaseId + probe), payload)});
      }
      break;
    }

    case Family::kModeConfusion: {
      if (index % 2 == 0) {
        // Stealth variant: ONE forged fail-safe broadcast, rate-invisible.
        // This is the catalogued out-of-scope hazard.
        const std::uint8_t payload[1] = {
            static_cast<std::uint8_t>(car::CarMode::kFailSafe)};
        steps.push_back(
            {500ms,
             can::Frame(can::CanId::standard(car::msg::kModeChange), payload)});
      } else {
        // Noisy variant: a mode-flapping storm, caught by the rate monitor.
        const std::uint64_t count = scaled(150);
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint8_t payload[1] = {static_cast<std::uint8_t>(
              i % 2 == 0 ? car::CarMode::kFailSafe : car::CarMode::kNormal)};
          steps.push_back(
              {std::chrono::milliseconds{i * 6},
               can::Frame(can::CanId::standard(car::msg::kModeChange),
                          payload)});
        }
      }
      break;
    }

    case Family::kFrameFuzz: {
      const std::uint64_t count = scaled(150);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto id =
            static_cast<std::uint32_t>(rng.uniform(0, can::CanId::kMaxStandard));
        const auto dlc = static_cast<std::uint8_t>(rng.uniform(0, 8));
        std::uint8_t payload[8] = {};
        for (std::uint8_t b = 0; b < dlc; ++b) {
          payload[b] = static_cast<std::uint8_t>(rng.uniform(0, 255));
        }
        steps.push_back({std::chrono::microseconds{rng.uniform(0, 999'999)},
                         can::Frame(can::CanId::standard(id),
                                    std::span<const std::uint8_t>(payload,
                                                                  dlc))});
      }
      break;
    }

    case Family::kLateralMovement: {
      // A telematics foothold spraying control-domain commands at the
      // policy gateway: disable actuators, unlock doors, disarm the alarm.
      const std::uint64_t rounds = scaled(20);
      for (std::uint64_t i = 0; i < rounds; ++i) {
        const auto base = std::chrono::milliseconds{i * 45};
        steps.push_back({base, car::command_frame(car::msg::kEcuCommand,
                                                  car::op::kDisable)});
        steps.push_back({base + 1ms, car::command_frame(car::msg::kEpsCommand,
                                                        car::op::kDisable)});
        steps.push_back(
            {base + 2ms,
             car::command_frame(car::msg::kEngineCommand, car::op::kDisable)});
        steps.push_back({base + 3ms, car::command_frame(car::msg::kLockCommand,
                                                        car::op::kUnlock)});
        steps.push_back(
            {base + 4ms,
             car::command_frame(car::msg::kAlarmCommand, car::op::kDisarm)});
      }
      break;
    }

    case Family::kOtaReplay:
    case Family::kOtaCorrupt:
      // OTA artefacts are derived from the scenario seed by the runner;
      // they are blobs, not frames.
      break;
  }

  // Only the families that draw random offsets (NM impersonation, NM
  // sleep abuse, frame fuzz) generate out of order.
  const auto earlier = [](const AttackStep& a, const AttackStep& b) {
    return a.offset < b.offset;
  };
  if (!std::is_sorted(steps.begin(), steps.end(), earlier)) {
    std::stable_sort(steps.begin(), steps.end(), earlier);
  }
  return steps;
}

// ---------------------------------------------------------------------------
// The differential worlds.
// ---------------------------------------------------------------------------

namespace {

/// The tap sink: feeds the rate monitor and keeps delivery/diagnostic
/// counts the oracle reads.
struct TapSink final : can::FrameSink {
  monitor::FrameRateMonitor* monitor = nullptr;
  std::map<std::uint64_t, std::uint64_t> delivered;
  std::uint64_t diag_negatives = 0;

  void on_frame(const can::Frame& frame, sim::SimTime at) override {
    if (monitor != nullptr) monitor->on_frame(frame, at);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(frame.id().is_extended()) << 32) |
        frame.id().raw();
    ++delivered[key];
    if (!frame.id().is_extended() &&
        frame.id().raw() == car::msg::kDiagResponse) {
      const auto response = car::diag::parse_response(frame);
      if (response.has_value() && response->negative) ++diag_negatives;
    }
  }
};

/// Everything one flat-bus world run yields for the oracle.
struct BusObservation {
  std::uint64_t denied = 0;
  std::uint64_t flagged = 0;
  std::uint64_t legit_delivered = 0;
  std::uint64_t limp_entries = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t hazard_counters = 0;
  bool any_unlocked = false;
  std::uint8_t sampled_speed = 0;
  std::uint8_t sampled_display = 0;
  std::uint32_t mode_mismatches = 0;
  std::uint64_t q_blocks = 0;
  std::uint64_t q_isolations = 0;
  std::uint64_t q_escalations = 0;
};

[[nodiscard]] std::uint64_t vehicle_hazard_counters(car::Vehicle& vehicle) {
  return vehicle.ecu().disable_events() + vehicle.eps().disable_events() +
         vehicle.engine().disable_events() +
         vehicle.doors().unlocks_while_moving() +
         vehicle.doors().locks_during_failsafe() +
         vehicle.safety().failsafe_triggers() +
         vehicle.safety().disarm_events() +
         vehicle.connectivity().modem_disables() +
         vehicle.connectivity().firmware_tampers() +
         vehicle.infotainment().display_overrides() +
         (vehicle.infotainment().compromised() ? 1 : 0);
}

/// One flat-bus world: HPE-enforced vehicle + a 4-station OSEK-NM ring +
/// IDS tap; detection and (optionally) quarantine from t=2s; the attack
/// window is [2.1s, 3.1s); probes sample at 3.05s; the run ends at 3.6s.
BusObservation run_bus_world(Family family, std::uint32_t index,
                             const CampaignOptions& options,
                             std::uint64_t seed,
                             const std::vector<AttackStep>& steps) {
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  config.hpe_content_rules = true;
  config.seed = seed;
  car::Vehicle vehicle(sched, config);

  // The NM ring. Tightened supervision constants keep the limp-home
  // machinery observable inside the campaign's attack window.
  car::nm::NmOptions nm_options;
  nm_options.token_wait = 250ms;
  nm_options.limp_limit = 2;
  std::vector<std::unique_ptr<car::nm::NmParticipant>> ring;
  for (std::uint8_t address = 1; address <= 4; ++address) {
    can::Port& port =
        vehicle.bus().attach("nm-port-" + std::to_string(address));
    auto station = std::make_unique<car::nm::NmParticipant>(
        sched, port, address, nm_options);
    if (family == Family::kNmSleepAbuse && index % 2 == 1 && address >= 3) {
      // Variant world: two stations legitimately advertise readiness.
      station->set_ready_to_sleep(true);
    }
    car::nm::NmParticipant* raw = station.get();
    sched.schedule_in(std::chrono::milliseconds{10 + 7 * address},
                      [raw] { raw->start(); }, "campaign.nm.start");
    ring.push_back(std::move(station));
  }

  // IDS tap + delivery accounting.
  can::Port& tap = vehicle.bus().attach("ids-tap");
  monitor::FrameRateMonitor ids(sched);
  TapSink sink;
  sink.monitor = &ids;
  tap.set_sink(&sink);
  ids.start_training();

  // Train through a mode cycle so mode-change and remote-diagnostic
  // traffic patterns are part of the learned matrix. The hijack family
  // attacks INSIDE remote-diagnostic mode (responders ignore requests
  // elsewhere), so that world stays in it.
  sched.schedule_in(600ms,
                    [&vehicle] {
                      vehicle.set_mode(car::CarMode::kRemoteDiagnostic);
                    },
                    "campaign.mode");
  if (family != Family::kDiagSessionHijack) {
    sched.schedule_in(1200ms,
                      [&vehicle] { vehicle.set_mode(car::CarMode::kNormal); },
                      "campaign.mode");
  }
  sched.run_until(sim::SimTime{2000ms});

  ids.start_detection();
  const std::map<std::uint64_t, std::uint64_t> baseline_delivered =
      sink.delivered;

  std::unique_ptr<car::QuarantineController> quarantine;
  if (options.quarantine) {
    car::QuarantineOptions q_options;
    q_options.escalate_after_alerts = 25;
    quarantine = car::make_vehicle_quarantine(vehicle, ids, q_options);
    for (const auto& station : ring) quarantine->protect(station->controller());
    quarantine->start();
  }

  OutsideAttacker attacker(sched, vehicle.attach_attacker("campaign-attacker"));
  for (const AttackStep& step : steps) {
    sched.schedule_in(100ms + step.offset,
                      [&attacker, frame = step.frame] {
                        attacker.inject(frame);
                      },
                      "campaign.attack");
  }

  BusObservation obs;
  sched.schedule_in(1050ms,
                    [&] {
                      obs.sampled_speed = vehicle.ecu().speed();
                      obs.sampled_display =
                          vehicle.infotainment().displayed_speed();
                      for (const std::string& name : vehicle.node_names()) {
                        if (vehicle.node(name)->mode() != vehicle.mode()) {
                          ++obs.mode_mismatches;
                        }
                      }
                    },
                    "campaign.probe");

  sched.run_until(sim::SimTime{3600ms});

  // Denial evidence: enforcement refusing frames.
  obs.denied = vehicle.total_hpe_blocks() + sink.diag_negatives;
  const auto add_controller = [&obs](const can::Controller& controller) {
    obs.denied +=
        controller.stats().rx_filtered + controller.stats().rx_quarantined;
  };
  add_controller(vehicle.gateway().controller());
  for (const std::string& name : vehicle.node_names()) {
    add_controller(vehicle.node(name)->controller());
    if (vehicle.node(name)->diag_unlocked()) obs.any_unlocked = true;
  }
  for (const auto& station : ring) {
    add_controller(station->controller());
    obs.denied += station->stats().sleep_refusals;
    obs.flagged += station->stats().impersonations_detected +
                   station->stats().skipped_detections +
                   station->stats().silence_timeouts;
    obs.limp_entries += station->stats().limp_home_entries;
    obs.sleeps += station->stats().sleeps_entered;
  }
  obs.flagged += ids.alerts().size();
  obs.hazard_counters = vehicle_hazard_counters(vehicle);
  for (const auto& [key, count] : baseline_delivered) {
    const auto it = sink.delivered.find(key);
    if (it != sink.delivered.end()) obs.legit_delivered += it->second - count;
  }
  if (quarantine) {
    obs.q_blocks = quarantine->stats().ids_blocked;
    obs.q_isolations = quarantine->stats().ports_isolated;
    obs.q_escalations = quarantine->stats().escalations;
  }
  return obs;
}

/// The segmented world (lateral movement): attacker on the telematics
/// bus, IDS tap + hazard counters on the control side, the policy
/// gateway in between.
struct SegmentedObservation {
  std::uint64_t denied = 0;
  std::uint64_t flagged = 0;
  std::uint64_t hazard_counters = 0;
};

SegmentedObservation run_segmented_world(std::uint64_t seed,
                                         const std::vector<AttackStep>& steps) {
  sim::Scheduler sched;
  car::VehicleConfig config;
  config.topology = car::Topology::kSegmented;
  config.seed = seed;
  car::Vehicle vehicle(sched, config);

  can::Port& tap = vehicle.bus().attach("ids-tap");
  monitor::FrameRateMonitor ids(sched);
  TapSink sink;
  sink.monitor = &ids;
  tap.set_sink(&sink);
  ids.start_training();
  sched.run_until(sim::SimTime{700ms});
  ids.start_detection();

  OutsideAttacker attacker(sched,
                           vehicle.attach_attacker("campaign-attacker"));
  for (const AttackStep& step : steps) {
    sched.schedule_in(50ms + step.offset,
                      [&attacker, frame = step.frame] {
                        attacker.inject(frame);
                      },
                      "campaign.attack");
  }
  sched.run_until(sim::SimTime{2200ms});

  SegmentedObservation obs;
  obs.denied = vehicle.bridge()->stats().dropped_a_to_b +
               vehicle.bridge()->stats().dropped_b_to_a;
  obs.flagged = ids.alerts().size();
  obs.hazard_counters = (vehicle.ecu().active() ? 0 : 1) +
                        (vehicle.eps().active() ? 0 : 1) +
                        (vehicle.engine().active() ? 0 : 1) +
                        vehicle.ecu().disable_events() +
                        vehicle.eps().disable_events() +
                        vehicle.engine().disable_events() +
                        vehicle.doors().unlocks_while_moving() +
                        vehicle.safety().disarm_events();
  return obs;
}

/// The OTA world: a booted FleetBoot offered replayed / corrupted policy
/// artefacts derived from the scenario seed, then one legitimate update
/// that must still succeed.
struct OtaObservation {
  std::uint64_t artefacts = 0;
  std::uint64_t denied = 0;
  bool hazard = false;
  bool legit_ok = false;
  std::uint64_t final_version = 0;
};

OtaObservation run_ota_world(Family family, std::uint64_t seed) {
  sim::Rng rng(seed);
  const std::size_t rules = 24 + rng.uniform(0, 8);
  const std::uint64_t base_version = 2 + rng.uniform(0, 3);
  const std::uint64_t synth_seed = sim::mix3(seed, 0xB10B, 1);

  const auto synth = [&](std::size_t rule_count, std::uint64_t version) {
    core::SynthPolicyOptions options;
    options.rules = rule_count;
    options.version = version;
    options.seed = synth_seed;
    return core::synth_policy_set(options);
  };
  const auto image1 =
      core::CompiledPolicyImage::from_policy_set(synth(rules, base_version));
  const auto image2 = core::CompiledPolicyImage::from_policy_set(
      synth(rules + 3, base_version + 1),
      core::replicate_sid_prefix(image1.sids(), image1.sids().size()));
  const auto image3 = core::CompiledPolicyImage::from_policy_set(
      synth(rules + 6, base_version + 2),
      core::replicate_sid_prefix(image2.sids(), image2.sids().size()));
  const auto blob1 = core::PolicyBlobWriter::write(image1);
  const auto blob2 = core::PolicyBlobWriter::write(image2);
  const auto blob3 = core::PolicyBlobWriter::write(image3);
  const auto delta12 = core::PolicyDeltaWriter::write(image1, image2);
  const auto delta23 = core::PolicyDeltaWriter::write(image2, image3);

  // The vehicle runs version base+1 (image2).
  car::FleetBoot boot(blob2, car::default_fleet_checks());

  OtaObservation obs;
  const auto offer_blob = [&](std::span<const std::byte> artefact) {
    ++obs.artefacts;
    if (boot.try_apply_update(artefact) == car::UpdateResult::kOk) {
      obs.hazard = true;
    } else {
      ++obs.denied;
    }
  };
  const auto offer_delta = [&](std::span<const std::byte> artefact) {
    ++obs.artefacts;
    if (boot.try_apply_delta_update(artefact) == car::UpdateResult::kOk) {
      obs.hazard = true;
    } else {
      ++obs.denied;
    }
  };

  if (family == Family::kOtaReplay) {
    // Replays: the previous full blob (version rollback), the already-
    // consumed delta (anchored to the superseded base), the running blob
    // itself (equal version), and a few repeats.
    offer_blob(blob1);
    offer_delta(delta12);
    offer_blob(blob2);
    const std::uint64_t extra = 1 + rng.uniform(0, 2);
    for (std::uint64_t i = 0; i < extra; ++i) offer_blob(blob1);
  } else {
    // Corruptions of otherwise-current artefacts: seeded byte flips and
    // truncations of the next blob and delta, plus an empty artefact.
    const auto flipped = [&rng](const std::vector<std::byte>& artefact) {
      std::vector<std::byte> bytes = artefact;
      const std::uint64_t flips = 1 + rng.uniform(0, 2);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t position = rng.uniform(0, bytes.size() - 1);
        bytes[position] ^= static_cast<std::byte>(1 + rng.uniform(0, 254));
      }
      return bytes;
    };
    const auto truncated = [&rng](const std::vector<std::byte>& artefact) {
      const std::uint64_t keep =
          artefact.size() * (60 + rng.uniform(0, 30)) / 100;
      return std::vector<std::byte>(artefact.begin(), artefact.begin() + keep);
    };
    const auto corrupt_blob = flipped(blob3);
    offer_blob(corrupt_blob);
    const auto short_blob = truncated(blob3);
    offer_blob(short_blob);
    const auto corrupt_delta = flipped(delta23);
    offer_delta(corrupt_delta);
    const auto short_delta = truncated(delta23);
    offer_delta(short_delta);
    offer_blob({});
  }

  // The legitimate update must still land after the attack.
  obs.legit_ok =
      boot.try_apply_delta_update(delta23) == car::UpdateResult::kOk;
  obs.final_version = boot.policy_version();
  if (boot.policy_version() < base_version + 1) obs.hazard = true;
  return obs;
}

}  // namespace

// ---------------------------------------------------------------------------
// CampaignRunner — the differential oracle.
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(CampaignOptions options) : plan_(options) {}

ScenarioReport CampaignRunner::run(Family family, std::uint32_t index) const {
  const CampaignOptions& options = plan_.options();
  ScenarioReport report;
  report.family = family;
  report.index = index;
  report.seed = plan_.scenario_seed(family, index);

  if (family == Family::kOtaReplay || family == Family::kOtaCorrupt) {
    const OtaObservation ota = run_ota_world(family, report.seed);
    report.artefacts = ota.artefacts;
    report.denied = ota.denied;
    report.hazard = ota.hazard;
    report.note = "legit-ok=" + std::to_string(ota.legit_ok ? 1 : 0) +
                  ",version=" + std::to_string(ota.final_version);
  } else if (family == Family::kLateralMovement) {
    const std::vector<AttackStep> steps = plan_.steps(family, index);
    report.artefacts = steps.size();
    // The pair shares no mutable state (DESIGN.md §3): the control world
    // runs on a second thread while this one runs the attack world, and
    // get() joins it before the oracle reads either observation.
    auto pending = std::async(std::launch::async, run_segmented_world,
                              report.seed, std::vector<AttackStep>{});
    const SegmentedObservation attacked =
        run_segmented_world(report.seed, steps);
    const SegmentedObservation control = pending.get();
    report.denied = delta(attacked.denied, control.denied);
    report.flagged = delta(attacked.flagged, control.flagged);
    report.hazard = attacked.hazard_counters > control.hazard_counters;
    report.note =
        "gateway-drops=" + std::to_string(report.denied) +
        ",hazards=" +
        std::to_string(delta(attacked.hazard_counters,
                             control.hazard_counters));
  } else {
    const std::vector<AttackStep> steps = plan_.steps(family, index);
    report.artefacts = steps.size();
    // Side by side, as the segmented pair above.
    auto pending = std::async(std::launch::async, run_bus_world, family, index,
                              options, report.seed, std::vector<AttackStep>{});
    const BusObservation attacked =
        run_bus_world(family, index, options, report.seed, steps);
    const BusObservation control = pending.get();
    report.denied = delta(attacked.denied, control.denied);
    report.flagged = delta(attacked.flagged, control.flagged);
    report.quarantine_blocks = delta(attacked.q_blocks, control.q_blocks);
    report.quarantine_isolations =
        delta(attacked.q_isolations, control.q_isolations);
    report.quarantine_escalations =
        delta(attacked.q_escalations, control.q_escalations);

    const std::uint64_t limp = delta(attacked.limp_entries,
                                     control.limp_entries);
    const std::uint64_t sleeps = delta(attacked.sleeps, control.sleeps);
    const std::uint64_t hazards =
        delta(attacked.hazard_counters, control.hazard_counters);
    switch (family) {
      case Family::kNmImpersonation:
      case Family::kNmSleepAbuse:
        report.hazard = sleeps > 0 || limp > 0;
        report.note = "limp=" + std::to_string(limp) +
                      ",sleeps=" + std::to_string(sleeps);
        break;
      case Family::kNmLimpHomeForce:
        report.hazard = limp > 0;
        report.note = "limp=" + std::to_string(limp);
        break;
      case Family::kDiagSessionHijack:
        report.hazard = attacked.any_unlocked && !control.any_unlocked;
        report.note =
            "unlocked=" + std::to_string(attacked.any_unlocked ? 1 : 0);
        break;
      case Family::kBusFlood:
        // DoS hazard: legitimate delivery in the attack window degraded by
        // more than a quarter against the control twin.
        report.hazard =
            attacked.legit_delivered * 4 < control.legit_delivered * 3;
        report.note = "legit=" + std::to_string(attacked.legit_delivered) +
                      "/" + std::to_string(control.legit_delivered);
        break;
      case Family::kTargetedFrameStorm:
        report.hazard = (attacked.sampled_speed == kForgedSpeed &&
                         control.sampled_speed != kForgedSpeed) ||
                        (attacked.sampled_display == kForgedSpeed &&
                         control.sampled_display != kForgedSpeed);
        report.note = "speed=" + std::to_string(attacked.sampled_speed) + "/" +
                      std::to_string(control.sampled_speed);
        break;
      case Family::kModeConfusion:
        report.hazard = attacked.mode_mismatches > control.mode_mismatches;
        report.note =
            "mismatch=" + std::to_string(attacked.mode_mismatches) + "/" +
            std::to_string(control.mode_mismatches);
        break;
      case Family::kFilterProbeSweep:
      case Family::kFrameFuzz:
        report.hazard =
            hazards > 0 ||
            attacked.mode_mismatches > control.mode_mismatches;
        report.note = "hazards=" + std::to_string(hazards);
        break;
      default:
        break;
    }
  }

  // The oracle contract (DESIGN.md §12). For a hazard, detection beats
  // the catalogue beats late denial; without one of the three the attack
  // silently succeeded. Without a hazard the scenario must still have
  // provoked evidence, or the generator failed to engage.
  const bool catalogued = out_of_scope_rationale(family).has_value();
  if (report.hazard) {
    if (report.flagged > 0) {
      report.verdict = Verdict::kDetectedHazard;
    } else if (catalogued) {
      report.verdict = Verdict::kOutOfScope;
      report.out_of_scope = true;
    } else if (report.denied > 0) {
      report.verdict = Verdict::kDetectedHazard;
    } else {
      report.verdict = Verdict::kSilentSuccess;
    }
  } else {
    report.verdict = report.denied > 0    ? Verdict::kDenied
                     : report.flagged > 0 ? Verdict::kFlagged
                                          : Verdict::kNoEffect;
  }
  return report;
}

CampaignReport CampaignRunner::run_all() const {
  CampaignReport report;
  report.seed = plan_.options().seed;
  report.scenarios_per_family = plan_.options().scenarios_per_family;
  for (const Family family : kAllFamilies) {
    for (std::uint32_t index = 0; index < report.scenarios_per_family;
         ++index) {
      report.scenarios.push_back(run(family, index));
    }
  }
  return report;
}

std::size_t CampaignReport::count(Verdict verdict) const noexcept {
  std::size_t n = 0;
  for (const ScenarioReport& scenario : scenarios) {
    if (scenario.verdict == verdict) ++n;
  }
  return n;
}

bool CampaignReport::oracle_passed() const noexcept {
  for (const ScenarioReport& scenario : scenarios) {
    if (verdict_is_failure(scenario.verdict)) return false;
  }
  return true;
}

std::string CampaignReport::to_json() const {
  std::string json = "{\"seed\":" + std::to_string(seed) +
                     ",\"scenarios_per_family\":" +
                     std::to_string(scenarios_per_family) + ",\"scenarios\":[";
  bool first = true;
  for (const ScenarioReport& s : scenarios) {
    if (!first) json += ",";
    first = false;
    json += "{\"family\":\"" + std::string(to_string(s.family)) + "\"";
    json += ",\"index\":" + std::to_string(s.index);
    json += ",\"seed\":" + std::to_string(s.seed);
    json += ",\"artefacts\":" + std::to_string(s.artefacts);
    json += ",\"hazard\":" + std::string(s.hazard ? "true" : "false");
    json += ",\"denied\":" + std::to_string(s.denied);
    json += ",\"flagged\":" + std::to_string(s.flagged);
    json += ",\"out_of_scope\":" +
            std::string(s.out_of_scope ? "true" : "false");
    json += ",\"verdict\":\"" + std::string(to_string(s.verdict)) + "\"";
    json += ",\"quarantine_blocks\":" + std::to_string(s.quarantine_blocks);
    json += ",\"quarantine_isolations\":" +
            std::to_string(s.quarantine_isolations);
    json += ",\"quarantine_escalations\":" +
            std::to_string(s.quarantine_escalations);
    json += ",\"note\":\"" + s.note + "\"}";
  }
  json += "],\"verdicts\":{";
  json += "\"denied\":" + std::to_string(count(Verdict::kDenied));
  json += ",\"flagged\":" + std::to_string(count(Verdict::kFlagged));
  json += ",\"detected_hazard\":" +
          std::to_string(count(Verdict::kDetectedHazard));
  json += ",\"out_of_scope\":" + std::to_string(count(Verdict::kOutOfScope));
  json += ",\"silent_success\":" +
          std::to_string(count(Verdict::kSilentSuccess));
  json += ",\"no_effect\":" + std::to_string(count(Verdict::kNoEffect));
  json += "},\"oracle_passed\":" +
          std::string(oracle_passed() ? "true" : "false") + "}";
  return json;
}

}  // namespace psme::attack
