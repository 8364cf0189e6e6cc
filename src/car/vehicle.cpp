#include "car/vehicle.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace psme::car {

namespace {

/// Component nodes in attach order (the gateway attaches before them).
constexpr std::array<std::string_view, 8> kNodeNames = {
    "ecu",   "eps",    "engine",       "sensors",
    "doors", "safety", "connectivity", "infotainment"};

[[nodiscard]] std::size_t node_index(std::string_view node) {
  const auto it = std::find(kNodeNames.begin(), kNodeNames.end(), node);
  if (it == kNodeNames.end()) {
    throw std::out_of_range("VehiclePlan: unknown node");
  }
  return static_cast<std::size_t>(it - kNodeNames.begin());
}

/// The binding switches a plan is compiled with. Software filters bind
/// with default options and kNone binds nothing, so the ablation
/// switches shape only HPE configurations — and only HPE plan keys.
[[nodiscard]] BindingOptions plan_options(const VehicleConfig& config) noexcept {
  BindingOptions options;
  if (config.enforcement == Enforcement::kHpe) {
    options.content_rules = config.hpe_content_rules;
    options.writer_existence_gate = config.hpe_writer_gate;
    options.mode_conditional = config.hpe_mode_conditional;
  }
  return options;
}

}  // namespace

std::string_view to_string(Enforcement e) noexcept {
  switch (e) {
    case Enforcement::kNone: return "none";
    case Enforcement::kSoftwareFilter: return "software-filter";
    case Enforcement::kHpe: return "hpe";
  }
  return "?";
}

VehiclePlan::VehiclePlan(core::PolicySet policy, Enforcement enforcement,
                         BindingOptions options, Topology topology)
    : policy_(std::move(policy)), binding_(policy_, options) {
  // binding_ compiled policy_'s image above, so the plan is published
  // with it built: no reader ever takes the lazy compile path.
  switch (enforcement) {
    case Enforcement::kHpe:
      for (const std::string_view node : kNodeNames) {
        hpe_configs_.push_back(binding_.build_hpe_config(std::string(node)));
      }
      break;
    case Enforcement::kSoftwareFilter:
      rx_filters_.resize(kNodeNames.size());
      for (std::size_t n = 0; n < kNodeNames.size(); ++n) {
        for (const CarMode mode : kAllModes) {
          rx_filters_[n][static_cast<std::size_t>(mode)] =
              binding_.build_rx_filters(std::string(kNodeNames[n]), mode);
        }
      }
      break;
    case Enforcement::kNone:
      break;
  }
  if (topology == Topology::kSegmented) {
    gateway_config_ = binding_.build_gateway_config();
  }
}

std::shared_ptr<const VehiclePlan> VehiclePlan::shared(
    const VehicleConfig& config) {
  const BindingOptions options = plan_options(config);
  using Key =
      std::tuple<std::uint64_t, Topology, Enforcement, bool, bool, bool>;
  const Key key{config.policy_version,        config.topology,
                config.enforcement,           options.content_rules,
                options.writer_existence_gate, options.mode_conditional};
  // A policy version has at most twenty plans (kNone, software filters
  // and eight kHpe switch sets, on each topology), so the memo keeps
  // every plan it compiles. A compile runs under the lock: the first
  // builds on a key wait for one plan instead of racing to make several.
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const VehiclePlan>> plans;
  const std::lock_guard lock(mutex);
  std::shared_ptr<const VehiclePlan>& plan = plans[key];
  if (plan == nullptr) {
    plan = std::make_shared<const VehiclePlan>(
        full_policy(connected_car_threat_model(), config.policy_version),
        config.enforcement, options, config.topology);
  }
  return plan;
}

const hpe::HpeConfig& VehiclePlan::hpe_config(std::string_view node) const {
  return hpe_configs_.at(node_index(node));
}

const std::vector<can::AcceptanceFilter>& VehiclePlan::rx_filters(
    std::string_view node, CarMode mode) const {
  return rx_filters_.at(node_index(node))[static_cast<std::size_t>(mode)];
}

const hpe::BridgeConfig& VehiclePlan::gateway_config() const {
  if (!gateway_config_) {
    throw std::out_of_range("VehiclePlan: a flat plan has no gateway");
  }
  return *gateway_config_;
}

Vehicle::Vehicle(sim::Scheduler& sched, VehicleConfig config,
                 sim::Trace* trace)
    : sched_(sched),
      config_(config),
      trace_(trace),
      bus_(sched, can::kBitRate500k, trace, config.seed),
      plan_(VehiclePlan::shared(config)) {
  bus_.set_error_rate(config_.bus_error_rate);

  // Node seeds are the vehicle seed XOR a salt: the mode master's, then
  // one per node counting up in attach order. The two topologies use
  // different salts because every seeded run and pinned digest of each
  // was taken with its own; one shared pair would move all the numbers
  // of the other topology.
  std::uint64_t master_salt = 0x11;
  std::uint64_t salt = 0x20;
  if (config_.topology == Topology::kSegmented) {
    master_salt = 0x40;
    salt = 0x41;
    telematics_bus_ = std::make_unique<can::Bus>(
        sched_, can::kBitRate125k, trace_, config_.seed ^ 0x7);
    telematics_bus_->set_error_rate(config_.bus_error_rate);
    // Side A is the attacker-facing telematics bus; side B, the control
    // bus, hosts the mode master.
    bridge_ = std::make_unique<hpe::Bridge>(sched_, *telematics_bus_, bus_,
                                            plan_->gateway_config(),
                                            "gateway", trace_);
  }

  // The mode master is part of the trusted computing base (it owns the
  // mode); it attaches to the control bus directly, without a policy shim.
  gateway_ = std::make_unique<GatewayNode>(sched_, bus_.attach("gateway"),
                                           trace_, config_.seed ^ master_salt);

  ecu_ = std::make_unique<EvEcuNode>(sched_, make_channel("ecu"), trace_,
                                     config_.seed ^ salt++);
  eps_ = std::make_unique<EpsNode>(sched_, make_channel("eps"), trace_,
                                   config_.seed ^ salt++);
  engine_ = std::make_unique<EngineNode>(sched_, make_channel("engine"),
                                         trace_, config_.seed ^ salt++);
  sensors_ = std::make_unique<SensorNode>(sched_, make_channel("sensors"),
                                          trace_, config_.seed ^ salt++);
  doors_ = std::make_unique<DoorLockNode>(sched_, make_channel("doors"),
                                          trace_, config_.seed ^ salt++);
  safety_ = std::make_unique<SafetyCriticalNode>(
      sched_, make_channel("safety"), trace_, config_.seed ^ salt++);
  connectivity_ = std::make_unique<ConnectivityNode>(
      sched_, make_channel("connectivity"), trace_, config_.seed ^ salt++);
  infotainment_ = std::make_unique<InfotainmentNode>(
      sched_, make_channel("infotainment"), trace_, config_.seed ^ salt++);

  // Every component node answers workshop diagnostics under its address.
  for (const auto& name : node_names()) {
    node(name)->enable_diagnostics(diag_address_of(name));
  }

  if (config_.enforcement == Enforcement::kHpe && config_.lock_hpes) {
    for (auto& [name, station] : stations_) {
      if (station.engine) station.engine->lock();
    }
  }

  if (config_.enforcement == Enforcement::kSoftwareFilter) {
    install_software_filters(config_.initial_mode);
    // Software filters are mode-dependent; node firmware must reprogram
    // them whenever the gateway announces a mode change. (The HPE needs no
    // such hook — it snoops the mode frame itself.)
    gateway_->set_on_change(
        [this](CarMode mode) { install_software_filters(mode); });
  }

  if (config_.initial_mode != CarMode::kNormal) {
    gateway_->change_mode(config_.initial_mode);
  }
}

can::Channel& Vehicle::make_channel(const std::string& name) {
  Station& station = stations_[name];
  can::Bus& segment = on_telematics_segment(name) ? telematics_bus() : bus_;
  station.port = &segment.attach(name);
  if (config_.enforcement == Enforcement::kHpe) {
    station.engine = std::make_unique<hpe::HardwarePolicyEngine>(
        *station.port, plan_->hpe_config(name), name, trace_,
        plan_->policy().version());
    // The engine powers up in the configured initial mode.
    station.engine->set_mode(static_cast<std::uint8_t>(config_.initial_mode));
    return *station.engine;
  }
  return *station.port;
}

void Vehicle::install_software_filters(CarMode mode) {
  for (const auto& name : node_names()) {
    node(name)->controller().set_filters(plan_->rx_filters(name, mode));
  }
  gateway_->controller().set_filters({
      can::AcceptanceFilter::exact(msg::kFailSafeTrigger),
      can::AcceptanceFilter::exact(msg::kModeChange),
  });
}

CarNode* Vehicle::node(const std::string& name) noexcept {
  if (name == "ecu") return ecu_.get();
  if (name == "eps") return eps_.get();
  if (name == "engine") return engine_.get();
  if (name == "sensors") return sensors_.get();
  if (name == "doors") return doors_.get();
  if (name == "safety") return safety_.get();
  if (name == "connectivity") return connectivity_.get();
  if (name == "infotainment") return infotainment_.get();
  return nullptr;
}

std::vector<std::string> Vehicle::node_names() const {
  return {kNodeNames.begin(), kNodeNames.end()};
}

hpe::HardwarePolicyEngine* Vehicle::hpe(const std::string& name) noexcept {
  const auto it = stations_.find(name);
  return it == stations_.end() ? nullptr : it->second.engine.get();
}

can::Port& Vehicle::attach_attacker(const std::string& name) {
  return telematics_bus().attach(name);
}

void Vehicle::set_mode(CarMode mode) { gateway_->change_mode(mode); }

bool Vehicle::apply_policy_update(const core::PolicyBundle& bundle,
                                  const core::PolicySigner& verifier) {
  // Every precondition is checked before anything changes, so a refused
  // bundle leaves every engine, the plan, policy() and binding() as they
  // were.
  const bool authentic = verifier.verify(bundle.set, bundle.tag);
  if (config_.enforcement == Enforcement::kHpe) {
    // An engine that would refuse the bundle (every engine, when it is
    // forged) is handed it anyway: its own update path refuses it and
    // counts a tamper attempt. The others are not touched.
    bool refused = false;
    for (auto& [name, station] : stations_) {
      if (!authentic ||
          bundle.version() <= station.engine->policy_version()) {
        station.engine->apply_update(bundle, verifier, {});
        refused = true;
      }
    }
    if (refused) return false;
  } else if (!authentic || bundle.version() <= policy().version()) {
    return false;
  }

  // Every engine accepts now: each checks what was checked above.
  auto next = std::make_shared<const VehiclePlan>(
      bundle.set, config_.enforcement, plan_options(config_),
      config_.topology);
  for (auto& [name, station] : stations_) {
    if (station.engine) {
      station.engine->apply_update(bundle, verifier, next->hpe_config(name));
    }
  }
  if (bridge_ != nullptr) bridge_->set_config(next->gateway_config());
  plan_ = std::move(next);
  if (config_.enforcement == Enforcement::kSoftwareFilter) {
    install_software_filters(mode());
  }
  return true;
}

std::uint64_t Vehicle::total_hpe_blocks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [name, station] : stations_) {
    if (station.engine) total += station.engine->stats().total_blocked();
  }
  return total;
}

}  // namespace psme::car
