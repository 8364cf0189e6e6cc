// Workload `drive`: a clean connected-car drive under the HPE regime —
// HPEs locked, a sim::Trace attached at kSecurity, no attacker. The
// steady-state frame path (scheduler, bus, eight HPE read filters per
// frame, controller ingress, node handlers, trace) does nearly all the
// work; vehicle construction is the set-up.
//
// Untraced, the run times Scheduler::step over the timed window with two
// clock reads. Traced, it interposes timing shims on the public sink
// hooks — Port::set_sink -> shim -> HPE and HPE::set_sink -> shim ->
// Controller — and spans every Scheduler::step. Layers with no public
// hook (the HPE write filter, Trace::record) are measured by replaying
// this run's own frames / entries into their public entry points in
// isolation; those metrics are marked "replayed" in README.md.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "car/policy_binding.h"
#include "car/vehicle.h"
#include "common.h"
#include "hpe/hpe.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace perfbench {
namespace {

using namespace psme;
using namespace std::chrono_literals;

constexpr sim::SimDuration kWarmup = 20s;  // simulated, untimed
constexpr sim::SimDuration kDrive = 600s;  // simulated, timed
constexpr int kSetupBuilds = 31;

/// Bus-side shim: the port delivers to it, it forwards to the port's
/// original sink (an HPE, or the gateway's controller) inside a span.
class PortShim final : public can::FrameSink {
 public:
  PortShim(SpanLog& log, std::uint32_t rx_span, std::uint32_t tx_span,
           can::FrameSink& next, std::vector<can::Frame>* sent)
      : log_(log), rx_span_(rx_span), tx_span_(tx_span), next_(next),
        sent_(sent) {}

  void on_frame(const can::Frame& frame, sim::SimTime at) override {
    log_.begin(rx_span_);
    next_.on_frame(frame, at);
    log_.end();
  }
  void on_transmit_complete(const can::Frame& frame, bool success,
                            sim::SimTime at) override {
    if (success && sent_ != nullptr) sent_->push_back(frame);
    log_.begin(tx_span_);
    next_.on_transmit_complete(frame, success, at);
    log_.end();
  }

 private:
  SpanLog& log_;
  std::uint32_t rx_span_;
  std::uint32_t tx_span_;
  can::FrameSink& next_;
  std::vector<can::Frame>* sent_;
};

/// Node-side shim between an HPE and the controller it protects.
class NodeShim final : public can::FrameSink {
 public:
  NodeShim(SpanLog& log, std::uint32_t rx_span, std::uint32_t tx_span,
           can::FrameSink& next)
      : log_(log), rx_span_(rx_span), tx_span_(tx_span), next_(next) {}

  void on_frame(const can::Frame& frame, sim::SimTime at) override {
    log_.begin(rx_span_);
    next_.on_frame(frame, at);
    log_.end();
  }
  void on_transmit_complete(const can::Frame& frame, bool success,
                            sim::SimTime at) override {
    log_.begin(tx_span_);
    next_.on_transmit_complete(frame, success, at);
    log_.end();
  }

 private:
  SpanLog& log_;
  std::uint32_t rx_span_;
  std::uint32_t tx_span_;
  can::FrameSink& next_;
};

/// Stand-in for the wire under a replayed HPE: accepts every frame.
class NullChannel final : public can::Channel {
 public:
  bool submit(const can::Frame&) override { return true; }
  void set_sink(can::FrameSink*) override {}
  [[nodiscard]] bool busy() const override { return false; }
};

struct World {
  sim::Scheduler sched;
  sim::Trace trace{sim::TraceLevel::kSecurity};
  std::unique_ptr<car::Vehicle> vehicle;
};

car::VehicleConfig drive_config(std::uint64_t seed) {
  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  config.lock_hpes = true;
  config.seed = derive_seed(seed, 0xD51E);
  return config;
}

/// Runs the scheduler until simulated time `until`, one step at a time.
/// With a log, each step is a span. Returns host ns spent.
std::int64_t run_steps(sim::Scheduler& sched, sim::SimTime until,
                       SpanLog* log, std::uint32_t step_span) {
  bool stop = false;
  sched.schedule_at(until, [&stop] { stop = true; }, "perfbench.stop");
  const std::int64_t start = now_ns();
  if (log == nullptr) {
    while (!stop && sched.step()) {
    }
  } else {
    while (!stop) {
      log->begin(step_span);
      const bool stepped = sched.step();
      log->end();
      if (!stepped) break;
    }
  }
  return now_ns() - start;
}

void add_controller(Digest& digest, const can::ControllerStats& s) {
  for (const std::uint64_t v :
       {s.tx_queued, s.tx_sent, s.tx_retransmits, s.tx_dropped, s.rx_seen,
        s.rx_accepted, s.rx_filtered, s.rx_overflow, s.rx_quarantined,
        s.rx_wire_denied}) {
    digest.add(v);
  }
}

std::uint64_t hpe_decisions(const hpe::HpeStats& s) {
  return s.read_granted + s.read_blocked + s.write_granted + s.write_blocked;
}

}  // namespace

RunResult run_drive(const Options& options) {
  RunResult result;
  const car::VehicleConfig config = drive_config(options.seed);

  // Set-up: vehicle construction, repeated; the last build drives.
  std::unique_ptr<World> world;
  std::vector<double> builds;
  for (int i = 0; i < kSetupBuilds; ++i) {
    world.reset();
    world = std::make_unique<World>();
    const std::int64_t start = now_ns();
    world->vehicle =
        std::make_unique<car::Vehicle>(world->sched, config, &world->trace);
    builds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  sim::Scheduler& sched = world->sched;
  car::Vehicle& vehicle = *world->vehicle;
  const std::vector<std::string> nodes = vehicle.node_names();

  // Warm-up, excluded from timing.
  run_steps(sched, sched.now() + kWarmup, nullptr, 0);

  // Traced mode: interpose the shims now, between two events.
  SpanLog log;
  const std::uint32_t step_span = log.name("sim.step");
  const std::uint32_t hpe_rx = log.name("can.port_rx>hpe");
  const std::uint32_t hpe_tx = log.name("can.port_txdone>hpe");
  const std::uint32_t gw_rx = log.name("can.port_rx>gateway_ctrl");
  const std::uint32_t gw_tx = log.name("can.port_txdone>gateway_ctrl");
  const std::uint32_t ctrl_rx = log.name("hpe>ctrl_rx");
  const std::uint32_t ctrl_tx = log.name("hpe>ctrl_txdone");
  std::vector<std::unique_ptr<can::FrameSink>> shims;
  std::vector<std::vector<can::Frame>> sent(nodes.size());
  if (options.trace) {
    for (std::size_t p = 0; p < vehicle.bus().port_count(); ++p) {
      can::Port& port = vehicle.bus().port(p);
      if (port.name() == "gateway") {
        shims.push_back(std::make_unique<PortShim>(
            log, gw_rx, gw_tx, vehicle.gateway().controller(), nullptr));
        port.set_sink(shims.back().get());
        continue;
      }
      // Under the HPE regime every other port belongs to an engine.
      hpe::HardwarePolicyEngine* engine = vehicle.hpe(port.name());
      shims.push_back(std::make_unique<NodeShim>(
          log, ctrl_rx, ctrl_tx, vehicle.node(port.name())->controller()));
      engine->set_sink(shims.back().get());
      const std::size_t n = static_cast<std::size_t>(
          std::find(nodes.begin(), nodes.end(), port.name()) - nodes.begin());
      sent[n].reserve(1 << 16);
      shims.push_back(
          std::make_unique<PortShim>(log, hpe_rx, hpe_tx, *engine, &sent[n]));
      port.set_sink(shims.back().get());
    }
  }

  // Timed window.
  const std::uint64_t frames_before = vehicle.bus().frames_delivered();
  const std::uint64_t events_before = sched.executed();
  const std::size_t trace_before = world->trace.size();
  std::uint64_t decisions_before = 0;
  std::uint64_t blocked_before = 0;
  for (const auto& name : nodes) {
    decisions_before += hpe_decisions(vehicle.hpe(name)->stats());
    blocked_before += vehicle.hpe(name)->stats().total_blocked();
  }
  const std::int64_t timed_ns = run_steps(
      sched, sched.now() + kDrive, options.trace ? &log : nullptr, step_span);
  const auto frames =
      static_cast<double>(vehicle.bus().frames_delivered() - frames_before);

  // Digest of the simulated statistics, and the failure count.
  Digest digest;
  digest.add(vehicle.bus().frames_delivered());
  digest.add(vehicle.bus().frames_corrupted());
  digest.add(vehicle.bus().arbitration_rounds());
  digest.add(sched.executed());
  digest.add(world->trace.size());
  add_controller(digest, vehicle.gateway().controller().stats());
  std::uint64_t dropped = 0;
  std::uint64_t decisions = 0;
  std::uint64_t blocked = 0;
  std::uint64_t write_blocked = 0;
  for (const auto& name : nodes) {
    const can::ControllerStats& c = vehicle.node(name)->controller().stats();
    add_controller(digest, c);
    dropped += c.tx_dropped + c.rx_overflow;
    const hpe::HpeStats& h = vehicle.hpe(name)->stats();
    for (const std::uint64_t v : {h.read_granted, h.read_blocked,
                                  h.write_granted, h.write_blocked,
                                  h.mode_switches, h.tamper_attempts}) {
      digest.add(v);
    }
    decisions += hpe_decisions(h);
    blocked += h.total_blocked();
    write_blocked += h.write_blocked;
  }
  const can::ControllerStats& gw = vehicle.gateway().controller().stats();
  dropped += gw.tx_dropped + gw.rx_overflow;
  result.digest = digest.hex();
  result.attempted = vehicle.bus().frames_delivered();
  result.failed = dropped;
  if (write_blocked != 0) {
    result.problems.push_back("a legitimate node hit its HPE write filter");
  }
  if (!vehicle.ecu().active()) {
    result.problems.push_back("the EV-ECU was disabled during a clean drive");
  }

  result.set("host_ns_per_op", static_cast<double>(timed_ns) / frames);
  result.set("setup_s", median(builds));
  result.set("peak_rss_mb", peak_rss_mb());
  if (!options.trace) return result;

  // -- per-layer breakdown (traced run) --------------------------------
  const double step_total = static_cast<double>(log.total_ns(step_span));
  const double port_hpe_rx = static_cast<double>(log.total_ns(hpe_rx));
  const double fanout =
      port_hpe_rx + static_cast<double>(log.total_ns(hpe_tx) +
                                        log.total_ns(gw_rx) +
                                        log.total_ns(gw_tx));
  const double ctrl_node = static_cast<double>(
      log.total_ns(ctrl_rx) + log.total_ns(ctrl_tx) + log.total_ns(gw_rx) +
      log.total_ns(gw_tx));
  const double hpe_read_self =
      port_hpe_rx - static_cast<double>(log.total_ns(ctrl_rx));

  // Replayed: the HPE write filter over every frame each node sent in
  // the timed window, through a fresh engine with the node's config.
  car::BindingCompiler binding(vehicle.policy());
  NullChannel wire;
  double write_ns = 0.0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    hpe::HardwarePolicyEngine engine(wire, binding.build_hpe_config(nodes[n]),
                                     nodes[n]);
    std::uint64_t granted = 0;
    const std::int64_t start = now_ns();
    for (const can::Frame& frame : sent[n]) {
      granted += engine.submit(frame) ? 1 : 0;
    }
    write_ns += static_cast<double>(now_ns() - start);
    if (granted != sent[n].size()) {
      result.problems.push_back("replayed write filter refused a sent frame");
    }
  }

  // Replayed: Trace::record over this run's own entries.
  std::vector<sim::TraceEntry> entries = world->trace.entries();
  sim::Trace replay(sim::TraceLevel::kSecurity);
  const std::int64_t record_start = now_ns();
  for (sim::TraceEntry& e : entries) {
    replay.record(e.at, e.level, std::move(e.component), std::move(e.message));
  }
  const double record_ns = static_cast<double>(now_ns() - record_start);

  result.set("sim.events_per_frame",
             static_cast<double>(sched.executed() - events_before) / frames);
  result.set("sim.step_self_ns_per_frame", (step_total - fanout) / frames);
  result.set("sim.trace_entries_per_frame",
             static_cast<double>(world->trace.size() - trace_before) / frames);
  result.set("sim.trace_record_ns",
             entries.empty() ? 0.0
                             : record_ns / static_cast<double>(entries.size()));
  result.set("can.rx_fanout_ns_per_frame", fanout / frames);
  result.set("can.ctrl_node_ns_per_frame", ctrl_node / frames);
  result.set("hpe.read_self_ns_per_frame", hpe_read_self / frames);
  result.set("hpe.write_filter_ns_per_frame", write_ns / frames);
  result.set("hpe.decisions_per_frame",
             static_cast<double>(decisions - decisions_before) / frames);
  result.set("hpe.block_ratio",
             static_cast<double>(blocked - blocked_before) /
                 static_cast<double>(decisions - decisions_before));
  result.set("hpe.enforcement_share", (hpe_read_self + write_ns) / step_total);
  add_vehicle_build_metrics(result);

  if (!options.spans_path.empty() && !log.write(options.spans_path)) {
    result.problems.push_back("could not write spans to " + options.spans_path);
  }
  return result;
}

}  // namespace perfbench
