// Concurrency tests for the parallel-fleet-sweep PR: tick_parallel(k)
// parity with the sequential tick() (byte-identical decision streams and
// per-vehicle telemetry for k in {1, 2, 8}, including mid-sweep mode
// scatter), seqlock-protected AVC shared reads (correctness against the
// db truth, generation bypass across reloads), TSan torture tests (N
// reader threads hammering query_shared / evaluate_batch_allowed_shared
// while one writer reloads the policy and the owner keeps filling the
// cache through query / evaluate), the relaxed PolicySet const-evaluation
// pin, the documented empty-required-set rejection of Avc::allowed, and
// the DenyStreakMonitor fleet telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "mac/avc.h"
#include "mac/mac_engine.h"
#include "mac/te_policy.h"
#include "monitor/anomaly.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::Decision;
using core::SidRequest;

// ----------------------------------------------------------- tick_parallel

struct FleetFixture {
  threat::ThreatModel model = car::connected_car_threat_model();
  core::PolicySet policy = car::full_policy(model);
  const core::CompiledPolicyImage& image = policy.image();
};

/// Deterministically scatters modes so every shard sees a mode mix.
void scatter_modes(car::FleetEvaluator& fleet, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::size_t v = 0; v < fleet.fleet_size(); ++v) {
    const std::uint64_t draw = rng.uniform(0, 9);
    if (draw == 8) {
      fleet.set_mode(v, car::CarMode::kRemoteDiagnostic);
    } else if (draw == 9) {
      fleet.set_mode(v, car::CarMode::kFailSafe);
    }
  }
}

struct CapturedSweep {
  std::vector<SidRequest> requests;
  std::vector<Decision> decisions;
  car::FleetTickStats stats;
  std::vector<std::uint32_t> vehicle_denied;
};

CapturedSweep capture(car::FleetEvaluator& fleet, std::size_t n_threads) {
  CapturedSweep sweep;
  const auto sink = [&](std::span<const SidRequest> requests,
                        std::span<const Decision> decisions) {
    sweep.requests.insert(sweep.requests.end(), requests.begin(),
                          requests.end());
    sweep.decisions.insert(sweep.decisions.end(), decisions.begin(),
                           decisions.end());
  };
  sweep.stats = n_threads == 0 ? fleet.tick(sink)
                               : fleet.tick_parallel(n_threads, sink);
  sweep.vehicle_denied.assign(sweep.stats.vehicle_denied.begin(),
                              sweep.stats.vehicle_denied.end());
  return sweep;
}

void expect_byte_identical(const CapturedSweep& expected,
                           const CapturedSweep& actual, std::size_t k) {
  ASSERT_EQ(expected.decisions.size(), actual.decisions.size()) << "k=" << k;
  ASSERT_EQ(expected.requests.size(), actual.requests.size()) << "k=" << k;
  for (std::size_t i = 0; i < expected.decisions.size(); ++i) {
    ASSERT_EQ(expected.requests[i].subject, actual.requests[i].subject)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.requests[i].object, actual.requests[i].object)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.requests[i].mode, actual.requests[i].mode)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].allowed, actual.decisions[i].allowed)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].rule_id, actual.decisions[i].rule_id)
        << "k=" << k << " i=" << i;
    ASSERT_EQ(expected.decisions[i].reason, actual.decisions[i].reason)
        << "k=" << k << " i=" << i;
  }
  EXPECT_EQ(expected.stats.decisions, actual.stats.decisions);
  EXPECT_EQ(expected.stats.allowed, actual.stats.allowed);
  EXPECT_EQ(expected.stats.denied, actual.stats.denied);
  EXPECT_EQ(expected.vehicle_denied, actual.vehicle_denied);
}

TEST(TickParallel, ByteIdenticalToSequentialTickAcrossThreadCounts) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 257;  // deliberately not a multiple of any k
  options.batch_chunk = 100;  // forces chunk boundaries inside vehicles
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 7);

  const CapturedSweep sequential = capture(fleet, 0);
  EXPECT_EQ(sequential.stats.decisions,
            options.fleet_size * fleet.checks_per_vehicle());
  EXPECT_GT(sequential.stats.denied, 0u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const CapturedSweep parallel = capture(fleet, k);
    expect_byte_identical(sequential, parallel, k);
  }
}

TEST(TickParallel, PersistentPoolSurvivesRepeatedTicksAndCountChanges) {
  // The worker pool is persistent: ticks at a constant k reuse the same
  // parked threads (no spawn per tick), a k change rebuilds the pool, and
  // every configuration stays byte-identical to the sequential sweep.
  // Destruction with a live parked pool (end of scope) must join cleanly.
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 61;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 11);

  const CapturedSweep sequential = capture(fleet, 0);
  for (const std::size_t k :
       {std::size_t{2}, std::size_t{2}, std::size_t{2},  // pool reused
        std::size_t{8},                                  // pool rebuilt
        std::size_t{1},                                  // pool parked, inline
        std::size_t{2}}) {                               // pool rebuilt again
    const CapturedSweep parallel = capture(fleet, k);
    expect_byte_identical(sequential, parallel, k);
  }
}

TEST(TickParallel, ParityHoldsAcrossMidSweepModeChanges) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 97;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);

  // Interleave per-vehicle mode changes between sweeps (the simulation's
  // tick loop): parity must hold at every step, for every thread count.
  sim::Rng rng(2026);
  for (int round = 0; round < 3; ++round) {
    for (int change = 0; change < 7; ++change) {
      const auto vehicle =
          static_cast<std::size_t>(rng.uniform(0, options.fleet_size - 1));
      const std::uint64_t draw = rng.uniform(0, 2);
      fleet.set_mode(vehicle, draw == 0   ? car::CarMode::kNormal
                              : draw == 1 ? car::CarMode::kRemoteDiagnostic
                                          : car::CarMode::kFailSafe);
    }
    const CapturedSweep sequential = capture(fleet, 0);
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const CapturedSweep parallel = capture(fleet, k);
      expect_byte_identical(sequential, parallel, k);
    }
  }
}

TEST(TickParallel, CountingPathMatchesCapturePathAndClampsThreads) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 13;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 3);

  const car::FleetTickStats expected = fleet.tick();
  const std::vector<std::uint32_t> expected_denied(
      expected.vehicle_denied.begin(), expected.vehicle_denied.end());

  // More threads than vehicles: clamped, still correct.
  const car::FleetTickStats stats = fleet.tick_parallel(64);
  EXPECT_EQ(expected.decisions, stats.decisions);
  EXPECT_EQ(expected.allowed, stats.allowed);
  EXPECT_EQ(expected.denied, stats.denied);
  EXPECT_EQ(expected_denied,
            std::vector<std::uint32_t>(stats.vehicle_denied.begin(),
                                       stats.vehicle_denied.end()));

  EXPECT_THROW((void)fleet.tick_parallel(0), std::invalid_argument);
}

TEST(TickParallel, PerVehicleDenyCountsSumToTotal) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 50;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);
  scatter_modes(fleet, 11);

  const car::FleetTickStats stats = fleet.tick_parallel(4);
  ASSERT_EQ(stats.vehicle_denied.size(), options.fleet_size);
  std::uint64_t sum = 0;
  for (const std::uint32_t denies : stats.vehicle_denied) sum += denies;
  EXPECT_EQ(stats.denied, sum);
}

// ------------------------------------------------------- AVC shared reads

mac::PolicyDb make_db(std::uint64_t seqno,
                      std::shared_ptr<mac::SidTable> sids,
                      bool widen = false) {
  mac::PolicyDbBuilder builder;
  builder.add_class("asset", {"read", "write"});
  builder.add_type("app_t");
  builder.add_type("asset_t");
  builder.add_type("diag_t");
  builder.allow({"app_t", "asset_t", "asset", {"read"}});
  if (widen) {
    builder.allow({"diag_t", "asset_t", "asset", {"read", "write"}});
  }
  return builder.build(seqno, std::move(sids));
}

TEST(AvcSharedRead, AnswersMatchOwnerPathAndDbTruth) {
  auto sids = std::make_shared<mac::SidTable>();
  const mac::PolicyDb db = make_db(1, sids);
  const mac::Sid app = sids->find("app_t");
  const mac::Sid asset = sids->find("asset_t");
  const mac::Sid diag = sids->find("diag_t");
  const mac::Sid cls = db.find_class(std::string_view("asset"))->sid;

  mac::Avc avc(64);
  // Owner fills the cache; shared probes must then serve the same AVs.
  const mac::AccessVector owner_app = avc.query(db, app, asset, cls);
  const mac::AccessVector owner_diag = avc.query(db, diag, asset, cls);
  EXPECT_EQ(owner_app, avc.query_shared(db, app, asset, cls));
  EXPECT_EQ(owner_diag, avc.query_shared(db, diag, asset, cls));
  EXPECT_GE(avc.shared_stats().hits, 2u);

  // A key the owner never cached: shared read falls through to the db
  // (a shared miss) without filling a slot.
  const std::size_t size_before = avc.size();
  EXPECT_EQ(db.lookup(asset, app, cls), avc.query_shared(db, asset, app, cls));
  EXPECT_EQ(size_before, avc.size());
  EXPECT_GE(avc.shared_stats().misses, 1u);
}

TEST(AvcSharedRead, BypassesEntriesFromAnotherPolicyGeneration) {
  auto sids = std::make_shared<mac::SidTable>();
  const mac::PolicyDb narrow = make_db(1, sids);
  const mac::PolicyDb wide = make_db(2, sids, /*widen=*/true);
  const mac::Sid diag = sids->find("diag_t");
  const mac::Sid asset = sids->find("asset_t");
  const mac::Sid cls = narrow.find_class(std::string_view("asset"))->sid;

  mac::Avc avc(64);
  // Owner cached the NARROW generation: diag -> asset answers 0.
  EXPECT_EQ(0u, avc.query(narrow, diag, asset, cls));
  // A shared reader holding the WIDE generation must not be served the
  // stale cached zero — the seqno filter bypasses to its own db.
  EXPECT_NE(0u, avc.query_shared(wide, diag, asset, cls));
}

TEST(AvcAllowed, EmptyRequiredSetIsDenied) {
  auto sids = std::make_shared<mac::SidTable>();
  const mac::PolicyDb db = make_db(1, sids);
  const mac::Sid app = sids->find("app_t");
  const mac::Sid asset = sids->find("asset_t");
  const mac::Sid cls = db.find_class(std::string_view("asset"))->sid;

  mac::Avc avc(64);
  // The pair has a real grant...
  EXPECT_NE(0u, avc.query(db, app, asset, cls));
  // ...but an EMPTY required set is a malformed query and is rejected,
  // never trivially satisfied (header contract; matches PolicyDb).
  EXPECT_FALSE(avc.allowed(db, app, asset, cls, 0));
  EXPECT_FALSE(db.allowed(app, asset, cls, 0));
  // An unknown permission name takes the same deny path in the shim.
  EXPECT_FALSE(avc.allowed(db, "app_t", "asset_t", "asset", "no_such_perm"));
}

// ------------------------------------------------------------ torture test

mac::PolicyModule torture_module() {
  mac::PolicyModule module;
  module.name = "torture";
  module.types = {"app_t", "asset_t", "diag_t"};
  module.allows = {{"app_t", "asset_t", "asset", {"read"}}};
  module.booleans = {{"diagnostics", false}};
  module.conditional_allows = {
      {"diagnostics", true, {"diag_t", "asset_t", "asset", {"read", "write"}}}};
  return module;
}

// N reader threads hammer evaluate_batch_allowed_shared while the one
// writer thread keeps reloading the policy (boolean toggles — each
// rebuild bumps the db seqno) and filling the AVC through evaluate(). Run
// under ThreadSanitizer in CI (PSME_SANITIZE=thread); beyond the absence
// of data races, every call's verdicts must come from ONE policy
// generation.
TEST(ConcurrencyTorture, SharedBatchReadersSurvivePolicyReloads) {
  mac::MacEngine engine(64);
  engine.label("app", mac::SecurityContext("system", "object", "app_t"));
  engine.label("asset", mac::SecurityContext("system", "object", "asset_t"));
  engine.label("diag", mac::SecurityContext("system", "object", "diag_t"));
  engine.load_module(torture_module());

  // Pre-resolve every identity before the readers start (the label map
  // and interner are then read-only; single-writer rule). Order: app,
  // diag, asset subjects, each read then write.
  std::vector<core::AccessRequest> labelled;
  std::vector<SidRequest> requests;
  for (const char* subject : {"app", "diag", "asset"}) {
    for (const core::AccessType access :
         {core::AccessType::kRead, core::AccessType::kWrite}) {
      labelled.push_back(core::AccessRequest{subject, "asset", access, {}});
      requests.push_back(engine.resolve(labelled.back()));
    }
  }

  constexpr int kReaders = 4;
  constexpr int kReaderIterations = 400;
  constexpr int kWriterReloads = 60;
  std::atomic<bool> start{false};
  std::atomic<std::uint64_t> torn{0};

  auto reader = [&] {
    while (!start.load(std::memory_order_acquire)) {}
    std::vector<std::uint8_t> out(requests.size());
    for (int i = 0; i < kReaderIterations; ++i) {
      engine.evaluate_batch_allowed_shared(requests, out);
      // Whatever the generation: app reads, never writes; asset gets
      // nothing; diag's read and write flip together with the boolean,
      // so a call that mixed two generations would split them.
      const bool fixed = out[0] == 1 && out[1] == 0 && out[4] == 0 &&
                         out[5] == 0;
      if (!fixed || out[2] != out[3]) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader);
  start.store(true, std::memory_order_release);

  // The writer: policy reloads (seqno bumps + AVC flushes) interleaved
  // with owner queries that keep refilling the cache the readers probe.
  for (int i = 0; i < kWriterReloads; ++i) {
    engine.set_boolean("diagnostics", i % 2 == 1);
    for (const core::AccessRequest& request : labelled) {
      (void)engine.evaluate(request);
    }
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0u, torn.load());

  // Readers really exercised the shared path.
  const mac::AvcStats shared = engine.avc_shared_stats();
  EXPECT_EQ(shared.hits + shared.misses,
            static_cast<std::uint64_t>(kReaders) * kReaderIterations *
                requests.size());
}

// Same shape one layer down: readers hammer Avc::query_shared directly
// while the owner alternates flushes and refills on one db.
TEST(ConcurrencyTorture, AvcSharedBatchSurvivesOwnerFillsAndFlushes) {
  auto sids = std::make_shared<mac::SidTable>();
  const mac::PolicyDb db = make_db(1, sids);
  const mac::Sid app = sids->find("app_t");
  const mac::Sid asset = sids->find("asset_t");
  const mac::Sid diag = sids->find("diag_t");
  const mac::Sid cls = db.find_class(std::string_view("asset"))->sid;
  const mac::AccessVector truth_app = db.lookup(app, asset, cls);
  const mac::AccessVector truth_diag = db.lookup(diag, asset, cls);

  mac::Avc avc(4);  // tiny: owner fills constantly evict
  const std::uint64_t keys[] = {
      mac::pack_av_key(app, asset, cls), mac::pack_av_key(diag, asset, cls),
      mac::pack_av_key(asset, app, cls), mac::pack_av_key(app, diag, cls)};

  constexpr int kReaders = 4;
  constexpr int kIterations = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};

  auto reader = [&] {
    mac::AccessVector out[4] = {};
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t k = 0; k < 4; ++k) {
        const mac::AvKeyParts parts = mac::unpack_av_key(keys[k]);
        out[k] = avc.query_shared(db, parts.source, parts.target, parts.cls);
      }
      // One generation, one db: every answer must equal the db truth.
      if (out[0] != truth_app || out[1] != truth_diag || out[2] != 0 ||
          out[3] != 0) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader);
  for (int i = 0; i < kIterations; ++i) {
    for (const std::uint64_t key : keys) {
      const mac::AvKeyParts parts = mac::unpack_av_key(key);
      (void)avc.query(db, parts.source, parts.target, parts.cls);
    }
    if (i % 64 == 0) avc.flush();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0u, wrong.load());
}

// Shared misses under owner traffic: readers sweep 600 keys through
// query_shared against a tiny AVC whose owner keeps refilling it through
// query() and flushing it — so shared probes race live fills and
// recycles constantly. Readers are split across two policy generations;
// because the seqno filter routes every foreign-generation probe to the
// reader's own db, every answer must equal that reader's db truth,
// whatever the cache held. Run under ThreadSanitizer in CI
// (PSME_SANITIZE=thread).
TEST(ConcurrencyTorture, StagedSharedMissWavesSurviveConcurrentOwnerTraffic) {
  auto sids = std::make_shared<mac::SidTable>();
  const mac::PolicyDb narrow = make_db(1, sids);
  const mac::PolicyDb wide = make_db(2, sids, /*widen=*/true);
  const mac::Sid cls = narrow.find_class(std::string_view("asset"))->sid;

  // 600 keys over a sid range far wider than the real types: most answer
  // 0, a few hit the allow rules, and an 8-entry AVC can never hold more
  // than a sliver of them — every sweep takes real shared misses.
  sim::Rng rng(606);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 600; ++i) {
    keys.push_back(mac::pack_av_key(static_cast<mac::Sid>(rng.uniform(1, 24)),
                                    static_cast<mac::Sid>(rng.uniform(1, 24)),
                                    cls));
  }
  const auto truth_for = [&](const mac::PolicyDb& db) {
    std::vector<mac::AccessVector> truth(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const mac::AvKeyParts parts = mac::unpack_av_key(keys[i]);
      truth[i] = db.lookup(parts.source, parts.target, parts.cls);
    }
    return truth;
  };
  const std::vector<mac::AccessVector> narrow_truth = truth_for(narrow);
  const std::vector<mac::AccessVector> wide_truth = truth_for(wide);

  mac::Avc avc(8);
  constexpr int kReaders = 4;
  constexpr int kIterations = 200;
  std::atomic<bool> start{false};
  std::atomic<std::uint64_t> wrong{0};

  auto reader = [&](const mac::PolicyDb& db,
                    const std::vector<mac::AccessVector>& truth) {
    while (!start.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kIterations; ++i) {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const mac::AvKeyParts parts = mac::unpack_av_key(keys[k]);
        if (avc.query_shared(db, parts.source, parts.target, parts.cls) !=
            truth[k]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    const bool use_wide = r % 2 == 1;
    readers.emplace_back(reader, std::cref(use_wide ? wide : narrow),
                         std::cref(use_wide ? wide_truth : narrow_truth));
  }
  start.store(true, std::memory_order_release);

  // The owner: fills from the NARROW generation (so the wide-generation
  // readers exercise the bypass on every probe), punctuated by flushes
  // that recycle every slot mid-sweep.
  for (int i = 0; i < 120; ++i) {
    for (const std::uint64_t key : keys) {
      const mac::AvKeyParts parts = mac::unpack_av_key(key);
      (void)avc.query(narrow, parts.source, parts.target, parts.cls);
    }
    if (i % 8 == 0) avc.flush();
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0u, wrong.load());

  // Every shared query was tallied exactly once.
  const mac::AvcStats shared = avc.shared_stats();
  EXPECT_EQ(shared.hits + shared.misses,
            static_cast<std::uint64_t>(kReaders) * kIterations * keys.size());
}

// --------------------------------------------- PolicySet pin relaxation

TEST(PolicySetConcurrency, ConstEvaluationOverBuiltImageIsMultiThreaded) {
  FleetFixture fixture;
  // The image is compiled HERE, on this thread, before any reader
  // starts — the relaxed pin applies only to the compile.
  (void)fixture.policy.image();

  const core::AccessRequest request{"telematics_unit", "vehicle_can_data",
                                    core::AccessType::kRead, {}};
  const Decision expected = fixture.policy.evaluate(request);

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const Decision decision = fixture.policy.evaluate(request);
        if (decision.allowed != expected.allowed ||
            decision.rule_id != expected.rule_id ||
            decision.reason != expected.reason) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0u, mismatches.load());
}

// ------------------------------------------------------ deny-streak feed

TEST(DenyStreakMonitor, FlagsOnlyPersistentDenyStreaks) {
  monitor::DenyStreakOptions options;
  options.deny_threshold = 2;
  options.streak_ticks = 3;
  monitor::DenyStreakMonitor streaks(4, options);

  // Vehicle 1 denies persistently; vehicle 2 bursts then recovers.
  const std::uint32_t tick1[] = {0, 5, 9, 1};
  const std::uint32_t tick2[] = {0, 4, 0, 1};
  const std::uint32_t tick3[] = {0, 6, 8, 1};
  streaks.observe_tick(tick1);
  streaks.observe_tick(tick2);
  EXPECT_TRUE(streaks.flagged().empty());
  streaks.observe_tick(tick3);

  ASSERT_EQ(1u, streaks.flagged().size());
  EXPECT_EQ(1u, streaks.flagged()[0]);
  EXPECT_EQ(3u, streaks.streak(1));
  EXPECT_EQ(1u, streaks.streak(2));  // reset by tick2, restarted by tick3
  EXPECT_EQ(0u, streaks.streak(3));  // below threshold throughout
  EXPECT_EQ(3u, streaks.ticks_observed());

  // Flagging is sticky and emitted once.
  streaks.observe_tick(tick3);
  EXPECT_EQ(1u, streaks.flagged().size());

  streaks.reset();
  EXPECT_TRUE(streaks.flagged().empty());
  EXPECT_EQ(0u, streaks.streak(1));
}

TEST(DenyStreakMonitor, HealthyFractionIsAnO1CohortSummary) {
  monitor::DenyStreakOptions options;
  options.deny_threshold = 1;
  options.streak_ticks = 2;
  monitor::DenyStreakMonitor streaks(8, options);
  EXPECT_EQ(1.0, streaks.healthy_fraction());  // before any tick

  // Vehicles 2 and 5 deny persistently; everyone else is quiet.
  const std::uint32_t tick[] = {0, 0, 3, 0, 0, 7, 0, 0};
  streaks.observe_tick(tick);
  EXPECT_EQ(1.0, streaks.healthy_fraction());  // streaks open, no flags yet
  streaks.observe_tick(tick);
  EXPECT_EQ(2u, streaks.flagged().size());
  EXPECT_DOUBLE_EQ(0.75, streaks.healthy_fraction());  // 6 of 8 healthy

  // Sticky flags: recovery ticks do not raise the fraction...
  const std::uint32_t quiet[] = {0, 0, 0, 0, 0, 0, 0, 0};
  streaks.observe_tick(quiet);
  EXPECT_DOUBLE_EQ(0.75, streaks.healthy_fraction());
  // ...only reset() does (the campaign gate's window-open semantics).
  streaks.reset();
  EXPECT_EQ(1.0, streaks.healthy_fraction());
}

TEST(DenyStreakMonitor, ValidatesArguments) {
  EXPECT_THROW(monitor::DenyStreakMonitor(0), std::invalid_argument);
  monitor::DenyStreakOptions zero_threshold;
  zero_threshold.deny_threshold = 0;
  EXPECT_THROW(monitor::DenyStreakMonitor(4, zero_threshold),
               std::invalid_argument);
  monitor::DenyStreakOptions zero_streak;
  zero_streak.streak_ticks = 0;
  EXPECT_THROW(monitor::DenyStreakMonitor(4, zero_streak),
               std::invalid_argument);

  monitor::DenyStreakMonitor streaks(4);
  const std::uint32_t wrong_size[] = {1, 2};
  EXPECT_THROW(streaks.observe_tick(wrong_size), std::invalid_argument);
}

TEST(DenyStreakMonitor, ConsumesFleetEvaluatorTelemetry) {
  FleetFixture fixture;
  car::FleetEvaluatorOptions options;
  options.fleet_size = 20;
  car::FleetEvaluator fleet(fixture.image, car::default_fleet_checks(),
                            options);

  // Calibrate: normal-mode background denies, then wedge one vehicle
  // into fail-safe (strictly more denials) and watch it flag after three
  // consecutive sweeps — through the PARALLEL path.
  const car::FleetTickStats baseline = fleet.tick_parallel(2);
  const std::uint32_t background = baseline.vehicle_denied[0];
  car::FleetTickStats wedged_probe = baseline;
  fleet.set_mode(7, car::CarMode::kFailSafe);
  wedged_probe = fleet.tick_parallel(2);
  ASSERT_GT(wedged_probe.vehicle_denied[7], background)
      << "fixture assumption: fail-safe denies more than normal";

  monitor::DenyStreakOptions streak_options;
  streak_options.deny_threshold = background + 1;
  streak_options.streak_ticks = 3;
  monitor::DenyStreakMonitor streaks(options.fleet_size, streak_options);
  for (int i = 0; i < 3; ++i) {
    streaks.observe_tick(fleet.tick_parallel(2).vehicle_denied);
  }
  ASSERT_EQ(1u, streaks.flagged().size());
  EXPECT_EQ(7u, streaks.flagged()[0]);
}

}  // namespace
}  // namespace psme
