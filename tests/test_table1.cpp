// Tests pinning the connected-car threat model to the paper's Table I.
#include <gtest/gtest.h>

#include <algorithm>

#include "car/base_policy.h"
#include "car/ids.h"
#include "car/modes.h"
#include "car/table1.h"

namespace psme::car {
namespace {

TEST(Table1, HasSixteenRowsInPaperOrder) {
  const auto& rows = table1_rows();
  ASSERT_EQ(rows.size(), 16u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char expected[16];
    std::snprintf(expected, sizeof(expected), "T%02u",
                  static_cast<unsigned>(i + 1));
    EXPECT_EQ(rows[i].threat_id, expected);
  }
}

TEST(Table1, DreadStringsSelfConsistent) {
  // Every printed "(avg)" matches the recomputed mean of its 5-tuple;
  // DreadScore::parse throws otherwise, so parsing is the check.
  for (const auto& row : table1_rows()) {
    EXPECT_NO_THROW((void)threat::DreadScore::parse(row.dread)) << row.threat_id;
  }
}

TEST(Table1, ExactPaperValuesSpotChecks) {
  const auto& rows = table1_rows();
  // Row 1: ECU disablement, STD, 8,5,4,6,4 (5.4), policy R.
  EXPECT_EQ(rows[0].asset, asset::kEvEcu);
  EXPECT_EQ(rows[0].stride, "STD");
  EXPECT_EQ(rows[0].dread, "8,5,4,6,4 (5.4)");
  EXPECT_EQ(rows[0].policy, "R");
  // Row 9: modem disable, TDE, 6,6,7,8,6 (6.6), policy RW.
  EXPECT_EQ(rows[8].asset, asset::kConnectivity);
  EXPECT_EQ(rows[8].dread, "6,6,7,8,6 (6.6)");
  EXPECT_EQ(rows[8].policy, "RW");
  // Row 14: lock during accident — highest risk in the table (6.8), W.
  EXPECT_EQ(rows[13].dread, "8,6,7,8,5 (6.8)");
  EXPECT_EQ(rows[13].policy, "W");
  // Row 5 uses the "Any node" entry point.
  EXPECT_EQ(rows[4].entry_points, std::vector<std::string>{entry::kAnyNode});
}

TEST(Table1, ThreatModelBuildsAndValidates) {
  const auto model = connected_car_threat_model();
  EXPECT_EQ(model.use_case(), "connected-car");
  EXPECT_EQ(model.threats().size(), 16u);
  EXPECT_EQ(model.assets().size(), 8u);       // 7 critical + sensors
  EXPECT_EQ(model.modes().size(), 3u);
}

TEST(Table1, HighestRiskIsLockDuringAccident) {
  const auto model = connected_car_threat_model();
  ASSERT_NE(model.highest_risk(), nullptr);
  EXPECT_EQ(model.highest_risk()->id.value, "T14");
  EXPECT_DOUBLE_EQ(model.highest_risk()->dread.average(), 6.8);
}

TEST(Table1, MeanRiskMatchesPaperAverages) {
  // Mean of the sixteen printed averages.
  const auto model = connected_car_threat_model();
  double expected = 0.0;
  for (const auto& row : table1_rows()) {
    expected += threat::DreadScore::parse(row.dread).average();
  }
  expected /= 16.0;
  EXPECT_NEAR(model.mean_risk(), expected, 1e-9);
}

TEST(Table1, EveryThreatHasPolicyCountermeasure) {
  const auto model = connected_car_threat_model();
  for (const auto& t : model.threats()) {
    ASSERT_FALSE(t.countermeasures.empty()) << t.id.value;
    EXPECT_EQ(t.countermeasures[0].kind, threat::CountermeasureKind::kPolicy);
    EXPECT_NE(t.recommended_policy, threat::Permission::kNone) << t.id.value;
  }
}

TEST(Table1, StrideDistributionMatchesPaper) {
  // Aggregate category counts across the sixteen rows (computed by hand
  // from the printed table).
  const auto model = connected_car_threat_model();
  int spoofing = 0, tampering = 0, repudiation = 0, info = 0, dos = 0, eop = 0;
  for (const auto& t : model.threats()) {
    if (t.stride.contains(threat::Stride::kSpoofing)) ++spoofing;
    if (t.stride.contains(threat::Stride::kTampering)) ++tampering;
    if (t.stride.contains(threat::Stride::kRepudiation)) ++repudiation;
    if (t.stride.contains(threat::Stride::kInformationDisclosure)) ++info;
    if (t.stride.contains(threat::Stride::kDenialOfService)) ++dos;
    if (t.stride.contains(threat::Stride::kElevationOfPrivilege)) ++eop;
  }
  EXPECT_EQ(spoofing, 10);
  EXPECT_EQ(tampering, 15);
  EXPECT_EQ(repudiation, 1);
  EXPECT_EQ(info, 2);
  EXPECT_EQ(dos, 10);
  EXPECT_EQ(eop, 10);
}

TEST(Table1, ThreatCountsPerAssetAndEntryPoint) {
  const auto model = connected_car_threat_model();
  // Rows T01-T04 target the EV ECU; no row targets the sensors.
  EXPECT_EQ(model.threats_for_asset(threat::AssetId{asset::kEvEcu}).size(), 4u);
  EXPECT_TRUE(
      model.threats_for_asset(threat::AssetId{asset::kSensors}).empty());
  // Seven rows cite the sensors, more than cite any other entry point.
  EXPECT_EQ(
      model.threats_via_entry_point(threat::EntryPointId{entry::kSensors})
          .size(),
      7u);
  for (const threat::EntryPoint& ep : model.entry_points()) {
    EXPECT_LE(model.threats_via_entry_point(ep.id).size(), 7u) << ep.name;
  }
  // Six rows (T03, T04, T08, T11, T13, T14) cite a remote entry point.
  std::size_t remote_rows = 0;
  for (const threat::Threat& t : model.threats()) {
    remote_rows += std::any_of(
        t.entry_points.begin(), t.entry_points.end(),
        [&](const threat::EntryPointId& id) {
          const threat::EntryPoint* ep = model.find_entry_point(id);
          return ep != nullptr && ep->remote;
        });
  }
  EXPECT_EQ(remote_rows, 6u);
}

TEST(Modes, RoundTripConversions) {
  for (CarMode m : kAllModes) {
    EXPECT_EQ(mode_from_id(mode_id(m)), m);
  }
  EXPECT_THROW((void)mode_from_id(threat::ModeId{"warp"}), std::invalid_argument);
}

TEST(Ids, AssetBindingsCoverEveryTable1Asset) {
  for (const auto& row : table1_rows()) {
    EXPECT_NE(find_asset_binding(row.asset), nullptr) << row.asset;
  }
  EXPECT_EQ(find_asset_binding("nope"), nullptr);
}

TEST(Ids, NodeBindingsKnowAllVehicleNodes) {
  for (const char* node : {"ecu", "eps", "engine", "sensors", "doors",
                           "safety", "connectivity", "infotainment"}) {
    EXPECT_FALSE(entry_points_of(node).empty()) << node;
  }
  EXPECT_TRUE(entry_points_of("ghost").empty());
}

TEST(Ids, CommandAndStatusIdsDisjoint) {
  for (const auto& binding : asset_bindings()) {
    for (const auto cmd : binding.command_ids) {
      for (const auto status : binding.status_ids) {
        EXPECT_NE(cmd, status) << binding.asset_id;
      }
    }
  }
}

TEST(BasePolicy, GrantsFunctionalTraffic) {
  const auto base = base_policy();
  core::AccessRequest req;
  req.subject = entry::kEvEcu;
  req.object = asset::kEngine;
  req.access = core::AccessType::kWrite;
  req.mode = mode_id(CarMode::kNormal);
  EXPECT_TRUE(base.evaluate(req).allowed) << "torque demand must be allowed";

  req.subject = entry::kInfotainment;
  req.object = asset::kSensors;
  req.access = core::AccessType::kRead;
  EXPECT_TRUE(base.evaluate(req).allowed) << "speed display must be allowed";
}

TEST(FullPolicy, Table1RestrictionsDominateBaseGrants) {
  const auto policy = full_policy(connected_car_threat_model());

  // T01: door locks restricted to R of EV-ECU in normal mode...
  core::AccessRequest req;
  req.subject = entry::kDoorLocks;
  req.object = asset::kEvEcu;
  req.access = core::AccessType::kWrite;
  req.mode = mode_id(CarMode::kNormal);
  EXPECT_FALSE(policy.evaluate(req).allowed);
  // ...but the fail-safe immobilisation grant (B03) survives.
  req.mode = mode_id(CarMode::kFailSafe);
  EXPECT_TRUE(policy.evaluate(req).allowed);

  // T05: nobody may write the EPS in normal mode, not even the ECU.
  req.subject = entry::kEvEcu;
  req.object = asset::kEps;
  req.mode = mode_id(CarMode::kNormal);
  EXPECT_FALSE(policy.evaluate(req).allowed);
  // Remote diagnostics may (B12).
  req.subject = entry::kConnectivity;
  req.mode = mode_id(CarMode::kRemoteDiagnostic);
  EXPECT_TRUE(policy.evaluate(req).allowed);

  // T03: connectivity keeps RW on the EV-ECU in normal mode.
  req.subject = entry::kConnectivity;
  req.object = asset::kEvEcu;
  req.mode = mode_id(CarMode::kNormal);
  EXPECT_TRUE(policy.evaluate(req).allowed);
  // T04: but only R in fail-safe (no reactivation after immobilisation).
  req.mode = mode_id(CarMode::kFailSafe);
  EXPECT_FALSE(policy.evaluate(req).allowed);
  req.access = core::AccessType::kRead;
  EXPECT_TRUE(policy.evaluate(req).allowed);
}

TEST(FullPolicy, SensorsAreReadableByEveryone) {
  const auto policy = full_policy(connected_car_threat_model());
  for (const char* subject :
       {entry::kEvEcu.c_str(), entry::kInfotainment.c_str(), "anything"}) {
    core::AccessRequest req;
    req.subject = subject;
    req.object = asset::kSensors;
    req.access = core::AccessType::kRead;
    req.mode = mode_id(CarMode::kNormal);
    EXPECT_TRUE(policy.evaluate(req).allowed) << subject;
  }
}

}  // namespace
}  // namespace psme::car
