//===- tests/BenchSerializationTest.cpp - bench report round trips --------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "flywheel/Flywheel.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

flywheel::FlywheelReport sampleFlywheelReport() {
  flywheel::FlywheelReport Report;
  Report.Options.Targets = {"RISCV", "RI5CY"};
  Report.Options.Generations = 2;
  Report.Options.Seed = 7;
  Report.GenerationsRun = 2;
  Report.GenerationsResumed = 1;
  Report.TotalPairsAdded = 42;

  flywheel::GenerationStats Baseline;
  Baseline.Generation = 0;
  Baseline.Pass1 = 0.625;
  Baseline.GreedyPass1 = 0.5;
  Baseline.RepairReliance = 0.2;
  flywheel::TargetGenStats T;
  T.Target = "RISCV";
  T.Functions = 40;
  T.GreedyAccurate = 20;
  T.Accurate = 25;
  T.FunctionsFlagged = 12;
  T.FunctionsRepaired = 5;
  T.StatementsAutoRepaired = 13;
  T.GreedyPass1 = 0.5;
  T.Pass1 = 0.625;
  T.StatementAccuracy = 0.75;
  T.ErrVRate = 0.01;
  T.DivValRate = 0.02;
  Baseline.Targets.push_back(T);
  Report.Generations.push_back(Baseline);

  flywheel::GenerationStats Gen = Baseline;
  Gen.Generation = 1;
  Gen.Pass1 = 0.675;
  Gen.RepairReliance = 0.15;
  Gen.Accepted = false;
  Gen.HarvestedPositives = 30;
  Gen.HarvestedNegatives = 18;
  Gen.PairsAdded = 42;
  Gen.PairsDeduped = 5;
  Gen.PairsSkippedOov = 1;
  Gen.TrainMeanLoss = 0.0875;
  Report.Generations.push_back(Gen);
  return Report;
}

} // namespace

TEST(BenchSerialization, FlywheelReportJsonRoundTripsByteForByte) {
  // The "vega-flywheel-1" rendering backs the CLI --json payload, the
  // resume artifacts, and the bench section — the round trip must be exact
  // down to the bytes or resume byte-identity is unprovable.
  flywheel::FlywheelReport Report = sampleFlywheelReport();
  Json Doc = flywheel::reportToJson(Report);
  EXPECT_EQ(Doc.getString("schema"), "vega-flywheel-1");
  StatusOr<flywheel::FlywheelReport> Back = flywheel::reportFromJson(Doc);
  ASSERT_TRUE(Back.isOk()) << Back.status().toString();
  EXPECT_EQ(flywheel::reportToJson(*Back).dump(2), Doc.dump(2));
  EXPECT_EQ(Back->TotalPairsAdded, 42u);
  EXPECT_EQ(Back->GenerationsResumed, 1);
  ASSERT_EQ(Back->Generations.size(), 2u);
  EXPECT_FALSE(Back->Generations[1].Accepted);
  ASSERT_EQ(Back->Generations[1].Targets.size(), 1u);
  EXPECT_EQ(Back->Generations[1].Targets[0].Target, "RISCV");
  EXPECT_EQ(Back->Generations[1].Targets[0].StatementsAutoRepaired, 13u);

  // The per-generation rendering round-trips independently (it is the
  // resume artifact payload).
  Json GenDoc = flywheel::generationToJson(Report.Generations[1]);
  StatusOr<flywheel::GenerationStats> GenBack =
      flywheel::generationFromJson(GenDoc);
  ASSERT_TRUE(GenBack.isOk()) << GenBack.status().toString();
  EXPECT_EQ(flywheel::generationToJson(*GenBack).dump(2), GenDoc.dump(2));
}
