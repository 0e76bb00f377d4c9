//===- tests/RepairTest.cpp - auto-repair engine tests -------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Exercises repair::RepairEngine against the tier-1 session
/// (TestSession.h): the oracle-gated acceptance invariant (post-repair
/// accuracy can never drop, and every committed repair re-validates against
/// the golden regression suite), option validation, the report's internal
/// consistency, and the determinism contract (the "vega-repair-1" rendering
/// is byte-identical across repair job counts).
///
//===----------------------------------------------------------------------===//

#include "repair/RepairEngine.h"

#include "TestSession.h"
#include "core/VegaSession.h"
#include "eval/Oracle.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace vega;

namespace {

const GeneratedBackend &riscvBackend() {
  static StatusOr<GeneratedBackend> GB = test::tier1Session().generate("RISCV");
  if (!GB.isOk()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 GB.status().toString().c_str());
    std::abort();
  }
  return *GB;
}

} // namespace

TEST(Repair, OptionValidation) {
  repair::RepairOptions Opts;
  EXPECT_TRUE(Opts.validate().isOk());
  Opts.BeamWidth = 0;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.MaxRounds = 0;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.CSThreshold = 1.5;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.MaxSitesPerFunction = 0;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);

  repair::RepairEngine Engine(test::tier1Session().system(),
                              repair::RepairOptions{});
  GeneratedBackend Bogus;
  Bogus.TargetName = "NoSuchTarget";
  StatusOr<repair::RepairReport> Report = Engine.repairBackend(Bogus);
  EXPECT_EQ(Report.status().code(), StatusCode::InvalidArgument);
}

TEST(Repair, OracleGatedRepairNeverRegresses) {
  repair::RepairOptions Opts;
  Opts.BeamWidth = 4;
  Opts.MaxRounds = 2;
  repair::RepairEngine Engine(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> Report = Engine.repairBackend(riscvBackend());
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();

  double Before = Report->BaselineEval.functionAccuracy();
  double After = Report->RepairedEval.functionAccuracy();
  EXPECT_GE(After, Before);
  EXPECT_LE(Report->FunctionsRepaired, Report->FunctionsFlagged);
  EXPECT_EQ(Report->Functions.size(), Report->FunctionsFlagged);
  ASSERT_EQ(Report->Rounds.size(), static_cast<size_t>(Opts.MaxRounds));
  // Round accuracies are cumulative, start at/above baseline, and the
  // final round matches the re-evaluated repaired backend exactly.
  double Prev = Before;
  for (const repair::RoundStats &R : Report->Rounds) {
    EXPECT_GE(R.FunctionAccuracy, Prev);
    Prev = R.FunctionAccuracy;
  }
  EXPECT_NEAR(Report->Rounds.back().FunctionAccuracy, After, 1e-12);

  // Every committed repair re-validates behaviourally: the repaired
  // function must pass the same golden regression suite the engine used.
  const Backend *Golden = test::tier1Session().corpus().backend("RISCV");
  const TargetTraits *Traits =
      test::tier1Session().corpus().targets().find("RISCV");
  ASSERT_NE(Golden, nullptr);
  ASSERT_NE(Traits, nullptr);
  size_t Validated = 0;
  for (const repair::FunctionRepair &F : Report->Functions) {
    if (!F.RepairedPassed)
      continue;
    EXPECT_GT(F.RepairedAtRound, 0) << F.InterfaceName;
    const GeneratedFunction *Repaired =
        Report->RepairedBackend.find(F.InterfaceName);
    const BackendFunction *Gold = Golden->find(F.InterfaceName);
    ASSERT_NE(Repaired, nullptr) << F.InterfaceName;
    ASSERT_NE(Gold, nullptr) << F.InterfaceName;
    EXPECT_TRUE(Repaired->Emitted) << F.InterfaceName;
    EXPECT_TRUE(functionPassesRegression(Repaired->AST, Gold->AST,
                                         F.InterfaceName, *Traits))
        << F.InterfaceName;
    ++Validated;
  }
  EXPECT_EQ(Validated, Report->FunctionsRepaired);
  // Untouched (unrepaired) functions are byte-identical to the baseline.
  ASSERT_EQ(Report->RepairedBackend.Functions.size(),
            riscvBackend().Functions.size());
  for (size_t I = 0; I < riscvBackend().Functions.size(); ++I) {
    const GeneratedFunction &Base = riscvBackend().Functions[I];
    const GeneratedFunction &Rep = Report->RepairedBackend.Functions[I];
    bool WasRepaired = false;
    for (const repair::FunctionRepair &F : Report->Functions)
      if (F.InterfaceName == Base.InterfaceName && F.RepairedPassed)
        WasRepaired = true;
    if (WasRepaired)
      continue;
    EXPECT_EQ(Base.Emitted, Rep.Emitted) << Base.InterfaceName;
    if (Base.Emitted) {
      EXPECT_EQ(Base.AST.render(), Rep.AST.render()) << Base.InterfaceName;
    }
  }
}

TEST(Repair, ReportJsonByteIdenticalAcrossJobs) {
  repair::RepairOptions Opts;
  Opts.BeamWidth = 3;
  Opts.MaxRounds = 1;
  Opts.Jobs = 1;
  repair::RepairEngine One(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> A = One.repairBackend(riscvBackend());
  ASSERT_TRUE(A.isOk()) << A.status().toString();
  Opts.Jobs = 4;
  repair::RepairEngine Four(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> B = Four.repairBackend(riscvBackend());
  ASSERT_TRUE(B.isOk()) << B.status().toString();
  EXPECT_EQ(serve::repairToJson(*A).dump(2), serve::repairToJson(*B).dump(2));
}

TEST(Repair, DifferentialOracleGatedRepairNeverRegresses) {
  // Swapping the gating oracle for the randomized differential one must
  // preserve the acceptance invariant: accuracy under that same oracle
  // never drops, and the report advertises which oracle gated it.
  repair::RepairOptions Opts;
  Opts.BeamWidth = 2;
  Opts.MaxRounds = 1;
  Opts.OracleImpl = &eval::differentialOracle();
  Opts.Classifier = &eval::differentialOracle();
  repair::RepairEngine Engine(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> Report = Engine.repairBackend(riscvBackend());
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  EXPECT_GE(Report->RepairedEval.functionAccuracy(),
            Report->BaselineEval.functionAccuracy());
  EXPECT_EQ(Report->BaselineEval.OracleName, "differential");
  EXPECT_TRUE(Report->BaselineEval.hasDifferential());
  EXPECT_EQ(serve::repairToJson(*Report).get("options")->getString("oracle"),
            "differential");

  // Seeded input generation keeps the differential gate deterministic:
  // the full report renders byte-identically across repair job counts.
  Opts.Jobs = 1;
  repair::RepairEngine One(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> A = One.repairBackend(riscvBackend());
  ASSERT_TRUE(A.isOk()) << A.status().toString();
  Opts.Jobs = 4;
  repair::RepairEngine Four(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> B = Four.repairBackend(riscvBackend());
  ASSERT_TRUE(B.isOk()) << B.status().toString();
  EXPECT_EQ(serve::repairToJson(*A).dump(2), serve::repairToJson(*B).dump(2));
}

TEST(Repair, RejectedCandidatesCollectedOnlyWhenAsked) {
  // Off by default: the report never carries refuted candidates, and the
  // "vega-repair-1" rendering is unaffected by the flag either way.
  repair::RepairOptions Opts;
  Opts.BeamWidth = 4;
  Opts.MaxRounds = 2;
  repair::RepairEngine Plain(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> Off = Plain.repairBackend(riscvBackend());
  ASSERT_TRUE(Off.isOk()) << Off.status().toString();
  EXPECT_TRUE(Off->Rejected.empty());

  Opts.CollectRejected = true;
  Opts.RejectedConfidenceFloor = 0.0;
  repair::RepairEngine Collecting(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> On = Collecting.repairBackend(riscvBackend());
  ASSERT_TRUE(On.isOk()) << On.status().toString();
  EXPECT_EQ(serve::repairToJson(*Off).dump(2), serve::repairToJson(*On).dump(2));

  // With the floor at 0 every refuted candidate is recorded; raising it
  // can only shrink the set, and every survivor honours the floor.
  Opts.RejectedConfidenceFloor = 0.5;
  repair::RepairEngine Floored(test::tier1Session().system(), Opts);
  StatusOr<repair::RepairReport> Half = Floored.repairBackend(riscvBackend());
  ASSERT_TRUE(Half.isOk()) << Half.status().toString();
  EXPECT_LE(Half->Rejected.size(), On->Rejected.size());
  for (const repair::RejectedCandidate &RC : Half->Rejected) {
    EXPECT_GE(RC.Confidence, 0.5) << RC.InterfaceName;
    EXPECT_FALSE(RC.Text.empty()) << RC.InterfaceName;
    EXPECT_FALSE(RC.InterfaceName.empty());
    EXPECT_GE(RC.RowIndex, 0) << RC.InterfaceName;
    EXPECT_GE(RC.Round, 1) << RC.InterfaceName;
    EXPECT_LE(RC.Round, Opts.MaxRounds) << RC.InterfaceName;
  }
  // Validation: the floor is a probability.
  Opts.RejectedConfidenceFloor = -0.1;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts.RejectedConfidenceFloor = 1.5;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
}

TEST(Repair, BeamCandidatesForSiteAreRankedAndDeterministic) {
  VegaSystem &System = test::tier1Session().system();
  const GeneratedBackend &GB = riscvBackend();
  // Pick the first emitted statement of the first emitted function.
  const GeneratedFunction *Fn = nullptr;
  for (const GeneratedFunction &F : GB.Functions)
    if (F.Emitted && !F.Statements.empty()) {
      Fn = &F;
      break;
    }
  ASSERT_NE(Fn, nullptr);
  const TemplateInfo *TI = System.findTemplate(Fn->InterfaceName);
  ASSERT_NE(TI, nullptr);
  const GeneratedStatement &St = Fn->Statements.front();
  DecodeSite Site;
  Site.RowIndex = St.RowIndex;
  Site.CandidateValue = St.CandidateValue;
  Site.CtxValue = St.CtxValue;

  System.model()->prepareGenerate();
  std::vector<GeneratedStatement> First =
      System.beamCandidatesForSite(*TI, Site, "RISCV", 4);
  std::vector<GeneratedStatement> Second =
      System.beamCandidatesForSite(*TI, Site, "RISCV", 4);
  ASSERT_FALSE(First.empty());
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].Tokens, Second[I].Tokens) << "rank " << I;
    EXPECT_EQ(First[I].Confidence, Second[I].Confidence) << "rank " << I;
    EXPECT_EQ(First[I].RowIndex, Site.RowIndex);
  }
  // Width 1 reproduces the greedy statement for this site.
  std::vector<GeneratedStatement> Top =
      System.beamCandidatesForSite(*TI, Site, "RISCV", 1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(renderTokens(Top[0].Tokens), renderTokens(St.Tokens));
}
