//===- tests/FlywheelTest.cpp - self-training flywheel tests -------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Exercises flywheel::FlywheelEngine against a shared one-epoch session:
/// option validation, the acceptance-gated trajectory invariants (pass@1
/// monotone non-decreasing, repair reliance non-increasing), the
/// "vega-flywheel-1" JSON round trip, byte-identical reports across job
/// counts, and byte-identical artifacts across an interrupt + resume (which
/// refuses a directory written under other flywheel options or from
/// another base model).
///
//===----------------------------------------------------------------------===//

#include "flywheel/Flywheel.h"

#include "core/Checkpoint.h"
#include "core/VegaSession.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace vega;

namespace {

VegaSession &session() {
  static std::unique_ptr<VegaSession> S = [] {
    VegaOptions Opts;
    Opts.Model.Epochs = 1;
    Opts.Verbose = false;
    StatusOr<std::unique_ptr<VegaSession>> Built = VegaSession::build(Opts);
    if (!Built.isOk()) {
      std::fprintf(stderr, "session build failed: %s\n",
                   Built.status().toString().c_str());
      std::abort();
    }
    return std::move(*Built);
  }();
  return *S;
}

/// The shared session saved once, as the base model of every fresh system.
const std::string &baseArtifact() {
  static const std::string Path = [] {
    std::string P = "flywheel_test_base.vega";
    if (Status St = session().save(P); !St.isOk()) {
      std::fprintf(stderr, "base save failed: %s\n", St.toString().c_str());
      std::abort();
    }
    return P;
  }();
  return Path;
}

/// A fresh trainable system over the standard corpus holding the shared
/// session's model — the flywheel mutates its corpus and weights, so every
/// test works on its own copy.
std::unique_ptr<VegaSystem> freshSystem(int Jobs, int TrainJobs) {
  VegaOptions Opts;
  Opts.Model.Epochs = 1;
  Opts.Verbose = false;
  Opts.Jobs = Jobs;
  Opts.TrainJobs = TrainJobs;
  auto System = std::make_unique<VegaSystem>(VegaSession::standardCorpus(),
                                             Opts);
  System->buildTemplates();
  System->buildDataset();
  if (Status St = SessionCheckpoint::loadWeights(*System, baseArtifact());
      !St.isOk()) {
    std::fprintf(stderr, "base model load failed: %s\n",
                 St.toString().c_str());
    std::abort();
  }
  return System;
}

/// Small, fast schedule shared by the expensive tests.
flywheel::FlywheelOptions fastOptions() {
  flywheel::FlywheelOptions Opts;
  Opts.Targets = {"RISCV"};
  Opts.Generations = 1;
  Opts.FineTuneEpochs = 1;
  Opts.BeamWidth = 2;
  Opts.MaxRounds = 1;
  return Opts;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void clearArtifacts(const std::string &Dir) {
  for (int K = 0; K <= 4; ++K) {
    std::string Base = Dir + "/gen-" + std::to_string(K);
    std::remove((Base + ".vega").c_str());
    std::remove((Base + ".report.json").c_str());
    std::remove((Base + ".harvest.json").c_str());
  }
}

void expectMonotone(const flywheel::FlywheelReport &Report) {
  ASSERT_FALSE(Report.Generations.empty());
  EXPECT_EQ(Report.Generations.front().Generation, 0);
  EXPECT_TRUE(Report.Generations.front().Accepted);
  for (size_t I = 1; I < Report.Generations.size(); ++I) {
    const flywheel::GenerationStats &Prev = Report.Generations[I - 1];
    const flywheel::GenerationStats &Cur = Report.Generations[I];
    EXPECT_EQ(Cur.Generation, static_cast<int>(I));
    EXPECT_GE(Cur.Pass1, Prev.Pass1) << "generation " << I;
    EXPECT_LE(Cur.RepairReliance, Prev.RepairReliance) << "generation " << I;
  }
}

} // namespace

TEST(Flywheel, OptionValidation) {
  flywheel::FlywheelOptions Opts;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument); // no targets
  Opts.Targets = {"RISCV"};
  EXPECT_TRUE(Opts.validate().isOk());
  Opts.Generations = 0;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.Targets = {"RISCV"};
  Opts.FineTuneEpochs = 0;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.Targets = {"RISCV"};
  Opts.NegativeConfidenceFloor = 1.5;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.Targets = {"RISCV"};
  Opts.NegativeWeight = -1.0f;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
  Opts = {};
  Opts.Targets = {"RISCV"};
  Opts.PositiveWeight = 0.0f;
  EXPECT_EQ(Opts.validate().code(), StatusCode::InvalidArgument);
}

TEST(Flywheel, UnknownTargetRejected) {
  flywheel::FlywheelOptions Opts = fastOptions();
  Opts.Targets = {"NoSuchTarget"};
  flywheel::FlywheelEngine Engine(session().system(), Opts);
  StatusOr<flywheel::FlywheelReport> Report = Engine.run();
  EXPECT_EQ(Report.status().code(), StatusCode::InvalidArgument);
}

TEST(Flywheel, GenerationJsonRejectsMalformedDocuments) {
  EXPECT_EQ(flywheel::generationFromJson(Json::object()).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(flywheel::reportFromJson(Json::object()).status().code(),
            StatusCode::InvalidArgument);
  Json NotQuite = Json::object();
  NotQuite.set("schema", "vega-flywheel-1");
  EXPECT_EQ(flywheel::reportFromJson(NotQuite).status().code(),
            StatusCode::InvalidArgument);
}

TEST(Flywheel, ReportByteIdenticalAcrossJobs) {
  std::unique_ptr<VegaSystem> One = freshSystem(1, 1);
  std::unique_ptr<VegaSystem> Four = freshSystem(4, 4);

  flywheel::FlywheelOptions Opts = fastOptions();
  Opts.Jobs = 1;
  flywheel::FlywheelEngine EngineOne(*One, Opts);
  StatusOr<flywheel::FlywheelReport> A = EngineOne.run();
  ASSERT_TRUE(A.isOk()) << A.status().toString();

  Opts.Jobs = 4;
  flywheel::FlywheelEngine EngineFour(*Four, Opts);
  StatusOr<flywheel::FlywheelReport> B = EngineFour.run();
  ASSERT_TRUE(B.isOk()) << B.status().toString();

  EXPECT_EQ(flywheel::reportToJson(*A).dump(2),
            flywheel::reportToJson(*B).dump(2));
}

TEST(Flywheel, ResumeMatchesUninterruptedRunByteForByte) {
  const std::string DirA = "flywheel_test_full";
  const std::string DirB = "flywheel_test_resume";
  clearArtifacts(DirA);
  clearArtifacts(DirB);

  flywheel::FlywheelOptions Opts = fastOptions();
  Opts.Generations = 2;

  // Uninterrupted run: generations 0..2 into DirA.
  std::unique_ptr<VegaSystem> Full = freshSystem(0, 0);
  Opts.OutDir = DirA;
  flywheel::FlywheelEngine FullEngine(*Full, Opts);
  StatusOr<flywheel::FlywheelReport> FullReport = FullEngine.run();
  ASSERT_TRUE(FullReport.isOk()) << FullReport.status().toString();
  ASSERT_EQ(FullReport->Generations.size(), 3u);
  EXPECT_EQ(FullReport->GenerationsRun, 3);
  EXPECT_EQ(FullReport->GenerationsResumed, 0);
  expectMonotone(*FullReport);
  EXPECT_EQ(FullReport->Options.Targets, Opts.Targets);

  // Baseline harvested nothing; later generations account their pairs.
  EXPECT_EQ(FullReport->Generations[0].HarvestedPositives, 0u);
  EXPECT_EQ(FullReport->Generations[0].HarvestedNegatives, 0u);
  size_t Added = 0;
  for (const flywheel::GenerationStats &G : FullReport->Generations) {
    EXPECT_EQ(G.HarvestedPositives + G.HarvestedNegatives,
              G.PairsAdded + G.PairsDeduped + G.PairsSkippedOov);
    Added += G.PairsAdded;
  }
  EXPECT_EQ(FullReport->TotalPairsAdded, Added);

  // The JSON rendering round-trips byte-for-byte.
  Json Doc = flywheel::reportToJson(*FullReport);
  StatusOr<flywheel::FlywheelReport> Parsed = flywheel::reportFromJson(Doc);
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_EQ(flywheel::reportToJson(*Parsed).dump(2), Doc.dump(2));

  // Interrupted run: generations 0..1 into DirB, then a fresh engine
  // resumes the directory and computes only generation 2.
  std::unique_ptr<VegaSystem> Part = freshSystem(0, 0);
  Opts.OutDir = DirB;
  Opts.Generations = 1;
  flywheel::FlywheelEngine PartEngine(*Part, Opts);
  StatusOr<flywheel::FlywheelReport> PartReport = PartEngine.run();
  ASSERT_TRUE(PartReport.isOk()) << PartReport.status().toString();
  ASSERT_EQ(PartReport->Generations.size(), 2u);

  std::unique_ptr<VegaSystem> Res = freshSystem(0, 0);
  Opts.Generations = 2;
  flywheel::FlywheelEngine ResEngine(*Res, Opts);
  StatusOr<flywheel::FlywheelReport> ResReport = ResEngine.run();
  ASSERT_TRUE(ResReport.isOk()) << ResReport.status().toString();
  ASSERT_EQ(ResReport->Generations.size(), 3u);
  EXPECT_EQ(ResReport->GenerationsResumed, 2);
  EXPECT_EQ(ResReport->GenerationsRun, 1);

  // The resumed run's generation records equal the uninterrupted run's —
  // as JSON bytes, the strongest equality the report offers.
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(
        flywheel::generationToJson(ResReport->Generations[I]).dump(2),
        flywheel::generationToJson(FullReport->Generations[I]).dump(2))
        << "generation " << I;

  // And every persisted artifact matches byte-for-byte, including the
  // generation-2 checkpoint the resumed run produced after the interrupt.
  for (int K = 0; K <= 2; ++K) {
    for (const char *Suffix : {".report.json", ".vega"}) {
      std::string A = slurp(DirA + "/gen-" + std::to_string(K) + Suffix);
      std::string B = slurp(DirB + "/gen-" + std::to_string(K) + Suffix);
      ASSERT_FALSE(A.empty()) << K << Suffix;
      EXPECT_EQ(A == B, true) << "gen-" << K << Suffix;
    }
    if (K > 0) {
      std::string A = slurp(DirA + "/gen-" + std::to_string(K) +
                            ".harvest.json");
      std::string B = slurp(DirB + "/gen-" + std::to_string(K) +
                            ".harvest.json");
      ASSERT_FALSE(A.empty());
      EXPECT_EQ(A == B, true) << "gen-" << K << ".harvest.json";
    }
  }

  // A directory written under different options is refused — the scan
  // rejects before any evaluation or corpus mutation, so the shared
  // session is safe to use.
  flywheel::FlywheelOptions Other = fastOptions();
  Other.OutDir = DirB;
  Other.Seed = 99;
  flywheel::FlywheelEngine ClashEngine(session().system(), Other);
  StatusOr<flywheel::FlywheelReport> ClashReport = ClashEngine.run();
  EXPECT_EQ(ClashReport.status().code(), StatusCode::FailedPrecondition);

  // So is a system whose base model has another training schedule: the
  // flywheel options match, but the checkpoints hold a model trained for
  // one epoch, and this system has run Stage 1 for two (and no training).
  // The refusal leaves its corpus and model untouched.
  VegaOptions TwoEpochs;
  TwoEpochs.Model.Epochs = 2;
  TwoEpochs.Verbose = false;
  VegaSystem OtherBase(VegaSession::standardCorpus(), TwoEpochs);
  OtherBase.buildTemplates();
  OtherBase.buildDataset();
  const size_t PairsBefore = OtherBase.trainPairCount();
  flywheel::FlywheelEngine BaseClashEngine(OtherBase, Opts);
  StatusOr<flywheel::FlywheelReport> BaseClashReport = BaseClashEngine.run();
  EXPECT_EQ(BaseClashReport.status().code(), StatusCode::FailedPrecondition);
  EXPECT_EQ(OtherBase.trainPairCount(), PairsBefore);
  EXPECT_EQ(OtherBase.model(), nullptr);
}
