//===- tests/IntegrationTest.cpp - end-to-end pipeline test --------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// End-to-end: corpus → templates → features → (briefly) fine-tuned CodeBE
/// → backend generation → pass@1 evaluation. The model here trains for a
/// single epoch to keep the suite fast; the benches train the full model.
///
//===----------------------------------------------------------------------===//

#include "eval/EffortModel.h"
#include "eval/Harness.h"
#include "forkflow/ForkFlow.h"
#include "minicc/Benchmarks.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

VegaSystem &trainedSystem() {
  static VegaSystem *Sys = [] {
    VegaOptions Opts;
    Opts.Model.Epochs = 1;
    Opts.WeightCachePath = "integration_model.bin";
    auto *S = new VegaSystem(sharedCorpus(), Opts);
    S->buildTemplates();
    S->buildDataset();
    S->trainModel();
    return S;
  }();
  return *Sys;
}

} // namespace

TEST(Integration, GeneratesACompleteBackend) {
  GeneratedBackend GB = trainedSystem().generateBackend("RISCV");
  EXPECT_EQ(GB.Functions.size(),
            sharedCorpus().trainingGroups().size());
  size_t Emitted = 0;
  for (const GeneratedFunction &F : GB.Functions)
    if (F.Emitted)
      ++Emitted;
  // Even a briefly trained model emits most functions.
  EXPECT_GT(Emitted, GB.Functions.size() / 2);
  EXPECT_GT(GB.totalSeconds(), 0.0);
}

TEST(Integration, HarnessEvaluatesGeneratedBackend) {
  GeneratedBackend GB = trainedSystem().generateBackend("RISCV");
  BackendEval Eval = evaluateBackend(GB, *sharedCorpus().backend("RISCV"),
                                     *sharedCorpus().targets().find("RISCV"));
  // With one epoch the model is weak; the harness must still yield sane
  // bounded metrics.
  EXPECT_GE(Eval.functionAccuracy(), 0.0);
  EXPECT_LE(Eval.functionAccuracy(), 1.0);
  EXPECT_GE(Eval.statementAccuracy(), 0.0);
  EXPECT_LE(Eval.statementAccuracy(), 1.0);
  EXPECT_GE(totalRepairHours(Eval, developerA()), 0.0);
}

TEST(Integration, RepairedCompilerMatchesBaseCompiler) {
  // §4.3 robustness: replace inaccurate functions with golden ones; the
  // repaired backend must drive the mini compiler identically to base.
  GeneratedBackend GB = trainedSystem().generateBackend("RI5CY");
  const Backend *Golden = sharedCorpus().backend("RI5CY");
  const TargetTraits *Traits = sharedCorpus().targets().find("RI5CY");
  BackendEval Eval = evaluateBackend(GB, *Golden, *Traits);

  std::map<std::string, const FunctionAST *> Repaired, GoldenFns;
  for (const FunctionEval &FE : Eval.Functions) {
    const BackendFunction *GoldenFn = Golden->find(FE.InterfaceName);
    if (!GoldenFn)
      continue;
    GoldenFns[FE.InterfaceName] = &GoldenFn->AST;
    if (FE.Accurate) {
      Repaired[FE.InterfaceName] = &GB.find(FE.InterfaceName)->AST;
    } else {
      Repaired[FE.InterfaceName] = &GoldenFn->AST;
    }
  }
  // The base compiler IS the golden backend (§4.3), so both sides derive
  // their hooks by interpreting backend functions.
  BackendHooks RepairedHooks = hooksFromFunctions(*Traits, Repaired);
  BackendHooks BaseHooks = hooksFromFunctions(*Traits, GoldenFns);
  EXPECT_EQ(RepairedHooks.PostRAScheduler, BaseHooks.PostRAScheduler);
  EXPECT_EQ(RepairedHooks.HardwareLoops, BaseHooks.HardwareLoops);
  EXPECT_EQ(RepairedHooks.VectorWidth, BaseHooks.VectorWidth);
  for (const std::string &Name : {pulpSuite()[0], pulpSuite()[1]}) {
    IRModule M = buildBenchmark(Name);
    SimResult A = compileAndRun(M, *Traits, RepairedHooks, OptLevel::O3);
    SimResult B = compileAndRun(M, *Traits, BaseHooks, OptLevel::O3);
    EXPECT_EQ(A.Cycles, B.Cycles) << Name;
  }
}

TEST(Integration, ForkFlowLosesToGoldenEverywhere) {
  // The paper forks from MIPS for all three targets (§4.2).
  for (const std::string &Target : TargetDatabase::evaluationTargetNames()) {
    GeneratedBackend FF = forkflowBackend(sharedCorpus(), "Mips", Target);
    BackendEval Eval =
        evaluateBackend(FF, *sharedCorpus().backend(Target),
                        *sharedCorpus().targets().find(Target));
    EXPECT_LT(Eval.functionAccuracy(), 0.6) << Target;
  }
}

TEST(Integration, ConfidenceScoresAreBounded) {
  GeneratedBackend GB = trainedSystem().generateBackend("XCORE");
  for (const GeneratedFunction &F : GB.Functions) {
    EXPECT_GE(F.Confidence, 0.0);
    EXPECT_LE(F.Confidence, 1.0);
    for (const GeneratedStatement &S : F.Statements) {
      EXPECT_GE(S.Confidence, 0.0);
      EXPECT_LE(S.Confidence, 1.0);
      if (S.Emitted) {
        EXPECT_GE(S.Confidence, 0.5);
      }
    }
  }
}

TEST(Integration, TraceCoversAllModulesAndAgreesWithFig7) {
  auto &Rec = obs::TraceRecorder::instance();
  auto &Metrics = obs::MetricsRegistry::instance();
  Rec.clear();
  Rec.setEnabled(true);
  Metrics.clear();
  Metrics.setEnabled(true);
  GeneratedBackend GB = trainedSystem().generateBackend("RISCV");
  Rec.setEnabled(false);
  Metrics.setEnabled(false);

  std::vector<obs::TraceEvent> Events = Rec.snapshot();
  // One gen.<module> span per generated function, for all 7 modules.
  std::map<std::string, size_t> SpanCount;
  std::map<std::string, double> SpanSeconds;
  for (const obs::TraceEvent &E : Events) {
    if (E.Name.rfind("gen.", 0) == 0 && E.Name != "gen.row") {
      ++SpanCount[E.Name];
      SpanSeconds[E.Name] += E.DurUs / 1e6;
    }
  }
  for (BackendModule Module : AllModules) {
    std::string Name = std::string("gen.") + moduleName(Module);
    EXPECT_GT(SpanCount[Name], 0u) << Name;
    // Dedup check: Fig. 7's ModuleSeconds must equal the trace's per-module
    // span totals — they are the same measurement by construction.
    auto It = GB.ModuleSeconds.find(Module);
    ASSERT_NE(It, GB.ModuleSeconds.end()) << Name;
    EXPECT_NEAR(It->second, SpanSeconds[Name], 1e-9) << Name;
  }
  // The stage-3 umbrella span nests the per-function spans.
  bool SawStage3 = false;
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "stage3.generate_backend") {
      SawStage3 = true;
      EXPECT_EQ(E.Depth, 0);
    }
  EXPECT_TRUE(SawStage3);
  // Per-row spans nest beneath the function spans. Span depth is
  // per-thread, so on a worker lane the gen.<module> span sits at depth 0
  // and the rows at depth 1; on the caller lane they sit one deeper.
  bool SawRow = false;
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "gen.row") {
      SawRow = true;
      EXPECT_GE(E.Depth, 1);
    }
  EXPECT_TRUE(SawRow);

  // The metrics side: ≥5 distinct metrics including the confidence
  // histogram, and the counters agree with the generated backend.
  EXPECT_GE(Metrics.metricCount(), 5u);
  std::optional<obs::Histogram> Conf = Metrics.histogram("gen.confidence");
  ASSERT_TRUE(Conf.has_value());
  EXPECT_GT(Conf->Count, 0u);
  EXPECT_EQ(Metrics.counterValue("gen.functions"), GB.Functions.size());
}

TEST(Integration, WeightCacheRoundTrips) {
  // A second system with the same options must load the cached weights and
  // generate identical output.
  VegaOptions Opts;
  Opts.Model.Epochs = 1;
  Opts.WeightCachePath = "integration_model.bin";
  VegaSystem Sys2(sharedCorpus(), Opts);
  Sys2.buildTemplates();
  Sys2.buildDataset();
  Sys2.trainModel();
  GeneratedBackend A = trainedSystem().generateBackend("RISCV");
  GeneratedBackend B = Sys2.generateBackend("RISCV");
  ASSERT_EQ(A.Functions.size(), B.Functions.size());
  for (size_t I = 0; I < A.Functions.size(); ++I) {
    EXPECT_EQ(A.Functions[I].Emitted, B.Functions[I].Emitted);
    if (A.Functions[I].Emitted && B.Functions[I].Emitted) {
      EXPECT_EQ(A.Functions[I].AST.render(), B.Functions[I].AST.render());
    }
  }
}
