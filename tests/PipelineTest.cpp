//===- tests/PipelineTest.cpp - VEGA pipeline unit tests ------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "support/BinaryIO.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace vega;

namespace {

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

/// A system with templates + dataset built (no training).
VegaSystem &sharedSystem() {
  static VegaSystem *Sys = [] {
    VegaOptions Opts;
    auto *S = new VegaSystem(sharedCorpus(), Opts);
    S->buildTemplates();
    S->buildDataset();
    return S;
  }();
  return *Sys;
}

} // namespace

TEST(Pipeline, BuildsOneTemplatePerGroup) {
  VegaSystem &Sys = sharedSystem();
  EXPECT_EQ(Sys.templates().size(), sharedCorpus().trainingGroups().size());
  EXPECT_NE(Sys.findTemplate("getRelocType"), nullptr);
  EXPECT_EQ(Sys.findTemplate("noSuchFunction"), nullptr);
}

TEST(Pipeline, DatasetSplitIsSeventyFiveTwentyFive) {
  VegaSystem &Sys = sharedSystem();
  size_t Train = Sys.trainFunctionCount();
  size_t Verify = Sys.verifyFunctionCount();
  ASSERT_GT(Train, 0u);
  ASSERT_GT(Verify, 0u);
  double Fraction =
      static_cast<double>(Train) / static_cast<double>(Train + Verify);
  EXPECT_NEAR(Fraction, 0.75, 0.06);
}

TEST(Pipeline, FeatureVectorLayout) {
  VegaSystem &Sys = sharedSystem();
  const TemplateInfo *TI = Sys.findTemplate("getRelocType");
  ASSERT_NE(TI, nullptr);
  std::vector<std::string> FV = Sys.buildInputTokens(
      *TI, *TI->FT.Definition, "RISCV", std::nullopt, std::string());
  ASSERT_GE(FV.size(), 8u);
  EXPECT_EQ(FV[0], "[CLS]");
  EXPECT_EQ(FV[1], "getRelocType");
  // Segment markers appear in order.
  auto Find = [&](const char *Tok) {
    return std::find(FV.begin(), FV.end(), Tok);
  };
  auto B = Find("[BOOLS]"), V = Find("[VALS]"), P = Find("[PATH]"),
       C = Find("[CTX]");
  ASSERT_NE(B, FV.end());
  ASSERT_NE(V, FV.end());
  ASSERT_NE(P, FV.end());
  ASSERT_NE(C, FV.end());
  EXPECT_LT(B, V);
  EXPECT_LT(V, P);
  EXPECT_LT(P, C);
  // Definition slot candidates include the composed writer class name.
  EXPECT_NE(Find("RISCVELFObjectWriter"), FV.end());
}

TEST(Pipeline, BoolSegmentTracksTargets) {
  VegaSystem &Sys = sharedSystem();
  const TemplateInfo *TI = Sys.findTemplate("getRelocType");
  ASSERT_NE(TI, nullptr);
  auto CountTrue = [&](const std::string &Target) {
    std::vector<std::string> FV = Sys.buildInputTokens(
        *TI, *TI->FT.Definition, Target, std::nullopt, std::string());
    return std::count(FV.begin(), FV.end(), "[T]");
  };
  // ARM (VariantKind true) has at least as many true bools as Lanai.
  EXPECT_GE(CountTrue("ARM"), CountTrue("Lanai"));
}

TEST(Pipeline, SlotCandidatesMixHarvestAndRenames) {
  VegaSystem &Sys = sharedSystem();
  const TemplateInfo *TI = Sys.findTemplate("getRelocType");
  ASSERT_NE(TI, nullptr);
  // Definition row slot 0 is the writer class; candidates contain the
  // Name harvest plus the renamed composite.
  auto Candidates =
      Sys.slotCandidates(*TI, *TI->FT.Definition, 0, "RISCV");
  ASSERT_FALSE(Candidates.empty());
  bool HasName = false, HasComposite = false;
  for (const std::string &C : Candidates) {
    if (C == "RISCV")
      HasName = true;
    if (C == "RISCVELFObjectWriter")
      HasComposite = true;
  }
  EXPECT_TRUE(HasName);
  EXPECT_TRUE(HasComposite);
  // No garbled double-renames (the all-caps "VE" regression).
  for (const std::string &C : Candidates)
    EXPECT_EQ(C.find("RISCRISCV"), std::string::npos) << C;
}

TEST(Pipeline, AnalyticConfidenceMatchesEq1) {
  VegaSystem &Sys = sharedSystem();
  const TemplateInfo *TI = Sys.findTemplate("getRelocType");
  ASSERT_NE(TI, nullptr);

  // Absent statements score 0 (has = 0).
  EXPECT_DOUBLE_EQ(
      Sys.analyticConfidence(*TI, *TI->FT.Definition, "RISCV", false), 0.0);

  // A pure-common row scores 1.
  const TemplateRow *Common = nullptr;
  const TemplateRow *Repeat = nullptr;
  for (const TemplateRow *Row : TI->FT.rows()) {
    if (Row->placeholderCount() == 0 && !Common &&
        Row->Kind == StmtKind::Decl)
      Common = Row;
    if (Row->Repeatable && Row->placeholderCount() == 2)
      Repeat = Row;
  }
  ASSERT_NE(Common, nullptr);
  EXPECT_DOUBLE_EQ(Sys.analyticConfidence(*TI, *Common, "RISCV", true), 1.0);

  // The repeatable case row scores |Tcom|/|T| + Σ 1/(|T|·N) — strictly
  // between 0.5 and 1 (paper §3.3's S5 example).
  ASSERT_NE(Repeat, nullptr);
  double CS = Sys.analyticConfidence(*TI, *Repeat, "RISCV", true);
  EXPECT_GT(CS, 0.5);
  EXPECT_LT(CS, 1.0);
}

TEST(Pipeline, Stage1TimingIsReported) {
  VegaOptions Opts;
  VegaSystem Sys(sharedCorpus(), Opts);
  double Seconds = Sys.buildTemplates();
  EXPECT_GT(Seconds, 0.0);
  EXPECT_LT(Seconds, 120.0);
}

TEST(Pipeline, BackendBasedSplitDiffersFromGroupBased) {
  VegaOptions Opts;
  Opts.Split = VegaOptions::SplitKind::BackendBased;
  VegaSystem Sys(sharedCorpus(), Opts);
  Sys.buildTemplates();
  Sys.buildDataset();
  // Backend-based: roughly 25% of backends hold out ALL their functions.
  EXPECT_GT(Sys.verifyFunctionCount(), 0u);
  EXPECT_GT(Sys.trainFunctionCount(), 0u);
  // The held-out share differs from the function-group split's share for
  // the same seed (they are different partitions of the same population).
  EXPECT_NE(Sys.verifyFunctionCount(), sharedSystem().verifyFunctionCount());
}

TEST(Pipeline, FeatureAblationChangesInputs) {
  VegaOptions Opts;
  Opts.UseTargetDependentValues = false;
  VegaSystem Sys(sharedCorpus(), Opts);
  Sys.buildTemplates();
  const TemplateInfo *TI = Sys.findTemplate("getRelocType");
  ASSERT_NE(TI, nullptr);
  std::vector<std::string> FV = Sys.buildInputTokens(
      *TI, *TI->FT.Definition, "RISCV", std::nullopt, std::string());
  EXPECT_EQ(std::find(FV.begin(), FV.end(), "RISCVELFObjectWriter"),
            FV.end());
}

namespace {

/// Canonical text form of a backend with the volatile timing fields zeroed
/// out — everything else (tokens, confidences, emission decisions, order)
/// must be byte-identical across job counts.
std::string canon(const GeneratedBackend &GB) {
  std::string Out = "TARGET " + GB.TargetName + "\n";
  char Buf[64];
  for (const GeneratedFunction &F : GB.Functions) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", F.Confidence);
    Out += "FUNCTION " + F.InterfaceName + " " + moduleName(F.Module) + " " +
           Buf + (F.Emitted ? " emitted" : " dropped") +
           (F.MultiTargetDerived ? " multi\n" : "\n");
    for (const GeneratedStatement &S : F.Statements) {
      std::snprintf(Buf, sizeof(Buf), "%d %.17g %d", S.RowIndex, S.Confidence,
                    S.Emitted ? 1 : 0);
      Out += "  STMT " + std::string(Buf) + " [" + S.CandidateValue + "] " +
             renderTokens(S.Tokens) + "\n";
    }
  }
  return Out;
}

} // namespace

TEST(Pipeline, WeightCachePathHonorsCacheDirOverride) {
  // README "Weight caches": an absolute WeightCachePath is used verbatim;
  // a relative one resolves under $VEGA_CACHE_DIR when that is set and
  // non-empty; an empty path disables caching regardless of the override.
  VegaOptions Opts;

  ::unsetenv("VEGA_CACHE_DIR");
  Opts.WeightCachePath = "model.bin";
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "model.bin");
  Opts.WeightCachePath = "/abs/model.bin";
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "/abs/model.bin");
  Opts.WeightCachePath.clear();
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "");

  ::setenv("VEGA_CACHE_DIR", "/tmp/vega-caches", 1);
  Opts.WeightCachePath = "model.bin";
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "/tmp/vega-caches/model.bin");
  Opts.WeightCachePath = "/abs/model.bin"; // absolute wins over the override
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "/abs/model.bin");
  Opts.WeightCachePath.clear(); // empty still means "no cache"
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "");

  ::setenv("VEGA_CACHE_DIR", "/tmp/vega-caches/", 1); // trailing slash ok
  Opts.WeightCachePath = "model.bin";
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "/tmp/vega-caches/model.bin");

  ::setenv("VEGA_CACHE_DIR", "", 1); // empty override = disabled
  EXPECT_EQ(Opts.resolvedWeightCachePath(), "model.bin");
  ::unsetenv("VEGA_CACHE_DIR");
}

TEST(Pipeline, GeneratedBackendIsIdenticalAcrossJobCounts) {
  // The hard Stage-3 invariant: the worker pool only changes who computes
  // each function, never what is computed — serial and 4-lane runs must
  // produce byte-identical backends (timing fields aside).
  VegaOptions Opts;
  Opts.Model.Epochs = 1;
  Opts.WeightCachePath = "pipeline_jobs_model.bin";
  VegaSystem Sys(sharedCorpus(), Opts);
  Sys.buildTemplates();
  Sys.buildDataset();
  Sys.trainModel();

  Sys.setJobs(1);
  GeneratedBackend Serial = Sys.generateBackend("RISCV");
  Sys.setJobs(4);
  GeneratedBackend Parallel = Sys.generateBackend("RISCV");

  ASSERT_EQ(Serial.Functions.size(), Parallel.Functions.size());
  EXPECT_EQ(canon(Serial), canon(Parallel));

  // And the KV cache itself must not change the output either.
  Sys.model()->setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  GeneratedBackend Reference = Sys.generateBackend("RISCV");
  Sys.model()->setDecodeMode(CodeBE::DecodeMode::KVCache);
  EXPECT_EQ(canon(Reference), canon(Serial));
}

namespace {

/// A trained system for the golden-hash invariant. Shares the weight cache
/// with the jobs test above (same config), so whichever test runs first
/// trains and the other loads.
VegaSystem &trainedSystem() {
  static VegaSystem *Sys = [] {
    VegaOptions Opts;
    Opts.Model.Epochs = 1;
    Opts.WeightCachePath = "pipeline_jobs_model.bin";
    auto *S = new VegaSystem(sharedCorpus(), Opts);
    S->buildTemplates();
    S->buildDataset();
    S->trainModel();
    return S;
  }();
  return *Sys;
}

} // namespace

TEST(Pipeline, GoldenBackendHashes) {
  // The safety net for Stage-3 refactors: the canonical text of each
  // evaluation target's backend is pinned by its FNV-1a hash. A change that
  // moves any token, confidence, emission decision, or order breaks this
  // test; one that only restructures the decode must not. Schedule
  // invariance rides along: 4 lanes reproduce the serial bytes.
  struct Golden {
    const char *Target;
    uint64_t Hash;
  };
  const Golden Want[] = {{"RISCV", 0x9e2f8935d08a7058ULL},
                         {"RI5CY", 0x3538e7e7dff89f6dULL},
                         {"XCORE", 0x4bb5dcc704fe4ecdULL}};
  VegaSystem &Sys = trainedSystem();
  Sys.setJobs(1);
  for (const Golden &G : Want)
    EXPECT_EQ(fnv1a(canon(Sys.generateBackend(G.Target))), G.Hash)
        << "target " << G.Target;

  Sys.setJobs(4);
  GeneratedBackend Parallel = Sys.generateBackend("RISCV");
  Sys.setJobs(1);
  GeneratedBackend Serial = Sys.generateBackend("RISCV");
  EXPECT_EQ(canon(Serial), canon(Parallel));
}
