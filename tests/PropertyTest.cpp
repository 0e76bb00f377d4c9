//===- tests/PropertyTest.cpp - cross-module property sweeps --------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Property-style invariants that hold across the whole corpus: parse/render
/// round trips, normalization idempotence, interpreter determinism, and
/// templatization stability.
///
//===----------------------------------------------------------------------===//

#include "ast/Normalize.h"
#include "ast/Parser.h"
#include "eval/EvalSpecs.h"
#include "interp/Interpreter.h"
#include "templatize/FunctionTemplate.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

struct FnCase {
  std::string Target;
  std::string Interface;
};

std::vector<FnCase> sampledFunctions() {
  // Every function of the three evaluation targets plus two training ones.
  std::vector<FnCase> Cases;
  for (const char *Target : {"RISCV", "RI5CY", "XCORE", "ARM", "Mips"})
    for (const auto &F : sharedCorpus().backend(Target)->Functions)
      Cases.push_back({Target, F->InterfaceName});
  return Cases;
}

} // namespace

class FunctionPropertyTest : public ::testing::TestWithParam<FnCase> {};

TEST_P(FunctionPropertyTest, RenderParseRenderIsAFixpoint) {
  const auto &[Target, Iface] = GetParam();
  const BackendFunction *Fn = sharedCorpus().backend(Target)->find(Iface);
  ASSERT_NE(Fn, nullptr);
  std::string Once = Fn->AST.render();
  auto Reparsed = parseFunction(Once);
  ASSERT_TRUE(Reparsed.isOk());
  EXPECT_EQ(Reparsed->render(), Once);
}

TEST_P(FunctionPropertyTest, NormalizationIsIdempotent) {
  const auto &[Target, Iface] = GetParam();
  const BackendFunction *Fn = sharedCorpus().backend(Target)->find(Iface);
  ASSERT_NE(Fn, nullptr);
  FunctionAST Copy = Fn->AST.clone();
  // The corpus preprocessor already normalized once; a second pass must be
  // a no-op.
  EXPECT_EQ(normalizeSelectionStatements(Copy), 0u);
  EXPECT_EQ(Copy.render(), Fn->AST.render());
}

TEST_P(FunctionPropertyTest, InterpretationIsDeterministic) {
  const auto &[Target, Iface] = GetParam();
  const BackendFunction *Fn = sharedCorpus().backend(Target)->find(Iface);
  const TargetTraits *Traits = sharedCorpus().targets().find(Target);
  ASSERT_NE(Fn, nullptr);
  Interpreter Interp;
  for (const Environment &Env : buildTestEnvironments(Iface, *Traits)) {
    ExecResult A = Interp.run(Fn->AST, Env);
    ExecResult B = Interp.run(Fn->AST, Env);
    EXPECT_TRUE(A.equivalent(B));
    EXPECT_EQ(A.Trace, B.Trace);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampledFunctions, FunctionPropertyTest,
    ::testing::ValuesIn(sampledFunctions()),
    [](const ::testing::TestParamInfo<FnCase> &Info) {
      return Info.param.Target + "_" + Info.param.Interface;
    });

TEST(TemplateProperty, BuildingTwiceIsIdentical) {
  auto Groups = sharedCorpus().trainingGroups();
  for (const FunctionGroup &G : Groups) {
    FunctionTemplate A = buildFunctionTemplate(G);
    FunctionTemplate B = buildFunctionTemplate(G);
    EXPECT_EQ(A.render(), B.render()) << G.InterfaceName;
    EXPECT_EQ(A.rows().size(), B.rows().size()) << G.InterfaceName;
  }
}

TEST(TemplateProperty, EveryInstanceRendersFromItsRow) {
  // Substituting an instance's fillers back into its row's placeholders
  // must reproduce the instance's token count.
  auto Groups = sharedCorpus().trainingGroups();
  for (const FunctionGroup &G : Groups) {
    FunctionTemplate FT = buildFunctionTemplate(G);
    for (const TemplateRow *Row : FT.rows()) {
      for (const auto &[Target, Instances] : Row->PerTarget) {
        for (const auto &Inst : Instances) {
          size_t FillerTokens = 0;
          for (const auto &F : Inst.SlotFillers)
            FillerTokens += F.size();
          EXPECT_EQ(Row->commonTokenCount() + FillerTokens,
                    Inst.Stmt->Tokens.size())
              << G.InterfaceName << " row " << Row->Index << " target "
              << Target;
        }
      }
    }
  }
}
