//===- tests/ForkflowTest.cpp - fork-flow baseline tests ------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"
#include "forkflow/ForkFlow.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

} // namespace

TEST(ForkFlow, ChoosesATrainingTarget) {
  for (const std::string &Eval : TargetDatabase::evaluationTargetNames()) {
    std::string Source = chooseForkSource(sharedCorpus(), Eval);
    const TargetTraits *T = sharedCorpus().targets().find(Source);
    ASSERT_NE(T, nullptr) << Source;
    // Never forks from a held-out target.
    for (const std::string &Held : TargetDatabase::evaluationTargetNames())
      EXPECT_NE(Source, Held);
  }
}

TEST(ForkFlow, RI5CYForksFromAHardwareLoopTarget) {
  // RI5CY's closest trait-neighbour has hardware loops (Hexagon-like),
  // matching the paper's observation about Hexagon and RI5CY.
  std::string Source = chooseForkSource(sharedCorpus(), "RI5CY");
  const TargetTraits *T = sharedCorpus().targets().find(Source);
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->HasHardwareLoop) << Source;
}

TEST(ForkFlow, PortRenamesAllSpellings) {
  GeneratedBackend GB = forkflowBackend(sharedCorpus(), "Mips", "RISCV");
  const GeneratedFunction *Fn = GB.find("getRelocType");
  ASSERT_NE(Fn, nullptr);
  ASSERT_TRUE(Fn->Emitted);
  std::string Text = Fn->AST.render();
  EXPECT_EQ(Text.find("Mips"), std::string::npos);
  EXPECT_EQ(Text.find("mips"), std::string::npos);
  EXPECT_EQ(Text.find("MIPS"), std::string::npos);
  EXPECT_NE(Text.find("RISCV"), std::string::npos);
}

TEST(ForkFlow, AccuracyIsFarBelowGolden) {
  // The paper's headline comparison forks from MIPS (§4.2): fork-flow lands
  // far below VEGA while the golden backend is 100% by construction.
  GeneratedBackend GB = forkflowBackend(sharedCorpus(), "Mips", "RISCV");
  BackendEval Eval = evaluateBackend(GB, *sharedCorpus().backend("RISCV"),
                                     *sharedCorpus().targets().find("RISCV"));
  // At our corpus scale functions are 5-15 statements, so a rename-port
  // legitimately satisfies more of them than at LLVM scale (paper: <8%);
  // the preserved shape is VEGA >> ForkFlow, checked in the benches.
  EXPECT_LT(Eval.functionAccuracy(), 0.60);
  EXPECT_GT(Eval.functionAccuracy(), 0.0); // structure-only functions port
}

TEST(ForkFlow, ForkedFixupsFailRegression) {
  GeneratedBackend GB = forkflowBackend(sharedCorpus(), "Mips", "RISCV");
  BackendEval Eval = evaluateBackend(GB, *sharedCorpus().backend("RISCV"),
                                     *sharedCorpus().targets().find("RISCV"));
  for (const FunctionEval &F : Eval.Functions) {
    if (F.InterfaceName == "getRelocType") {
      EXPECT_FALSE(F.Accurate) << "renamed MIPS fixups cannot satisfy RISCV";
    }
    if (F.InterfaceName == "getNumFixupKinds") {
      EXPECT_TRUE(F.Accurate) << "pure-structure functions port fine";
    }
  }
}

TEST(ForkFlow, PortingIsIdempotentOnNeutralSources) {
  // Forking to a target whose name never appears leaves sources intact.
  GeneratedBackend GB = forkflowBackend(sharedCorpus(), "Lanai", "XCORE");
  const Backend *Lanai = sharedCorpus().backend("Lanai");
  const GeneratedFunction *Ported = GB.find("canRealignStack");
  const BackendFunction *Original = Lanai->find("canRealignStack");
  ASSERT_NE(Ported, nullptr);
  ASSERT_NE(Original, nullptr);
  EXPECT_EQ(Ported->AST.size(), Original->AST.size());
}
