//===- tests/CorpusTest.cpp - vega_corpus unit tests ---------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"
#include "corpus/Corpus.h"
#include "corpus/SynthFramework.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

/// The corpus is expensive to build; share one across the whole suite.
const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

} // namespace

TEST(TargetDatabase, HasTrainingAndEvaluationTargets) {
  TargetDatabase DB = TargetDatabase::standard();
  EXPECT_EQ(DB.targets().size(), 24u);
  EXPECT_EQ(DB.trainingTargets().size(), 21u);
  for (const std::string &Name : TargetDatabase::evaluationTargetNames()) {
    const TargetTraits *T = DB.find(Name);
    ASSERT_NE(T, nullptr) << Name;
  }
}

TEST(TargetDatabase, EvaluationTargetsMatchThePaper) {
  TargetDatabase DB = TargetDatabase::standard();
  const TargetTraits *RiscV = DB.find("RISCV");
  ASSERT_NE(RiscV, nullptr);
  EXPECT_TRUE(RiscV->HasCompressed);
  const TargetTraits *Ri5cy = DB.find("RI5CY");
  ASSERT_NE(Ri5cy, nullptr);
  EXPECT_TRUE(Ri5cy->HasHardwareLoop); // ULP DSP extensions
  EXPECT_TRUE(Ri5cy->HasSimd);
  const TargetTraits *Xcore = DB.find("XCORE");
  ASSERT_NE(Xcore, nullptr);
  EXPECT_TRUE(Xcore->HasThreadScheduler);
  EXPECT_FALSE(Xcore->HasDisassembler); // LLVM 3.0 port lacks DIS (§4.1.4)
}

TEST(TargetDatabase, EveryTargetHasCoreInstructionClasses) {
  TargetDatabase DB = TargetDatabase::standard();
  for (const TargetTraits &T : DB.targets()) {
    EXPECT_NE(T.findInstr(InstrClass::Alu), nullptr) << T.Name;
    EXPECT_NE(T.findInstr(InstrClass::Load), nullptr) << T.Name;
    EXPECT_NE(T.findInstr(InstrClass::Branch), nullptr) << T.Name;
    EXPECT_NE(T.findInstr(InstrClass::Ret), nullptr) << T.Name;
    EXPECT_FALSE(T.Fixups.empty()) << T.Name;
    EXPECT_FALSE(T.RegisterNames.empty()) << T.Name;
  }
}

TEST(TargetDatabase, FeatureInstructionsTrackFlags) {
  TargetDatabase DB = TargetDatabase::standard();
  for (const TargetTraits &T : DB.targets()) {
    EXPECT_EQ(T.findInstr(InstrClass::HwLoop) != nullptr, T.HasHardwareLoop)
        << T.Name;
    EXPECT_EQ(T.findInstr(InstrClass::Simd) != nullptr, T.HasSimd) << T.Name;
    EXPECT_EQ(T.findInstr(InstrClass::Thread) != nullptr,
              T.HasThreadScheduler)
        << T.Name;
  }
}

TEST(SplitFunctionSources, SplitsMultipleDefinitions) {
  const char *Src = R"(
int a() {
  return 1;
}

int b(int x) {
  if (x) {
    return 2;
  }
  return 3;
}
)";
  auto Pieces = splitFunctionSources(Src);
  ASSERT_EQ(Pieces.size(), 2u);
  EXPECT_NE(Pieces[0].find("int a()"), std::string::npos);
  EXPECT_NE(Pieces[1].find("int b(int x)"), std::string::npos);
}

TEST(Preprocess, InlinesForwardingHelper) {
  const char *Src = R"(
unsigned W::getRelocType(int K) {
  return GetRelocTypeInner(K);
}
unsigned W::GetRelocTypeInner(int K) {
  if (K) {
    return 1;
  }
  return 2;
}
)";
  auto Fn = preprocessFunctionSource(Src);
  ASSERT_TRUE(Fn.isOk());
  EXPECT_EQ(Fn->Name, "getRelocType");
  // The body is the helper's, not the forwarding return.
  ASSERT_EQ(Fn->Body.size(), 2u);
  EXPECT_EQ(Fn->Body[0]->Kind, StmtKind::If);
}

TEST(Corpus, BuildsAllBackends) {
  const BackendCorpus &Corpus = sharedCorpus();
  EXPECT_EQ(Corpus.backends().size(), 24u);
  for (const auto &B : Corpus.backends()) {
    EXPECT_GE(B->Functions.size(), 30u) << B->TargetName;
    EXPECT_GT(B->statementCount(), 150u) << B->TargetName;
  }
}

TEST(Corpus, VariantKindOnlyInVariantTargets) {
  const BackendCorpus &Corpus = sharedCorpus();
  const Backend *Arm = Corpus.backend("ARM");
  const Backend *Mips = Corpus.backend("Mips");
  ASSERT_NE(Arm, nullptr);
  ASSERT_NE(Mips, nullptr);
  auto HasVariantStmt = [](const Backend &B) {
    const BackendFunction *F = B.find("getRelocType");
    for (const auto &FS : F->AST.flatten())
      for (const Token &T : FS.Stmt->Tokens)
        if (T.Text == "VariantKind")
          return true;
    return false;
  };
  EXPECT_TRUE(HasVariantStmt(*Arm));   // paper Fig. 2(a) S2 present
  EXPECT_FALSE(HasVariantStmt(*Mips)); // paper Fig. 2(b) S2 absent
}

TEST(Corpus, DisassemblerAbsentForXCORE) {
  const BackendCorpus &Corpus = sharedCorpus();
  const Backend *Xcore = Corpus.backend("XCORE");
  ASSERT_NE(Xcore, nullptr);
  EXPECT_EQ(Xcore->find("getInstruction"), nullptr);
  EXPECT_EQ(Xcore->find("readInstruction32"), nullptr);
}

TEST(Corpus, FunctionGroupsCoverTrainingTargets) {
  const BackendCorpus &Corpus = sharedCorpus();
  auto Groups = Corpus.trainingGroups();
  EXPECT_EQ(Groups.size(), interfaceFunctions().size());
  for (const FunctionGroup &G : Groups) {
    EXPECT_FALSE(G.Members.empty()) << G.InterfaceName;
    for (const BackendFunction *F : G.Members)
      EXPECT_EQ(F->InterfaceName, G.InterfaceName);
  }
  // getRelocType applies to every training target.
  for (const FunctionGroup &G : Groups)
    if (G.InterfaceName == "getRelocType") {
      EXPECT_EQ(G.Members.size(), 21u);
    }
}

TEST(Corpus, GoldenSourcesReparseToTheirOwnRender) {
  const BackendCorpus &Corpus = sharedCorpus();
  // Property: every preprocessed golden AST renders to text that reparses
  // to an identical statement tree.
  for (const auto &B : Corpus.backends()) {
    for (const auto &F : B->Functions) {
      auto Fn2 = parseFunction(F->AST.render());
      ASSERT_TRUE(Fn2.isOk())
          << B->TargetName << "::" << F->InterfaceName;
      EXPECT_EQ(Fn2->size(), F->AST.size())
          << B->TargetName << "::" << F->InterfaceName;
    }
  }
}

TEST(Corpus, DescriptionFilesExistForEveryTarget) {
  const BackendCorpus &Corpus = sharedCorpus();
  for (const TargetTraits &T : Corpus.targets().targets()) {
    std::string Dir = "lib/Target/" + T.Name + "/";
    EXPECT_TRUE(Corpus.vfs().exists(Dir + T.Name + ".td")) << T.Name;
    EXPECT_TRUE(Corpus.vfs().exists(Dir + T.Name + "InstrInfo.td")) << T.Name;
    EXPECT_TRUE(Corpus.vfs().exists(Dir + T.Name + "FixupKinds.h")) << T.Name;
    EXPECT_TRUE(Corpus.vfs().exists("llvm/BinaryFormat/ELFRelocs/" + T.Name +
                                    ".def"))
        << T.Name;
  }
  for (const std::string &Dir : llvmDirs())
    EXPECT_FALSE(Corpus.vfs().filesUnder(Dir).empty()) << Dir;
}
