//===- tests/GumtreeTest.cpp - vega_gumtree unit tests -------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "gumtree/LCS.h"
#include "gumtree/Matcher.h"

#include "ast/Parser.h"

#include <gtest/gtest.h>

using namespace vega;

TEST(LCS, BasicSubsequence) {
  std::vector<int> A = {1, 2, 3, 4, 5};
  std::vector<int> B = {2, 4, 5, 6};
  auto Pairs = longestCommonSubsequence(A, B);
  ASSERT_EQ(Pairs.size(), 3u);
  EXPECT_EQ(A[Pairs[0].first], 2);
  EXPECT_EQ(A[Pairs[1].first], 4);
  EXPECT_EQ(A[Pairs[2].first], 5);
}

TEST(LCS, EmptyInputs) {
  std::vector<int> A, B = {1};
  EXPECT_TRUE(longestCommonSubsequence(A, B).empty());
  EXPECT_TRUE(longestCommonSubsequence(B, A).empty());
}

TEST(LCS, IndicesStrictlyIncrease) {
  std::vector<int> A = {1, 1, 2, 1, 2};
  std::vector<int> B = {1, 2, 1, 2, 1};
  auto Pairs = longestCommonSubsequence(A, B);
  for (size_t I = 1; I < Pairs.size(); ++I) {
    EXPECT_GT(Pairs[I].first, Pairs[I - 1].first);
    EXPECT_GT(Pairs[I].second, Pairs[I - 1].second);
  }
  EXPECT_EQ(Pairs.size(), 4u);
}

TEST(LCS, CustomPredicate) {
  std::vector<std::string> A = {"Alpha", "BETA"};
  std::vector<std::string> B = {"alpha", "beta"};
  auto Pairs = longestCommonSubsequence(
      A, B, [](const std::string &X, const std::string &Y) {
        return X.size() == Y.size();
      });
  EXPECT_EQ(Pairs.size(), 2u);
}

TEST(Similarity, IdenticalStatementsScoreOne) {
  Statement A = parseStatementLine("return ELF::R_ARM_NONE;");
  Statement B = parseStatementLine("return ELF::R_ARM_NONE;");
  EXPECT_DOUBLE_EQ(statementSimilarity(A, B), 1.0);
}

TEST(Similarity, DifferentKindsArePenalized) {
  Statement A = parseStatementLine("return x;");
  Statement B = parseStatementLine("break;");
  EXPECT_LT(statementSimilarity(A, B), 0.5);
}

TEST(Hashing, SubtreeHashSeesChildren) {
  auto F1 = parseFunction("int f() {\n if (x) {\n return 1;\n }\n}");
  auto F2 = parseFunction("int f() {\n if (x) {\n return 2;\n }\n}");
  ASSERT_TRUE(F1.isOk() && F2.isOk());
  EXPECT_EQ(statementShapeHash(*F1->Body[0]), statementShapeHash(*F2->Body[0]));
  EXPECT_NE(statementSubtreeHash(*F1->Body[0]),
            statementSubtreeHash(*F2->Body[0]));
}

namespace {

const char *ArmReloc = R"(
unsigned ARMELFObjectWriter::getRelocType(const MCValue &Target, const MCFixup &Fixup, bool IsPCRel) const {
  unsigned Kind = Fixup.getTargetKind();
  MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();
  if (IsPCRel) {
    switch (Kind) {
    case ARM::fixup_arm_movt_hi16:
      return ELF::R_ARM_MOVT_PREL;
    default:
      report_fatal_error("invalid fixup kind");
    }
  }
  return ELF::R_ARM_NONE;
}
)";

const char *MipsReloc = R"(
unsigned MipsELFObjectWriter::getRelocType(const MCValue &Target, const MCFixup &Fixup, bool IsPCRel) const {
  unsigned Kind = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (Kind) {
    case Mips::fixup_MIPS_HI16:
      return ELF::R_MIPS_HI16;
    default:
      report_fatal_error("invalid fixup kind");
    }
  }
  return ELF::R_MIPS_NONE;
}
)";

} // namespace

TEST(Matcher, AlignsThePaperExample) {
  auto A = parseFunction(ArmReloc);
  auto M = parseFunction(MipsReloc);
  ASSERT_TRUE(A.isOk() && M.isOk());
  TreeMapping Mapping = matchFunctions(*A, *M);

  // Definitions always match.
  EXPECT_EQ(Mapping.getDst(&A->Definition), &M->Definition);
  // S1 (the decl) matches S1.
  EXPECT_EQ(Mapping.getDst(A->Body[0].get()), M->Body[0].get());
  // ARM's VariantKind statement (S2) has no MIPS partner.
  EXPECT_EQ(Mapping.getDst(A->Body[1].get()), nullptr);
  // The if-statements match (ARM body index 2, MIPS body index 1).
  EXPECT_EQ(Mapping.getDst(A->Body[2].get()), M->Body[1].get());
}

TEST(Matcher, IdenticalFunctionsMatchCompletely) {
  auto A = parseFunction(ArmReloc);
  auto B = parseFunction(ArmReloc);
  ASSERT_TRUE(A.isOk() && B.isOk());
  TreeMapping Mapping = matchFunctions(*A, *B);
  EXPECT_EQ(Mapping.size(), A->size());
  for (const auto &FS : A->flatten())
    EXPECT_NE(Mapping.getDst(FS.Stmt), nullptr);
}

TEST(Matcher, MappingIsOneToOne) {
  auto A = parseFunction(ArmReloc);
  auto M = parseFunction(MipsReloc);
  ASSERT_TRUE(A.isOk() && M.isOk());
  TreeMapping Mapping = matchFunctions(*A, *M);
  std::set<const Statement *> Seen;
  for (const auto &FS : A->flatten()) {
    const Statement *Dst = Mapping.getDst(FS.Stmt);
    if (!Dst)
      continue;
    EXPECT_TRUE(Seen.insert(Dst).second) << "duplicate mapping target";
    EXPECT_EQ(Mapping.getSrc(Dst), FS.Stmt);
  }
}

TEST(Matcher, EmptyBodiesStillMatchDefinitions) {
  auto A = parseFunction("int f() {\n}");
  auto B = parseFunction("int f() {\n}");
  ASSERT_TRUE(A.isOk() && B.isOk());
  TreeMapping Mapping = matchFunctions(*A, *B);
  EXPECT_EQ(Mapping.size(), 1u);
}
