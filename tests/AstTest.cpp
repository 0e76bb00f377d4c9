//===- tests/AstTest.cpp - vega_ast unit tests --------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "ast/Normalize.h"
#include "ast/Parser.h"
#include "lexer/Lexer.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

const char *RelocSource = R"(
unsigned ARMELFObjectWriter::getRelocType(const MCValue &Target, const MCFixup &Fixup, bool IsPCRel) const {
  unsigned Kind = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (Kind) {
    case ARM::fixup_arm_branch24:
      return ELF::R_ARM_BRANCH24;
    default:
      report_fatal_error("invalid fixup kind");
    }
  }
  return ELF::R_ARM_NONE;
}
)";

} // namespace

TEST(Parser, ParsesFunctionNameAndQualifier) {
  auto Fn = parseFunction(RelocSource);
  ASSERT_TRUE(Fn.isOk());
  EXPECT_EQ(Fn->Name, "getRelocType");
  EXPECT_EQ(Fn->Qualifier, "ARMELFObjectWriter");
}

TEST(Parser, BuildsNestedStatementTree) {
  auto Fn = parseFunction(RelocSource);
  ASSERT_TRUE(Fn.isOk());
  ASSERT_EQ(Fn->Body.size(), 3u); // decl, if, return
  EXPECT_EQ(Fn->Body[0]->Kind, StmtKind::Decl);
  EXPECT_EQ(Fn->Body[1]->Kind, StmtKind::If);
  EXPECT_EQ(Fn->Body[2]->Kind, StmtKind::Return);
  // The if owns the switch; the switch owns case + default labels.
  ASSERT_EQ(Fn->Body[1]->Children.size(), 1u);
  const Statement &Switch = *Fn->Body[1]->Children[0];
  EXPECT_EQ(Switch.Kind, StmtKind::Switch);
  ASSERT_EQ(Switch.Children.size(), 2u);
  EXPECT_EQ(Switch.Children[0]->Kind, StmtKind::Case);
  EXPECT_EQ(Switch.Children[1]->Kind, StmtKind::Default);
  ASSERT_EQ(Switch.Children[0]->Children.size(), 1u);
  EXPECT_EQ(Switch.Children[0]->Children[0]->Kind, StmtKind::Return);
}

TEST(Parser, RenderReparseRoundTripPreservesTokens) {
  auto Fn = parseFunction(RelocSource);
  ASSERT_TRUE(Fn.isOk());
  std::string Rendered = Fn->render();
  auto Fn2 = parseFunction(Rendered);
  ASSERT_TRUE(Fn2.isOk());
  auto Flat1 = Fn->flatten();
  auto Flat2 = Fn2->flatten();
  ASSERT_EQ(Flat1.size(), Flat2.size());
  for (size_t I = 0; I < Flat1.size(); ++I)
    EXPECT_EQ(Flat1[I].Stmt->Tokens, Flat2[I].Stmt->Tokens)
        << "statement " << I << " differs after round trip";
}

TEST(Parser, ElseChainsParseAsSiblings) {
  const char *Src = R"(
int f(int x) {
  if (x == 1) {
    return 10;
  } else if (x == 2) {
    return 20;
  } else {
    return 30;
  }
}
)";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  ASSERT_EQ(Fn->Body.size(), 3u);
  EXPECT_EQ(Fn->Body[0]->Kind, StmtKind::If);
  EXPECT_EQ(Fn->Body[1]->Kind, StmtKind::ElseIf);
  EXPECT_EQ(Fn->Body[2]->Kind, StmtKind::Else);

  // Round trip keeps the chain.
  auto Fn2 = parseFunction(Fn->render());
  ASSERT_TRUE(Fn2.isOk());
  EXPECT_EQ(Fn2->Body.size(), 3u);
}

TEST(Parser, ClassifiesStatements) {
  EXPECT_EQ(parseStatementLine("unsigned Kind = f();").Kind, StmtKind::Decl);
  EXPECT_EQ(parseStatementLine("Kind = 3;").Kind, StmtKind::Assign);
  EXPECT_EQ(parseStatementLine("return 1;").Kind, StmtKind::Return);
  EXPECT_EQ(parseStatementLine("break;").Kind, StmtKind::Break);
  EXPECT_EQ(parseStatementLine("foo(1, 2);").Kind, StmtKind::Call);
  EXPECT_EQ(parseStatementLine("if (x) {").Kind, StmtKind::If);
  EXPECT_EQ(parseStatementLine("switch (Kind) {").Kind, StmtKind::Switch);
  EXPECT_EQ(parseStatementLine("case ARM::fixup:").Kind, StmtKind::Case);
  EXPECT_EQ(parseStatementLine("default:").Kind, StmtKind::Default);
  EXPECT_EQ(parseStatementLine("MCFixupKind Kind = x;").Kind, StmtKind::Decl);
}

TEST(Parser, RejectsGarbage) {
  // Empty source, no body, no function name: each a typed rejection.
  for (const char *Src : {"", "int x;", "{ return 1; }"})
    EXPECT_EQ(parseFunction(Src).status().code(), StatusCode::InvalidArgument)
        << '"' << Src << '"';
}

TEST(Statement, TreeSizeCountsSubtree) {
  auto Fn = parseFunction(RelocSource);
  ASSERT_TRUE(Fn.isOk());
  // definition + decl + if + switch + case + return + default + call + ret.
  EXPECT_EQ(Fn->size(), 9u);
}

TEST(Statement, CloneIsDeep) {
  auto Fn = parseFunction(RelocSource);
  ASSERT_TRUE(Fn.isOk());
  FunctionAST Copy = Fn->clone();
  // Mutating the copy must not affect the original.
  Copy.Body[0]->Tokens.clear();
  EXPECT_FALSE(Fn->Body[0]->Tokens.empty());
  EXPECT_EQ(Copy.size(), Fn->size());
}

TEST(RenderTokens, SpacingIsCanonical) {
  auto Toks = Lexer::tokenize("return ELF :: R_ARM_NONE ;");
  EXPECT_EQ(renderTokens(Toks), "return ELF::R_ARM_NONE;");
  Toks = Lexer::tokenize("foo ( a , b )");
  EXPECT_EQ(renderTokens(Toks), "foo(a, b)");
}

TEST(Normalize, IfElifChainBecomesSwitch) {
  const char *Src = R"(
int f(int x) {
  if (x == 1) {
    return 10;
  } else if (x == 2) {
    return 20;
  } else {
    return 30;
  }
}
)";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  unsigned Rewritten = normalizeSelectionStatements(*Fn);
  EXPECT_EQ(Rewritten, 1u);
  ASSERT_EQ(Fn->Body.size(), 1u);
  const Statement &Switch = *Fn->Body[0];
  EXPECT_EQ(Switch.Kind, StmtKind::Switch);
  ASSERT_EQ(Switch.Children.size(), 3u); // two cases + default
  EXPECT_EQ(Switch.Children[0]->Kind, StmtKind::Case);
  EXPECT_EQ(Switch.Children[2]->Kind, StmtKind::Default);
}

TEST(Normalize, LoneIfIsLeftAlone) {
  const char *Src = R"(
int f(int x) {
  if (x == 1) {
    return 10;
  }
  return 0;
}
)";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  EXPECT_EQ(normalizeSelectionStatements(*Fn), 0u);
  EXPECT_EQ(Fn->Body[0]->Kind, StmtKind::If);
}

TEST(Normalize, NonEqualityChainIsLeftAlone) {
  const char *Src = R"(
int f(int x) {
  if (x < 1) {
    return 10;
  } else if (x == 2) {
    return 20;
  }
  return 0;
}
)";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  EXPECT_EQ(normalizeSelectionStatements(*Fn), 0u);
}

TEST(Normalize, DifferentScrutineesAreLeftAlone) {
  const char *Src = R"(
int f(int x, int y) {
  if (x == 1) {
    return 10;
  } else if (y == 2) {
    return 20;
  }
  return 0;
}
)";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  EXPECT_EQ(normalizeSelectionStatements(*Fn), 0u);
}
