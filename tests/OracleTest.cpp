//===- tests/OracleTest.cpp - pluggable oracle API tests ------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "eval/Oracle.h"

#include "ast/Parser.h"
#include "eval/Harness.h"

#include <gtest/gtest.h>

using namespace vega;
using namespace vega::eval;

namespace {

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

FunctionAST parse(const char *Src) {
  auto Fn = parseFunction(Src);
  EXPECT_TRUE(Fn.isOk()) << Fn.status().toString();
  return std::move(*Fn);
}

/// An interface name no curated spec covers: buildTestEnvironments falls
/// back to one empty environment, so every differential case runs the
/// bare function and divergence classes are fully predictable.
constexpr const char *UnknownIface = "oracleTestFixture";

} // namespace

TEST(OracleVerdict, FullAndFractionSemantics) {
  OracleVerdict V;
  EXPECT_TRUE(V.full()); // vacuous: zero cases, no error
  EXPECT_DOUBLE_EQ(V.fraction(), 1.0);

  V.Cases = 4;
  V.Passed = 4;
  EXPECT_TRUE(V.full());
  EXPECT_DOUBLE_EQ(V.fraction(), 1.0);

  V.Passed = 3;
  EXPECT_FALSE(V.full());
  EXPECT_DOUBLE_EQ(V.fraction(), 0.75);

  V.CandidateError = true;
  EXPECT_FALSE(V.full());
  EXPECT_DOUBLE_EQ(V.fraction(), 0.0);
}

TEST(OracleKindParsing, RoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parseOracleKind("text"), OracleKind::Text);
  EXPECT_EQ(parseOracleKind("differential"), OracleKind::Differential);
  EXPECT_EQ(parseOracleKind("both"), OracleKind::Both);
  EXPECT_FALSE(parseOracleKind("Text").has_value());
  EXPECT_FALSE(parseOracleKind("").has_value());
  EXPECT_FALSE(parseOracleKind("random").has_value());
  for (OracleKind K :
       {OracleKind::Text, OracleKind::Differential, OracleKind::Both})
    EXPECT_EQ(parseOracleKind(oracleKindName(K)), K);
}

TEST(TextOracle, MatchesFunctionPassesRegressionOnGolden) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  const Backend *B = sharedCorpus().backend("RISCV");
  ASSERT_NE(B, nullptr);
  for (const auto &Fn : B->Functions) {
    OracleVerdict V =
        textOracle().score(Fn->AST, Fn->AST, Fn->InterfaceName, Traits);
    EXPECT_TRUE(V.full()) << Fn->InterfaceName;
    EXPECT_EQ(textOracle().passes(Fn->AST, Fn->AST, Fn->InterfaceName, Traits),
              functionPassesRegression(Fn->AST, Fn->AST, Fn->InterfaceName,
                                       Traits))
        << Fn->InterfaceName;
  }
}

TEST(TextOracle, WrongReturnFailsAndInterpreterRejectionIsCandidateError) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  FunctionAST Golden = parse("int f() {\n return 1;\n}");
  FunctionAST Wrong = parse("int f() {\n return 2;\n}");
  // An unbound symbol in arithmetic makes the interpreter reject the run.
  FunctionAST Broken = parse("int f() {\n return mystery + 1;\n}");

  OracleVerdict Same = textOracle().score(Golden, Golden, UnknownIface, Traits);
  EXPECT_TRUE(Same.full());
  EXPECT_EQ(Same.Cases, 1u);

  OracleVerdict Bad = textOracle().score(Wrong, Golden, UnknownIface, Traits);
  EXPECT_FALSE(Bad.full());
  EXPECT_EQ(Bad.Passed, 0u);
  EXPECT_FALSE(Bad.CandidateError);

  OracleVerdict Rejected =
      textOracle().score(Broken, Golden, UnknownIface, Traits);
  EXPECT_FALSE(Rejected.full());
  EXPECT_TRUE(Rejected.CandidateError);
  EXPECT_DOUBLE_EQ(Rejected.fraction(), 0.0);
}

TEST(DifferentialOracle, CasesAreSeedDeterministic) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  const Backend *B = sharedCorpus().backend("RISCV");
  const DifferentialOracle &Oracle = differentialOracle();
  for (const auto &Fn : B->Functions) {
    std::vector<Environment> A = Oracle.buildCases(Fn->InterfaceName, Traits);
    std::vector<Environment> C = Oracle.buildCases(Fn->InterfaceName, Traits);
    ASSERT_EQ(A.size(),
              static_cast<size_t>(Oracle.options().CaseBudget));
    ASSERT_EQ(A.size(), C.size());
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].vars(), C[I].vars())
          << Fn->InterfaceName << " case " << I;
      EXPECT_EQ(A[I].calls(), C[I].calls())
          << Fn->InterfaceName << " case " << I;
    }
  }
}

TEST(DifferentialOracle, SeedChangesTheCaseSet) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  const Backend *B = sharedCorpus().backend("RISCV");
  DifferentialOracle::Options Other;
  Other.Seed = 0x1234567;
  DifferentialOracle Reseeded(Other);
  bool AnyDiffer = false;
  for (const auto &Fn : B->Functions) {
    std::vector<Environment> A =
        differentialOracle().buildCases(Fn->InterfaceName, Traits);
    std::vector<Environment> C =
        Reseeded.buildCases(Fn->InterfaceName, Traits);
    for (size_t I = 0; I < A.size() && !AnyDiffer; ++I)
      AnyDiffer = A[I].vars() != C[I].vars() || A[I].calls() != C[I].calls();
    if (AnyDiffer)
      break;
  }
  EXPECT_TRUE(AnyDiffer);
}

TEST(DifferentialOracle, GoldenIsSelfEquivalentOnEveryTarget) {
  for (const char *Target : {"RISCV", "RI5CY", "XCORE"}) {
    const TargetTraits &Traits = *sharedCorpus().targets().find(Target);
    const Backend *B = sharedCorpus().backend(Target);
    ASSERT_NE(B, nullptr) << Target;
    for (const auto &Fn : B->Functions) {
      OracleVerdict V = differentialOracle().score(Fn->AST, Fn->AST,
                                                   Fn->InterfaceName, Traits);
      EXPECT_TRUE(V.full()) << Target << "::" << Fn->InterfaceName;
      EXPECT_EQ(V.ValDivergences, 0u) << Fn->InterfaceName;
      EXPECT_EQ(V.TrapDivergences, 0u) << Fn->InterfaceName;
      EXPECT_EQ(V.EffDivergences, 0u) << Fn->InterfaceName;
    }
  }
}

TEST(DifferentialOracle, VerdictsAreRepeatable) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  const Backend *B = sharedCorpus().backend("RISCV");
  const BackendFunction *Fn = B->find("getRelocType");
  ASSERT_NE(Fn, nullptr);
  OracleVerdict A = differentialOracle().score(Fn->AST, Fn->AST,
                                               Fn->InterfaceName, Traits);
  OracleVerdict C = differentialOracle().score(Fn->AST, Fn->AST,
                                               Fn->InterfaceName, Traits);
  EXPECT_EQ(A.Passed, C.Passed);
  EXPECT_EQ(A.Cases, C.Cases);
  EXPECT_EQ(A.CandidateError, C.CandidateError);
  EXPECT_EQ(A.ValDivergences, C.ValDivergences);
  EXPECT_EQ(A.TrapDivergences, C.TrapDivergences);
  EXPECT_EQ(A.EffDivergences, C.EffDivergences);
}

TEST(DifferentialOracle, WrongValueClassifiesAsDivVal) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  FunctionAST Golden = parse("int f() {\n return 1;\n}");
  FunctionAST Wrong = parse("int f() {\n return 2;\n}");
  OracleVerdict V =
      differentialOracle().score(Wrong, Golden, UnknownIface, Traits);
  EXPECT_FALSE(V.full());
  EXPECT_EQ(V.Passed, 0u);
  EXPECT_EQ(V.ValDivergences, V.Cases);
  EXPECT_EQ(V.TrapDivergences, 0u);
  EXPECT_EQ(V.EffDivergences, 0u);
}

TEST(DifferentialOracle, TrapOnOneSideClassifiesAsDivTrap) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  FunctionAST Golden = parse("int f() {\n return 1;\n}");
  FunctionAST Trapping =
      parse("int f() {\n report_fatal_error(\"boom\");\n}");
  OracleVerdict V =
      differentialOracle().score(Trapping, Golden, UnknownIface, Traits);
  EXPECT_FALSE(V.full());
  EXPECT_EQ(V.TrapDivergences, V.Cases);
  EXPECT_EQ(V.ValDivergences, 0u);
  EXPECT_EQ(V.EffDivergences, 0u);
}

TEST(DifferentialOracle, EffectTraceMismatchClassifiesAsDivEff) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  // Same return value, different side effects: unbound statement-level
  // calls are recorded in the effect trace.
  FunctionAST Golden = parse("int f() {\n doThing(1);\n return 3;\n}");
  FunctionAST Other = parse("int f() {\n doThing(2);\n return 3;\n}");
  OracleVerdict V =
      differentialOracle().score(Other, Golden, UnknownIface, Traits);
  EXPECT_FALSE(V.full());
  EXPECT_EQ(V.EffDivergences, V.Cases);
  EXPECT_EQ(V.ValDivergences, 0u);
  EXPECT_EQ(V.TrapDivergences, 0u);
}

TEST(DifferentialOracle, InterpreterRejectionIsCandidateErrorAndDivTrap) {
  const TargetTraits &Traits = *sharedCorpus().targets().find("RISCV");
  FunctionAST Golden = parse("int f() {\n return 1;\n}");
  FunctionAST Broken = parse("int f() {\n return mystery + 1;\n}");
  OracleVerdict V =
      differentialOracle().score(Broken, Golden, UnknownIface, Traits);
  EXPECT_TRUE(V.CandidateError);
  EXPECT_FALSE(V.full());
  EXPECT_EQ(V.TrapDivergences, V.Cases);
}
