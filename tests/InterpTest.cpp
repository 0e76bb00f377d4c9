//===- tests/InterpTest.cpp - vega_interp unit tests ----------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "ast/Parser.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

ExecResult runSource(const char *Src, const Environment &Env) {
  auto Fn = parseFunction(Src);
  EXPECT_TRUE(Fn.isOk()) << Fn.status().toString();
  Interpreter Interp;
  return Interp.run(*Fn, Env);
}

} // namespace

TEST(Interp, ReturnsIntegerArithmetic) {
  ExecResult R = runSource("int f() {\n return 2 + 3 * 4 - 1;\n}", {});
  ASSERT_EQ(R.St, ExecResult::Status::Ok);
  EXPECT_EQ(R.Return, Value::integer(13));
}

TEST(Interp, ParenthesesAndUnary) {
  ExecResult R = runSource("int f() {\n return -(2 + 3) * 2;\n}", {});
  EXPECT_EQ(R.Return, Value::integer(-10));
  R = runSource("int f() {\n return !0;\n}", {});
  EXPECT_EQ(R.Return, Value::boolean(true));
}

TEST(Interp, VariableBindingAndAssignment) {
  ExecResult R = runSource(
      "int f() {\n int x = 5;\n x = x + 2;\n return x;\n}", {});
  EXPECT_EQ(R.Return, Value::integer(7));
}

TEST(Interp, ParameterBindings) {
  Environment Env;
  Env.bind("Imm", Value::integer(100));
  ExecResult R = runSource("bool f(int Imm) {\n return Imm > 50;\n}", Env);
  EXPECT_EQ(R.Return, Value::boolean(true));
}

TEST(Interp, IfElseChains) {
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
  for (auto [In, Out] : std::vector<std::pair<int, int>>{
           {1, 10}, {2, 20}, {7, 30}}) {
    Environment Env;
    Env.bind("x", Value::integer(In));
    EXPECT_EQ(runSource(Src, Env).Return, Value::integer(Out));
  }
}

TEST(Interp, SwitchMatchesSymbols) {
  const char *Src = R"(
unsigned f() {
  unsigned Kind = Fixup.getTargetKind();
  switch (Kind) {
  case ARM::fixup_arm_movt_hi16:
    return ELF::R_ARM_MOVT_ABS;
  case FK_Data_4:
    return ELF::R_ARM_ABS32;
  default:
    report_fatal_error("invalid fixup kind");
  }
}
)";
  Environment Env;
  Env.bindCall("Fixup.getTargetKind",
               Value::symbol("ARM::fixup_arm_movt_hi16"));
  ExecResult R = runSource(Src, Env);
  ASSERT_EQ(R.St, ExecResult::Status::Ok);
  EXPECT_EQ(R.Return, Value::symbol("ELF::R_ARM_MOVT_ABS"));

  Environment Env2;
  Env2.bindCall("Fixup.getTargetKind", Value::symbol("FK_Data_4"));
  EXPECT_EQ(runSource(Src, Env2).Return, Value::symbol("ELF::R_ARM_ABS32"));

  Environment Env3;
  Env3.bindCall("Fixup.getTargetKind", Value::symbol("something_else"));
  ExecResult R3 = runSource(Src, Env3);
  EXPECT_EQ(R3.St, ExecResult::Status::Trap);
  EXPECT_EQ(R3.Message, "invalid fixup kind");
}

TEST(Interp, SwitchFallthroughAndBreak) {
  const char *Src = R"(
int f(int x) {
  int acc = 0;
  switch (x) {
  case 1:
    acc = acc + 1;
  case 2:
    acc = acc + 2;
    break;
  case 3:
    acc = acc + 4;
  }
  return acc;
}
)";
  for (auto [In, Out] : std::vector<std::pair<int, int>>{
           {1, 3}, {2, 2}, {3, 4}, {9, 0}}) {
    Environment Env;
    Env.bind("x", Value::integer(In));
    EXPECT_EQ(runSource(Src, Env).Return, Value::integer(Out)) << In;
  }
}

TEST(Interp, EffectsAreTraced) {
  const char *Src = R"(
void f() {
  adjustStackPointer(SP, -16);
  copyRegister(FP, SP);
}
)";
  ExecResult R = runSource(Src, {});
  ASSERT_EQ(R.St, ExecResult::Status::Ok);
  ASSERT_EQ(R.Trace.size(), 2u);
  EXPECT_EQ(R.Trace[0], "adjustStackPointer(SP, -16)");
  EXPECT_EQ(R.Trace[1], "copyRegister(FP, SP)");
}

TEST(Interp, BuiltinAlignToAndIsIntN) {
  ExecResult R = runSource("int f() {\n return alignTo(13, 8);\n}", {});
  EXPECT_EQ(R.Return, Value::integer(16));
  R = runSource("bool f() {\n return isIntN(12, 2047);\n}", {});
  EXPECT_EQ(R.Return, Value::boolean(true));
  R = runSource("bool f() {\n return isIntN(12, 2048);\n}", {});
  EXPECT_EQ(R.Return, Value::boolean(false));
  R = runSource("bool f() {\n return isIntN(12, -2048);\n}", {});
  EXPECT_EQ(R.Return, Value::boolean(true));
}

TEST(Interp, MarkReservedAccumulatesSymbolically) {
  const char *Src = R"(
int f() {
  int Reserved = 0;
  Reserved = markReserved(Reserved, RISCV::X2);
  Reserved = markReserved(Reserved, RISCV::X1);
  return Reserved;
}
)";
  ExecResult R = runSource(Src, {});
  EXPECT_EQ(R.Return, Value::symbol("0|RISCV::X2|RISCV::X1"));
}

TEST(Interp, OrdinalsEnableRelationalSymbols) {
  const char *Src = R"(
bool f(int Kind) {
  if (Kind < FirstTargetFixupKind) {
    return true;
  }
  return false;
}
)";
  Environment Env;
  Env.bind("Kind", Value::symbol("FK_Data_4"));
  Env.setOrdinal("FK_Data_4", 3);
  Env.setOrdinal("FirstTargetFixupKind", 128);
  EXPECT_EQ(runSource(Src, Env).Return, Value::boolean(true));

  Environment Env2;
  Env2.bind("Kind", Value::symbol("fixup_x"));
  Env2.setOrdinal("fixup_x", 130);
  Env2.setOrdinal("FirstTargetFixupKind", 128);
  EXPECT_EQ(runSource(Src, Env2).Return, Value::boolean(false));
}

TEST(Interp, MissingOrdinalIsAnError) {
  Environment Env;
  Env.bind("Kind", Value::symbol("mystery"));
  ExecResult R = runSource("bool f(int Kind) {\n return Kind < 5;\n}", Env);
  EXPECT_EQ(R.St, ExecResult::Status::Error);
}

TEST(Interp, DynamicIntrinsics) {
  Environment Env;
  Env.setIntrinsic([](const std::string &Callee,
                      const std::vector<Value> &Args)
                       -> std::optional<Value> {
    if (Callee == "twice" && Args.size() == 1 && Args[0].isInt())
      return Value::integer(Args[0].IntV * 2);
    return std::nullopt;
  });
  ExecResult R = runSource("int f() {\n return twice(21);\n}", Env);
  EXPECT_EQ(R.Return, Value::integer(42));
}

TEST(Interp, StringLiteralComparisons) {
  const char *Src = R"(
bool f(int IDVal) {
  if (isDirective(IDVal, ".word")) {
    return true;
  }
  return false;
}
)";
  Environment Env;
  Env.bind("IDVal", Value::symbol(".word"));
  EXPECT_EQ(runSource(Src, Env).Return, Value::boolean(true));
  Environment Env2;
  Env2.bind("IDVal", Value::symbol(".long"));
  EXPECT_EQ(runSource(Src, Env2).Return, Value::boolean(false));
}

TEST(Interp, StepBudgetStopsRunaways) {
  // A switch over a constant looping forever is not constructible in this
  // subset, but a huge statement list is bounded by the budget.
  std::string Src = "int f() {\n";
  for (int I = 0; I < 100; ++I)
    Src += "  foo" + std::to_string(I) + "(1);\n";
  Src += "  return 0;\n}";
  auto Fn = parseFunction(Src);
  ASSERT_TRUE(Fn.isOk());
  Interpreter Interp;
  ExecResult R = Interp.run(*Fn, {}, /*StepBudget=*/10);
  EXPECT_EQ(R.St, ExecResult::Status::Error);
}

TEST(Interp, EquivalenceComparesTraces) {
  ExecResult A, B;
  A.St = B.St = ExecResult::Status::Ok;
  A.Return = B.Return = Value::integer(1);
  A.Trace = {"x(1)"};
  B.Trace = {"x(2)"};
  EXPECT_FALSE(A.equivalent(B));
  B.Trace = {"x(1)"};
  EXPECT_TRUE(A.equivalent(B));
}

TEST(Interp, EmitErrorTracesAndReturnsTrue) {
  ExecResult R = runSource(
      "bool f() {\n return emitError(\"bad operand\");\n}", {});
  ASSERT_EQ(R.St, ExecResult::Status::Ok);
  EXPECT_EQ(R.Return, Value::boolean(true));
  ASSERT_EQ(R.Trace.size(), 1u);
  EXPECT_EQ(R.Trace[0], "error: bad operand");
}
