//===- tests/MiniccTest.cpp - mini compiler + simulator tests -------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"
#include "corpus/Corpus.h"
#include "minicc/Benchmarks.h"
#include "minicc/Compiler.h"
#include "minicc/Hooks.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

const TargetDatabase &sharedDB() {
  static TargetDatabase DB = TargetDatabase::standard();
  return DB;
}

const BackendCorpus &sharedCorpus() {
  static BackendCorpus Corpus = BackendCorpus::build(sharedDB());
  return Corpus;
}

} // namespace

TEST(Benchmarks, SuitesHaveThePaperSizes) {
  EXPECT_EQ(specSuite().size(), 28u);    // §4.1.3 SPEC C/C++ subset
  EXPECT_EQ(pulpSuite().size(), 69u);    // PULP regression tests
  EXPECT_EQ(embenchSuite().size(), 22u); // Embench cases
}

TEST(Benchmarks, ModulesAreDeterministic) {
  IRModule A = buildBenchmark("502.gcc_r");
  IRModule B = buildBenchmark("502.gcc_r");
  ASSERT_EQ(A.Functions.size(), B.Functions.size());
  EXPECT_EQ(printModule(A), printModule(B));
  IRModule C = buildBenchmark("505.mcf_r");
  EXPECT_NE(printModule(A), printModule(C));
}

TEST(Benchmarks, ModulesAreNonTrivial) {
  for (const std::string &Name : embenchSuite()) {
    IRModule M = buildBenchmark(Name);
    EXPECT_GE(M.Functions.size(), 2u) << Name;
    size_t Instrs = 0;
    for (const IRFunction &F : M.Functions)
      Instrs += F.size();
    EXPECT_GT(Instrs, 20u) << Name;
  }
}

TEST(Compiler, O3NeverSlowerThanO0) {
  const TargetTraits *T = sharedDB().find("RISCV");
  BackendHooks Hooks = hooksFromTraits(*T);
  for (const std::string &Name : specSuite()) {
    IRModule M = buildBenchmark(Name);
    SimResult O0 = compileAndRun(M, *T, Hooks, OptLevel::O0);
    SimResult O3 = compileAndRun(M, *T, Hooks, OptLevel::O3);
    EXPECT_LE(O3.Cycles, O0.Cycles) << Name;
    EXPECT_GT(O3.Cycles, 0) << Name;
  }
}

TEST(Compiler, SpeedupsAreInAPlausibleBand) {
  const TargetTraits *T = sharedDB().find("RISCV");
  BackendHooks Hooks = hooksFromTraits(*T);
  for (const std::string &Name : specSuite()) {
    double S = speedupO3(buildBenchmark(Name), *T, Hooks);
    EXPECT_GE(S, 1.0) << Name;
    EXPECT_LE(S, 30.0) << Name;
  }
}

TEST(Compiler, HardwareLoopsImproveConstantTripLoops) {
  const TargetTraits *Ri5cy = sharedDB().find("RI5CY");
  BackendHooks WithHw = hooksFromTraits(*Ri5cy);
  BackendHooks WithoutHw = WithHw;
  WithoutHw.HardwareLoops = false;
  int64_t Better = 0, Total = 0;
  for (const std::string &Name : pulpSuite()) {
    IRModule M = buildBenchmark(Name);
    SimResult A = compileAndRun(M, *Ri5cy, WithHw, OptLevel::O3);
    SimResult B = compileAndRun(M, *Ri5cy, WithoutHw, OptLevel::O3);
    EXPECT_LE(A.Cycles, B.Cycles) << Name;
    ++Total;
    if (A.Cycles < B.Cycles)
      ++Better;
  }
  EXPECT_GT(Better * 2, Total) << "hardware loops should usually help";
}

TEST(Compiler, VectorizationImprovesReductions) {
  const TargetTraits *T = sharedDB().find("RI5CY");
  BackendHooks Vec = hooksFromTraits(*T);
  Vec.VectorWidth = 128;
  BackendHooks NoVec = Vec;
  NoVec.VectorWidth = 0;
  int64_t VecWins = 0;
  for (const std::string &Name : pulpSuite()) {
    IRModule M = buildBenchmark(Name);
    SimResult A = compileAndRun(M, *T, Vec, OptLevel::O3);
    SimResult B = compileAndRun(M, *T, NoVec, OptLevel::O3);
    EXPECT_LE(A.Cycles, B.Cycles) << Name;
    if (A.Cycles < B.Cycles)
      ++VecWins;
  }
  EXPECT_GT(VecWins, 0);
}

TEST(Hooks, TraitsHooksMatchTraitValues) {
  const TargetTraits *T = sharedDB().find("Hexagon");
  BackendHooks Hooks = hooksFromTraits(*T);
  EXPECT_TRUE(Hooks.HardwareLoops);
  EXPECT_EQ(Hooks.VectorWidth, 512);
  EXPECT_EQ(Hooks.Latency(InstrClass::Div),
            T->findInstr(InstrClass::Div)->Cycles);
  EXPECT_EQ(Hooks.Latency(InstrClass::Load), T->LoadLatency);
}

TEST(Hooks, InterpretedGoldenHooksMatchTraitsHooks) {
  // Interpreting the golden backend functions must reproduce the traits
  // hooks — that is the robustness claim of §4.3 in miniature.
  for (const char *Name : {"RISCV", "RI5CY", "XCORE"}) {
    const TargetTraits *T = sharedDB().find(Name);
    const Backend *B = sharedCorpus().backend(Name);
    ASSERT_NE(B, nullptr);
    std::map<std::string, const FunctionAST *> Fns;
    for (const char *Iface :
         {"getInstrLatency", "enablePostRAScheduler",
          "isHardwareLoopProfitable", "getVectorRegisterWidth"})
      if (const BackendFunction *F = B->find(Iface))
        Fns[Iface] = &F->AST;
    BackendHooks FromFns = hooksFromFunctions(*T, Fns);
    BackendHooks FromTraits = hooksFromTraits(*T);
    EXPECT_EQ(FromFns.PostRAScheduler, FromTraits.PostRAScheduler) << Name;
    EXPECT_EQ(FromFns.HardwareLoops, FromTraits.HardwareLoops) << Name;
    EXPECT_EQ(FromFns.VectorWidth, FromTraits.VectorWidth) << Name;
    for (InstrClass C : {InstrClass::Load, InstrClass::Branch,
                         InstrClass::Mul, InstrClass::Div})
      EXPECT_EQ(FromFns.Latency(C), FromTraits.Latency(C))
          << Name << " class " << static_cast<int>(C);
  }
}

TEST(Hooks, BrokenLatencyFunctionFallsBackGracefully) {
  const TargetTraits *T = sharedDB().find("RISCV");
  auto Broken = parseFunction("int f(MachineInstr &MI) {\n return XX(1);\n}");
  ASSERT_TRUE(Broken.isOk());
  std::map<std::string, const FunctionAST *> Fns = {
      {"getInstrLatency", &*Broken}};
  BackendHooks Hooks = hooksFromFunctions(*T, Fns);
  // Falls back to the trait latency instead of crashing.
  EXPECT_EQ(Hooks.Latency(InstrClass::Load), T->LoadLatency);
}

TEST(Simulator, CycleAccountingIsExact) {
  MachineProgram P;
  MachineFunction F;
  MachineBlock B;
  MachineInstr I1;
  I1.Class = InstrClass::Alu;
  I1.Cycles = 1;
  MachineInstr I2;
  I2.Class = InstrClass::Load;
  I2.Cycles = 2;
  MachineInstr I3;
  I3.Class = InstrClass::Alu;
  I3.Cycles = 1;
  I3.DependsOnPrevLoad = true;
  B.Instrs = {I1, I2, I3};
  B.ExecCount = 10;
  F.Blocks.push_back(B);
  P.Functions.push_back(F);

  TargetTraits T;
  T.LoadLatency = 3;
  T.BranchLatency = 2;
  SimResult R = simulate(P, T);
  // Per iteration: 1 + 2 + 1 cycles + (3-1) stall = 6; ×10 = 60.
  EXPECT_EQ(R.Cycles, 60);
  EXPECT_EQ(R.Stalls, 20);
  EXPECT_EQ(R.Instructions, 30);
}

TEST(Simulator, HardwareLoopBlocksSkipBranchStall) {
  MachineProgram P;
  MachineFunction F;
  MachineBlock B;
  MachineInstr Br;
  Br.Class = InstrClass::Branch;
  Br.Cycles = 1;
  B.Instrs = {Br};
  B.ExecCount = 100;
  MachineBlock Hw = B;
  Hw.HardwareLoopBody = true;
  F.Blocks = {B, Hw};
  P.Functions.push_back(F);
  TargetTraits T;
  T.BranchLatency = 3;
  SimResult R = simulate(P, T);
  // Normal block: (1+2)*100; hw block: 1*100.
  EXPECT_EQ(R.Cycles, 300 + 100);
}
