//===- bench/ablation_split_strategy.cpp - §4.2 split ablation ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// §4.2's dataset ablation: the function-group-based 75/25 split (default)
/// versus the backend-based split that risks leaving whole function
/// templates uncovered. Paper anchor: the backend-based split costs 26.2 /
/// 25.2 / 11.1 accuracy points. Shape to match: backend-based split is
/// clearly worse on the generated backend. The ablated model trains fewer
/// epochs than the main one; both arms here use the same budget, so the
/// comparison is fair.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/TextTable.h"

#include <cstdio>

using namespace vega;

namespace {

double accuracyWithSplit(VegaOptions::SplitKind Split, double &ExactMatch) {
  VegaOptions Opts;
  Opts.Model.Epochs = std::max(2, bench::defaultEpochs() / 4);
  Opts.Split = Split;
  Opts.Verbose = true;
  std::unique_ptr<VegaSystem> Sys = bench::trainedSystem(Opts);
  ExactMatch = Sys->verificationExactMatch(400);
  GeneratedBackend GB = Sys->generateBackend("RISCV");
  BackendEval Eval =
      evaluateBackend(GB, *bench::corpus().backend("RISCV"),
                      *bench::corpus().targets().find("RISCV"));
  return Eval.functionAccuracy();
}

} // namespace

int main() {
  double EmGroup = 0.0, EmBackend = 0.0;
  double AccGroup =
      accuracyWithSplit(VegaOptions::SplitKind::FunctionGroup, EmGroup);
  double AccBackend =
      accuracyWithSplit(VegaOptions::SplitKind::BackendBased, EmBackend);

  TextTable Table;
  Table.setHeader({"Split strategy", "Verify EM", "RISCV fn accuracy"});
  Table.addRow({"function-group (75/25 within groups)",
                TextTable::formatPercent(EmGroup),
                TextTable::formatPercent(AccGroup)});
  Table.addRow({"backend-based (75/25 whole backends)",
                TextTable::formatPercent(EmBackend),
                TextTable::formatPercent(AccBackend)});
  std::printf("== §4.2 ablation: dataset split strategy ==\n%s\n",
              Table.render().c_str());
  std::printf("accuracy delta (group - backend): %+.1f points; paper: "
              "-26.2 points for RISC-V when switching to the backend-based "
              "split\n",
              (AccGroup - AccBackend) * 100.0);
  return 0;
}
