//===- examples/confidence_review.cpp - developer triage ------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// The paper's productivity story (§4.2, Table 4): VEGA attaches a
/// confidence score to every generated function and statement, so a
/// developer starts at the lowest-confidence code. This example generates
/// a backend, sorts functions by confidence, cross-checks the triage
/// against the pass@1 oracle, and prints the suggested review order.
///
///   ./build/examples/confidence_review [RISCV|RI5CY|XCORE] [epochs]
///
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace vega;

int main(int argc, char **argv) {
  std::string Target = argc > 1 ? argv[1] : "RISCV";
  int Epochs = argc > 2 ? std::atoi(argv[2]) : 6;

  BackendCorpus Corpus = BackendCorpus::build(TargetDatabase::standard());
  VegaOptions Opts;
  Opts.Model.Epochs = Epochs;
  VegaSystem Sys(Corpus, Opts);
  Sys.buildTemplates();
  Sys.buildDataset();
  if (Status St = Sys.fineTune(); !St.isOk()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 1;
  }

  GeneratedBackend GB = Sys.generateBackend(Target);
  BackendEval Eval = evaluateBackend(GB, *Corpus.backend(Target),
                                     *Corpus.targets().find(Target));

  std::vector<const FunctionEval *> Order;
  for (const FunctionEval &F : Eval.Functions)
    Order.push_back(&F);
  std::sort(Order.begin(), Order.end(),
            [](const FunctionEval *A, const FunctionEval *B) {
              return A->Confidence < B->Confidence;
            });

  TextTable Table;
  Table.setHeader({"Review order", "Function", "Module", "Confidence",
                   "pass@1", "Manual stmts"});
  int Rank = 1;
  for (const FunctionEval *F : Order)
    Table.addRow({std::to_string(Rank++), F->InterfaceName,
                  moduleName(F->Module),
                  TextTable::formatDouble(F->Confidence, 2),
                  F->Accurate ? "pass" : "FIX",
                  std::to_string(F->ManualStatements)});
  std::printf("== suggested review order for %s (lowest confidence first) "
              "==\n%s\n",
              Target.c_str(), Table.render().c_str());

  // How good is the triage? Average confidence of passing vs failing
  // functions should separate.
  double PassSum = 0.0, FailSum = 0.0;
  size_t PassN = 0, FailN = 0;
  for (const FunctionEval *F : Order) {
    if (F->Accurate) {
      PassSum += F->Confidence;
      ++PassN;
    } else {
      FailSum += F->Confidence;
      ++FailN;
    }
  }
  std::printf("mean confidence: passing %.2f (%zu fns) vs failing %.2f "
              "(%zu fns)\n",
              PassN ? PassSum / PassN : 0.0, PassN,
              FailN ? FailSum / FailN : 0.0, FailN);
  std::printf("a useful confidence signal ranks failing functions below "
              "passing ones, exactly like the paper's Err-CS analysis\n");
  return 0;
}
