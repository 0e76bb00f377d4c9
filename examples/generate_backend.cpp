//===- examples/generate_backend.cpp - full pipeline ----------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// End-to-end backend generation for a held-out target:
///
///   ./build/examples/generate_backend [RISCV|RI5CY|XCORE] [epochs]
///
/// Trains CodeBE in-process, generates the backend from the target's
/// description files, and prints every emitted function with its
/// confidence score. Pass a small epoch count (e.g. 2) for a fast demo;
/// the bench suite uses the full budget.
///
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace vega;

int main(int argc, char **argv) {
  std::string Target = argc > 1 ? argv[1] : "RISCV";
  int Epochs = argc > 2 ? std::atoi(argv[2]) : 6;

  BackendCorpus Corpus = BackendCorpus::build(TargetDatabase::standard());
  if (!Corpus.targets().find(Target)) {
    std::fprintf(stderr, "error: unknown target '%s'\n", Target.c_str());
    return 1;
  }

  VegaOptions Opts;
  Opts.Model.Epochs = Epochs;
  Opts.Verbose = true;
  VegaSystem Sys(Corpus, Opts);

  Timer Stage1;
  Sys.buildTemplates();
  Sys.buildDataset();
  std::printf("stage 1 (code-feature mapping): %.1fs, %zu templates, %zu "
              "training sequences\n",
              Stage1.seconds(), Sys.templates().size(),
              Sys.trainPairCount());

  Timer Stage2;
  if (Status St = Sys.fineTune(); !St.isOk()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 1;
  }
  std::printf("stage 2 (model creation): %.1fs\n", Stage2.seconds());

  Timer Stage3;
  GeneratedBackend GB = Sys.generateBackend(Target);
  std::printf("stage 3 (target-specific generation): %.1fs\n\n",
              Stage3.seconds());

  size_t Emitted = 0;
  for (const GeneratedFunction &F : GB.Functions) {
    if (!F.Emitted) {
      std::printf("-- %-26s [%s]  confidence %.2f -> NOT EMITTED\n",
                  F.InterfaceName.c_str(), moduleName(F.Module),
                  F.Confidence);
      continue;
    }
    ++Emitted;
    std::printf("-- %-26s [%s]  confidence %.2f%s\n",
                F.InterfaceName.c_str(), moduleName(F.Module), F.Confidence,
                F.MultiTargetDerived ? "  (multi-target)" : "");
  }
  std::printf("\nemitted %zu/%zu functions for %s\n\n", Emitted,
              GB.Functions.size(), Target.c_str());

  if (const GeneratedFunction *Reloc = GB.find("getRelocType"))
    if (Reloc->Emitted)
      std::printf("generated getRelocType (the paper's running "
                  "example):\n%s\n",
                  Reloc->AST.render().c_str());
  return 0;
}
