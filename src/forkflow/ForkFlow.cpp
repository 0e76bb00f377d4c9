//===- forkflow/ForkFlow.cpp - The fork-flow baseline -----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "forkflow/ForkFlow.h"

#include "obs/Trace.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <cctype>

using namespace vega;

namespace {

std::string upperOf(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  return Out;
}

std::string lowerOf(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

/// Trait-distance between two targets: how many architecture flags differ.
int traitDistance(const TargetTraits &A, const TargetTraits &B) {
  int D = 0;
  D += A.IsBigEndian != B.IsBigEndian;
  D += A.Is64Bit != B.Is64Bit;
  D += A.HasVariantKind != B.HasVariantKind;
  D += A.HasDelaySlots != B.HasDelaySlots;
  D += A.HasHardwareLoop != B.HasHardwareLoop;
  D += A.HasSimd != B.HasSimd;
  D += A.HasCompressed != B.HasCompressed;
  D += A.HasThreadScheduler != B.HasThreadScheduler;
  D += A.HasPostRAScheduler != B.HasPostRAScheduler;
  D += A.HasRegisterScavenging != B.HasRegisterScavenging;
  return D;
}

} // namespace

std::string vega::chooseForkSource(const BackendCorpus &Corpus,
                                   const std::string &NewTarget) {
  const TargetTraits *New = Corpus.targets().find(NewTarget);
  if (!New)
    return "Mips";
  std::string Best = "Mips";
  int BestD = 1 << 20;
  for (const TargetTraits *T : Corpus.targets().trainingTargets()) {
    int D = traitDistance(*T, *New);
    if (D < BestD) {
      BestD = D;
      Best = T->Name;
    }
  }
  return Best;
}

GeneratedBackend vega::forkflowBackend(const BackendCorpus &Corpus,
                                       const std::string &SourceTarget,
                                       const std::string &NewTarget) {
  GeneratedBackend Result;
  Result.TargetName = NewTarget;

  const Backend *Source = Corpus.backend(SourceTarget);
  if (!Source)
    reportFatalError("unknown fork source '" + SourceTarget + "'");

  for (const auto &Fn : Source->Functions) {
    obs::Span FnSpan(std::string("gen.") + moduleName(Fn->Module),
                     "forkflow");
    FnSpan.arg("function", Fn->InterfaceName);
    FnSpan.arg("target", NewTarget);
    GeneratedFunction GF;
    GF.InterfaceName = Fn->InterfaceName;
    GF.Module = Fn->Module;
    GF.Emitted = true;
    GF.Confidence = 1.0; // fork-flow has no confidence model

    // Rename the donor's spelling variants throughout the source.
    std::string Ported = Fn->Source;
    Ported = replaceAll(std::move(Ported), SourceTarget, NewTarget);
    Ported = replaceAll(std::move(Ported), lowerOf(SourceTarget),
                        lowerOf(NewTarget));
    Ported = replaceAll(std::move(Ported), upperOf(SourceTarget),
                        upperOf(NewTarget));
    StatusOr<FunctionAST> AST = preprocessFunctionSource(Ported);
    if (!AST.isOk()) {
      GF.Emitted = false;
    } else {
      GF.AST = std::move(*AST);
    }
    GF.Seconds = FnSpan.close();
    Result.ModuleSeconds[GF.Module] += GF.Seconds;
    Result.Functions.push_back(std::move(GF));
  }
  return Result;
}
