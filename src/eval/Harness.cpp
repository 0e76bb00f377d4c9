//===- eval/Harness.cpp - pass@1 and statement accuracy ---------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"

#include "eval/EvalSpecs.h"
#include "gumtree/Matcher.h"
#include "interp/Interpreter.h"

#include <cassert>
#include <set>

using namespace vega;

double BackendEval::functionAccuracy() const {
  size_t Total = 0, Accurate = 0;
  for (const FunctionEval &F : Functions) {
    if (!F.GoldenExists && !F.Generated)
      continue;
    ++Total;
    if (F.Accurate)
      ++Accurate;
  }
  return Total == 0 ? 0.0
                    : static_cast<double>(Accurate) /
                          static_cast<double>(Total);
}

double BackendEval::functionAccuracy(BackendModule Module) const {
  size_t Total = 0, Accurate = 0;
  for (const FunctionEval &F : Functions) {
    if (F.Module != Module || (!F.GoldenExists && !F.Generated))
      continue;
    ++Total;
    if (F.Accurate)
      ++Accurate;
  }
  return Total == 0 ? 0.0
                    : static_cast<double>(Accurate) /
                          static_cast<double>(Total);
}

double BackendEval::statementAccuracy() const {
  size_t Accurate = 0, Manual = 0;
  for (const FunctionEval &F : Functions) {
    Accurate += F.AccurateStatements;
    Manual += F.ManualStatements;
  }
  size_t Total = Accurate + Manual;
  return Total == 0 ? 0.0
                    : static_cast<double>(Accurate) /
                          static_cast<double>(Total);
}

static double errRate(const BackendEval &Eval,
                      bool FunctionEval::*Member) {
  size_t Total = 0, Hit = 0;
  for (const FunctionEval &F : Eval.Functions) {
    if (!F.GoldenExists && !F.Generated)
      continue;
    ++Total;
    if (F.*Member)
      ++Hit;
  }
  return Total == 0 ? 0.0 : static_cast<double>(Hit) /
                                static_cast<double>(Total);
}

double BackendEval::errVRate() const { return errRate(*this, &FunctionEval::ErrV); }
double BackendEval::errCSRate() const { return errRate(*this, &FunctionEval::ErrCS); }
double BackendEval::errDefRate() const { return errRate(*this, &FunctionEval::ErrDef); }
double BackendEval::divValRate() const { return errRate(*this, &FunctionEval::DivVal); }
double BackendEval::divTrapRate() const { return errRate(*this, &FunctionEval::DivTrap); }
double BackendEval::divEffRate() const { return errRate(*this, &FunctionEval::DivEff); }
double BackendEval::txtOnlyRate() const { return errRate(*this, &FunctionEval::TxtOnly); }

double BackendEval::adjustedStatementAccuracy() const {
  size_t Accurate = 0, Manual = 0;
  for (const FunctionEval &F : Functions) {
    Accurate += F.AccurateStatements;
    if (F.TxtOnly)
      Accurate += F.ManualStatements; // behaviourally validated: not manual
    else
      Manual += F.ManualStatements;
  }
  size_t Total = Accurate + Manual;
  return Total == 0 ? 0.0
                    : static_cast<double>(Accurate) /
                          static_cast<double>(Total);
}

bool BackendEval::hasDifferential() const {
  for (const FunctionEval &F : Functions)
    if (F.DiffRan)
      return true;
  return false;
}

double BackendEval::differentialAccuracy() const {
  size_t Total = 0, Accurate = 0;
  for (const FunctionEval &F : Functions) {
    if (!F.GoldenExists && !F.Generated)
      continue;
    ++Total;
    if (F.DiffRan && F.DiffAccurate)
      ++Accurate;
  }
  return Total == 0 ? 0.0
                    : static_cast<double>(Accurate) /
                          static_cast<double>(Total);
}

BackendEval::OracleAgreement BackendEval::agreement() const {
  OracleAgreement A;
  for (const FunctionEval &F : Functions) {
    if (!F.DiffRan)
      continue;
    if (F.Accurate && F.DiffAccurate)
      ++A.BothPass;
    else if (!F.Accurate && !F.DiffAccurate)
      ++A.BothFail;
    else if (F.Accurate)
      ++A.PrimaryOnlyPass;
    else
      ++A.DifferentialOnlyPass;
  }
  return A;
}

bool vega::functionPassesRegression(const FunctionAST &Candidate,
                                    const FunctionAST &Golden,
                                    const std::string &InterfaceName,
                                    const TargetTraits &Traits) {
  return eval::textOracle().passes(Candidate, Golden, InterfaceName, Traits);
}

std::pair<size_t, size_t>
vega::statementAccounting(const FunctionAST &Candidate,
                          const FunctionAST &Golden) {
  TreeMapping Mapping = matchFunctions(Golden, Candidate);
  size_t Accurate = 0, Manual = 0;

  // Golden statements: matched & token-identical → accurate; otherwise they
  // need manual modification or supplementation.
  for (const auto &FS : Golden.flatten()) {
    if (FS.Stmt == &Golden.Definition)
      continue;
    const Statement *Partner = Mapping.getDst(FS.Stmt);
    if (Partner && Partner->Tokens == FS.Stmt->Tokens)
      ++Accurate;
    else
      ++Manual;
  }
  // Spurious generated statements must be deleted by hand.
  for (const auto &FS : Candidate.flatten()) {
    if (FS.Stmt == &Candidate.Definition)
      continue;
    if (!Mapping.getSrc(FS.Stmt))
      ++Manual;
  }
  return {Accurate, Manual};
}

namespace {

/// Masked skeleton equality: true when two statements differ only in
/// value-like positions (identifiers adjacent to '::', literals). Used to
/// classify Err-V.
bool sameSkeleton(const std::vector<Token> &A, const std::vector<Token> &B) {
  if (A.size() != B.size())
    return false;
  auto MaskedAt = [](const std::vector<Token> &T, size_t I) {
    if (T[I].Kind == TokenKind::IntLiteral ||
        T[I].Kind == TokenKind::StringLiteral)
      return true;
    if (T[I].Kind == TokenKind::Identifier) {
      if (I > 0 && T[I - 1].isPunct("::"))
        return true;
      if (I + 1 < T.size() && T[I + 1].isPunct("::"))
        return true;
    }
    return false;
  };
  for (size_t I = 0; I < A.size(); ++I) {
    bool MA = MaskedAt(A, I), MB = MaskedAt(B, I);
    if (MA != MB)
      return false;
    if (!MA && !(A[I] == B[I]))
      return false;
  }
  return true;
}

} // namespace

BackendEval vega::evaluateBackend(const GeneratedBackend &Generated,
                                  const Backend &Golden,
                                  const TargetTraits &Traits,
                                  const eval::Oracle &Primary,
                                  const eval::Oracle *Differential) {
  BackendEval Eval;
  Eval.TargetName = Generated.TargetName;
  Eval.OracleName = Primary.name();
  if (Differential && Differential != &Primary)
    Eval.OracleName += "+" + Differential->name();

  for (const GeneratedFunction &GF : Generated.Functions) {
    FunctionEval FE;
    FE.InterfaceName = GF.InterfaceName;
    FE.Module = GF.Module;
    FE.Generated = GF.Emitted;
    FE.Confidence = GF.Confidence;
    FE.MultiTargetDerived = GF.MultiTargetDerived;

    const BackendFunction *GoldenFn = Golden.find(GF.InterfaceName);
    FE.GoldenExists = GoldenFn != nullptr;

    if (FE.GoldenExists)
      FE.GoldenStatements = GoldenFn->AST.size() - 1;

    if (FE.GoldenExists && FE.Generated) {
      eval::OracleVerdict Verdict =
          Primary.score(GF.AST, GoldenFn->AST, GF.InterfaceName, Traits);
      FE.Accurate = Verdict.full();
      auto [Acc, Manual] = statementAccounting(GF.AST, GoldenFn->AST);
      FE.AccurateStatements = Acc;
      FE.ManualStatements = Manual;

      if (Differential) {
        eval::OracleVerdict DV =
            Differential == &Primary
                ? Verdict
                : Differential->score(GF.AST, GoldenFn->AST, GF.InterfaceName,
                                      Traits);
        FE.DiffRan = true;
        FE.DiffAccurate = DV.full();
        FE.DiffCases = DV.Cases;
        FE.DiffPassed = DV.Passed;
        FE.DivVal = DV.ValDivergences > 0;
        FE.DivTrap = DV.TrapDivergences > 0 || DV.CandidateError;
        FE.DivEff = DV.EffDivergences > 0;
        FE.TxtOnly = DV.full() && FE.ManualStatements > 0;
      }
    } else if (FE.GoldenExists) {
      // Function never emitted: every golden statement is manual effort.
      FE.ManualStatements = FE.GoldenStatements;
      FE.ErrDef = true;
      FE.ErrCS = true; // the definition's low score suppressed a needed fn
    } else if (FE.Generated) {
      // Spurious function: all its statements must be deleted.
      FE.ManualStatements = GF.AST.size() - 1;
      FE.ErrCS = true;
    }

    // Error taxonomy for inaccurate-but-emitted functions.
    if (FE.GoldenExists && FE.Generated && !FE.Accurate) {
      TreeMapping Mapping = matchFunctions(GoldenFn->AST, GF.AST);
      for (const auto &FS : GoldenFn->AST.flatten()) {
        if (FS.Stmt == &GoldenFn->AST.Definition)
          continue;
        const Statement *Partner = Mapping.getDst(FS.Stmt);
        if (!Partner) {
          FE.ErrDef = true;
          continue;
        }
        if (!(Partner->Tokens == FS.Stmt->Tokens) &&
            sameSkeleton(Partner->Tokens, FS.Stmt->Tokens))
          FE.ErrV = true;
      }
      // Confidence contradictions: a suppressed statement that was right,
      // or a near-certain statement that was wrong.
      std::set<std::string> GoldenTexts;
      for (const auto &FS : GoldenFn->AST.flatten())
        GoldenTexts.insert(FS.Stmt->text());
      for (const GeneratedStatement &GS : GF.Statements) {
        std::string Text = renderTokens(GS.Tokens);
        bool InGolden = GoldenTexts.count(Text) != 0;
        if (!GS.Emitted && InGolden)
          FE.ErrCS = true;
        if (GS.Emitted && GS.Confidence > 0.99 && !InGolden)
          FE.ErrCS = true;
      }
    }

    // Module aggregates.
    if (FE.GoldenExists || FE.Generated) {
      auto &MS = Eval.PerModule[FE.Module];
      ++MS.Functions;
      if (FE.Accurate) {
        ++MS.AccurateFunctions;
        if (FE.Confidence > 0.99)
          ++MS.AccurateHighConfidence;
        if (FE.MultiTargetDerived)
          ++MS.MultiTarget;
      }
      MS.AccurateStatements += FE.AccurateStatements;
      MS.ManualStatements += FE.ManualStatements;
      if (FE.TxtOnly)
        ++MS.TxtOnlyFunctions;
    }
    Eval.Functions.push_back(std::move(FE));
  }

  // Golden functions the generator produced no entry for at all (e.g. a
  // fork source that lacks the interface): pure Err-Def misses.
  for (const auto &GoldenFn : Golden.Functions) {
    if (Generated.find(GoldenFn->InterfaceName))
      continue;
    FunctionEval FE;
    FE.InterfaceName = GoldenFn->InterfaceName;
    FE.Module = GoldenFn->Module;
    FE.GoldenExists = true;
    FE.GoldenStatements = GoldenFn->AST.size() - 1;
    FE.ManualStatements = FE.GoldenStatements;
    FE.ErrDef = true;
    auto &MS = Eval.PerModule[FE.Module];
    ++MS.Functions;
    MS.ManualStatements += FE.ManualStatements;
    Eval.Functions.push_back(std::move(FE));
  }
  return Eval;
}
