//===- eval/Harness.h - pass@1 and statement accuracy ------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation harness (§4.1.4): pass@1 function accuracy (a generated
/// function substitutes the golden one and must behave identically on the
/// regression environments), statement-level accuracy (Fig. 9 / Table 3),
/// the Err-V / Err-CS / Err-Def taxonomy (Table 2), and module aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_EVAL_HARNESS_H
#define VEGA_EVAL_HARNESS_H

#include "core/Pipeline.h"
#include "corpus/Corpus.h"
#include "eval/Oracle.h"

namespace vega {

/// Evaluation of one generated function against its golden counterpart.
struct FunctionEval {
  std::string InterfaceName;
  BackendModule Module = BackendModule::SEL;
  bool GoldenExists = false;
  bool Generated = false;   ///< VEGA emitted it
  bool Accurate = false;    ///< pass@1 verdict (primary oracle)
  double Confidence = 0.0;
  bool MultiTargetDerived = false;
  size_t GoldenStatements = 0;
  size_t AccurateStatements = 0; ///< generated statements matching golden
  size_t ManualStatements = 0;   ///< statements to fix/add/delete by hand
  bool ErrV = false;   ///< wrong target-specific value in a matched stmt
  bool ErrCS = false;  ///< confidence contradicts correctness
  bool ErrDef = false; ///< missing necessary statements / function

  // Behavioural-divergence classes, populated when a differential oracle
  // ran for this function (DiffRan). One failing randomized case lands in
  // exactly one class; the flags OR the per-case census.
  bool DivVal = false;  ///< wrong result value on a randomized input
  bool DivTrap = false; ///< trap/crash divergence on a randomized input
  bool DivEff = false;  ///< effect-trace divergence on a randomized input
  /// Textually different from golden yet behaviourally equal under the
  /// differential oracle — the over-penalized class: its ManualStatements
  /// are counted as manual effort by the plain statement accounting even
  /// though execution agrees everywhere sampled.
  bool TxtOnly = false;
  bool DiffRan = false;      ///< a differential oracle scored this function
  bool DiffAccurate = false; ///< its full-pass verdict
  size_t DiffCases = 0;      ///< randomized cases considered
  size_t DiffPassed = 0;     ///< randomized cases passed
};

/// Whole-backend evaluation.
struct BackendEval {
  std::string TargetName;
  /// The oracle(s) that produced the verdicts: "text", "differential", or
  /// "text+differential" when a differential classifier rode along.
  std::string OracleName = "text";
  std::vector<FunctionEval> Functions;

  struct ModuleStats {
    size_t Functions = 0;
    size_t AccurateFunctions = 0;
    size_t AccurateHighConfidence = 0; ///< accurate with CS ≈ 1.00
    size_t MultiTarget = 0;            ///< accurate & multi-target derived
    size_t AccurateStatements = 0;
    size_t ManualStatements = 0;
    size_t TxtOnlyFunctions = 0; ///< textually off, behaviourally equal
  };
  std::map<BackendModule, ModuleStats> PerModule;

  /// Function-level accuracy over all generated functions (paper headline).
  double functionAccuracy() const;
  /// Function-level accuracy within one module.
  double functionAccuracy(BackendModule Module) const;
  /// Statement-level accuracy over all modules.
  double statementAccuracy() const;
  /// Statement accuracy with Txt-Only functions un-penalized: their manual
  /// statements are behaviourally validated, so they count as accurate.
  /// Equals statementAccuracy() when no differential oracle ran.
  double adjustedStatementAccuracy() const;
  /// Error-type rates over all generated functions (Table 2).
  double errVRate() const;
  double errCSRate() const;
  double errDefRate() const;
  /// Divergence-class rates over the same population (0.0 when no
  /// differential oracle ran).
  double divValRate() const;
  double divTrapRate() const;
  double divEffRate() const;
  double txtOnlyRate() const;

  /// True when any function was scored by a differential oracle.
  bool hasDifferential() const;
  /// Function accuracy under the differential verdict (functions the
  /// differential oracle never ran for — unemitted or missing — count as
  /// failures, mirroring functionAccuracy()).
  double differentialAccuracy() const;

  /// Primary-vs-differential agreement over functions where both ran.
  struct OracleAgreement {
    size_t BothPass = 0;
    size_t BothFail = 0;
    size_t PrimaryOnlyPass = 0;      ///< the dangerous inverse
    size_t DifferentialOnlyPass = 0; ///< curated suite stricter than random
  };
  OracleAgreement agreement() const;
};

/// Evaluates \p Generated against \p Golden for \p Traits. \p Primary (the
/// text oracle by default) decides Accurate (and the error taxonomy); when
/// \p Differential is non-null it additionally scores every emitted
/// function, filling the Div-Val/Div-Trap/Div-Eff census, the Txt-Only
/// flag, and the agreement report. Pass the same object as both to gate
/// *and* classify with one differential run.
BackendEval evaluateBackend(const GeneratedBackend &Generated,
                            const Backend &Golden, const TargetTraits &Traits,
                            const eval::Oracle &Primary = eval::textOracle(),
                            const eval::Oracle *Differential = nullptr);

/// pass@1 for a single function AST (used by ForkFlow too): behavioural
/// equivalence with the golden implementation on the regression suite.
bool functionPassesRegression(const FunctionAST &Candidate,
                              const FunctionAST &Golden,
                              const std::string &InterfaceName,
                              const TargetTraits &Traits);

/// Statement-level accounting between a candidate and the golden function:
/// (AccurateStatements, ManualStatements).
std::pair<size_t, size_t> statementAccounting(const FunctionAST &Candidate,
                                              const FunctionAST &Golden);

} // namespace vega

#endif // VEGA_EVAL_HARNESS_H
