//===- eval/Oracle.h - Pluggable execution oracles ---------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable execution-oracle API. An Oracle scores one candidate
/// function against its golden counterpart and returns an OracleVerdict:
/// cases considered, cases passed, and (for differential oracles) a
/// per-class divergence census. Two implementations ship:
///
///  - TextOracle: the historical pass@1 oracle — runs candidate and golden
///    under the curated per-interface regression environments
///    (eval/EvalSpecs) and demands behavioural equivalence. This is the
///    exact machinery previously private to eval::evaluateBackend and
///    repair::RepairEngine, extracted behind the interface.
///
///  - DifferentialOracle: executes candidate and golden side-by-side over
///    *seeded randomized* inputs derived from each interface group's
///    regression environments (the environments encode the function's
///    effective signature: which variables and call results it consumes,
///    and of which kinds). Divergences classify as Div-Val (wrong result),
///    Div-Trap (trap/crash mismatch), or Div-Eff (effect-trace mismatch).
///
/// Determinism contract: a verdict depends only on (oracle options,
/// interface name, target traits, the two ASTs). DifferentialOracle derives
/// its RNG stream from fnv1a(interface) ^ seed and consumes it in ordered-
/// map iteration order, so verdicts are byte-identical at any --jobs, any
/// visit order, and across processes.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_EVAL_ORACLE_H
#define VEGA_EVAL_ORACLE_H

#include "ast/Statement.h"
#include "corpus/TargetTraits.h"
#include "interp/Interpreter.h"

#include <optional>
#include <string>
#include <vector>

namespace vega {
namespace eval {

/// Outcome of scoring one candidate function against its golden
/// counterpart. Cases where the *golden* run errors are spec gaps and are
/// skipped on both sides (they count in neither Cases nor Passed).
struct OracleVerdict {
  size_t Passed = 0;
  size_t Cases = 0;
  /// Any candidate run the interpreter rejected outright.
  bool CandidateError = false;

  /// Divergence census (populated by differential oracles; the text oracle
  /// reports pass/fail only). One failing case lands in exactly one class.
  size_t ValDivergences = 0;  ///< same outcome shape, wrong result value
  size_t TrapDivergences = 0; ///< trap/crash on one side only (or mismatched
                              ///< trap message, or a candidate Error)
  size_t EffDivergences = 0;  ///< matching result, diverging effect trace

  /// The pass@1 verdict: every considered case passed and no run errored.
  bool full() const { return !CandidateError && Passed == Cases; }
  /// Pass fraction used to rank partial improvements during repair
  /// hill-climbing.
  double fraction() const {
    if (CandidateError)
      return 0.0;
    return Cases == 0 ? 1.0
                      : static_cast<double>(Passed) /
                            static_cast<double>(Cases);
  }
};

/// The oracle seam: anything that can judge a candidate implementation of
/// an interface function against the golden one.
class Oracle {
public:
  virtual ~Oracle();

  /// Stable identifier used in JSON schemas and CLI flags.
  virtual std::string name() const = 0;

  /// Scores \p Candidate against \p Golden for \p InterfaceName on
  /// \p Traits. Must be deterministic and safe to call concurrently.
  virtual OracleVerdict score(const FunctionAST &Candidate,
                              const FunctionAST &Golden,
                              const std::string &InterfaceName,
                              const TargetTraits &Traits) const = 0;

  /// Convenience pass@1 verdict.
  bool passes(const FunctionAST &Candidate, const FunctionAST &Golden,
              const std::string &InterfaceName,
              const TargetTraits &Traits) const {
    return score(Candidate, Golden, InterfaceName, Traits).full();
  }
};

/// The historical golden-text/interpreter oracle: behavioural equivalence
/// over the curated regression environments of eval/EvalSpecs.
class TextOracle final : public Oracle {
public:
  std::string name() const override { return "text"; }
  OracleVerdict score(const FunctionAST &Candidate, const FunctionAST &Golden,
                      const std::string &InterfaceName,
                      const TargetTraits &Traits) const override;
};

/// Differential robustness oracle: candidate and golden run side-by-side
/// over seeded randomized environments (a fixed case budget per interface),
/// and every failing case is classified as Div-Val / Div-Trap / Div-Eff.
class DifferentialOracle final : public Oracle {
public:
  struct Options {
    /// Base seed; the per-interface stream is fnv1a(interface) ^ Seed.
    uint64_t Seed = 0x5eedc0de;
    /// Randomized cases generated per interface (the fixed case budget).
    int CaseBudget = 24;
  };

  DifferentialOracle() = default;
  explicit DifferentialOracle(Options Opts) : Opts(Opts) {}

  std::string name() const override { return "differential"; }
  OracleVerdict score(const FunctionAST &Candidate, const FunctionAST &Golden,
                      const std::string &InterfaceName,
                      const TargetTraits &Traits) const override;

  /// The randomized environments the oracle runs for (interface, traits) —
  /// exposed so tests can assert the determinism contract directly.
  /// Exactly Options::CaseBudget environments, derived by perturbing the
  /// interface's regression environments: Int bindings redrawn from a
  /// boundary-heavy pool, Bool bindings re-flipped, Sym bindings redrawn
  /// from the interface's observed symbol domain (ordinal-bearing symbols
  /// from the full ordinal domain). Intrinsics and ordinals are preserved.
  std::vector<Environment> buildCases(const std::string &InterfaceName,
                                      const TargetTraits &Traits) const;

  const Options &options() const { return Opts; }

private:
  Options Opts;
};

/// Process-wide default instances (stateless, safe to share).
const TextOracle &textOracle();
const DifferentialOracle &differentialOracle();

/// Oracle selection as surfaced by `--oracle=text|differential|both` and
/// the serve "oracle" request parameter.
enum class OracleKind {
  Text,         ///< primary = text, no differential classification
  Differential, ///< primary = differential (classification from the same run)
  Both,         ///< primary = text, differential attached as classifier
};

/// Parses a user-facing oracle name; std::nullopt on anything unknown.
std::optional<OracleKind> parseOracleKind(const std::string &Name);
const char *oracleKindName(OracleKind Kind);

/// What an OracleKind selects: the oracle that gates (pass@1, repair
/// flagging and acceptance) and the optional classifier that censuses the
/// gate's failures. The one meaning of `--oracle` for evaluate, repair,
/// serve and the flywheel.
struct OracleRoles {
  const Oracle *Primary = nullptr;    ///< never null
  const Oracle *Classifier = nullptr; ///< null for OracleKind::Text
};
OracleRoles oracleRoles(OracleKind Kind);

} // namespace eval
} // namespace vega

#endif // VEGA_EVAL_ORACLE_H
