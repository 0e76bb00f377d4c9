//===- eval/Oracle.cpp - Pluggable execution oracles --------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "eval/Oracle.h"

#include "eval/EvalSpecs.h"
#include "support/BinaryIO.h"
#include "support/RNG.h"

#include <algorithm>
#include <map>

using namespace vega;
using namespace vega::eval;

Oracle::~Oracle() = default;

OracleVerdict TextOracle::score(const FunctionAST &Candidate,
                                const FunctionAST &Golden,
                                const std::string &InterfaceName,
                                const TargetTraits &Traits) const {
  Interpreter Interp;
  OracleVerdict Verdict;
  for (const Environment &Env : buildTestEnvironments(InterfaceName, Traits)) {
    ExecResult Expected = Interp.run(Golden, Env);
    if (Expected.St == ExecResult::Status::Error)
      continue; // spec gap: skipped on both sides
    ++Verdict.Cases;
    ExecResult Actual = Interp.run(Candidate, Env);
    if (Actual.St == ExecResult::Status::Error) {
      Verdict.CandidateError = true;
      continue;
    }
    if (Expected.equivalent(Actual))
      ++Verdict.Passed;
  }
  return Verdict;
}

namespace {

/// Boundary-heavy integer pool for randomized Int bindings: zeros, powers
/// of two and their neighbours, signed extremes of common immediate widths.
constexpr int64_t IntPool[] = {
    0,    1,    -1,   2,     3,     4,     7,     8,     15,   16,
    31,   32,   63,   64,    100,   127,   128,   255,   256,  511,
    1023, 1024, 2047, -2048, 4095,  4096,  32767, -32768, -8,  -64,
};

/// Redraws one binding value. Symbols redraw from the binding's observed
/// domain (or, for ordinal-bearing symbols, the full ordinal domain so
/// enum comparisons exercise every member); ints and bools redraw from
/// their pools; units pass through. A quarter of draws keep the curated
/// donor value so the randomized suite stays anchored to known-interesting
/// points.
Value mutateValue(const Value &V, const Environment &Donor,
                  const std::vector<std::string> &SymDomain, RNG &R) {
  if (R.nextBool(0.25))
    return V;
  switch (V.K) {
  case Value::Kind::Int:
    return Value::integer(
        IntPool[R.nextBelow(sizeof(IntPool) / sizeof(IntPool[0]))]);
  case Value::Kind::Bool:
    return Value::boolean(R.nextBool(0.5));
  case Value::Kind::Sym: {
    if (Donor.ordinals().count(V.SymV) && !Donor.ordinals().empty()) {
      std::vector<std::string> Domain;
      Domain.reserve(Donor.ordinals().size());
      for (const auto &[Name, Ord] : Donor.ordinals())
        Domain.push_back(Name);
      return Value::symbol(Domain[R.nextBelow(Domain.size())]);
    }
    if (!SymDomain.empty())
      return Value::symbol(SymDomain[R.nextBelow(SymDomain.size())]);
    return V;
  }
  case Value::Kind::Unit:
    return V;
  }
  return V;
}

} // namespace

std::vector<Environment>
DifferentialOracle::buildCases(const std::string &InterfaceName,
                               const TargetTraits &Traits) const {
  std::vector<Environment> Donors = buildTestEnvironments(InterfaceName, Traits);
  if (Donors.empty())
    Donors.emplace_back();

  // Observed symbol domain per binding key, pooled across all donors —
  // std::map iteration keeps collection order deterministic.
  std::map<std::string, std::vector<std::string>> VarSyms, CallSyms;
  auto Collect = [](const std::map<std::string, Value> &Bindings,
                    std::map<std::string, std::vector<std::string>> &Pool) {
    for (const auto &[Name, V] : Bindings) {
      if (!V.isSym())
        continue;
      std::vector<std::string> &Domain = Pool[Name];
      if (std::find(Domain.begin(), Domain.end(), V.SymV) == Domain.end())
        Domain.push_back(V.SymV);
    }
  };
  for (const Environment &Donor : Donors) {
    Collect(Donor.vars(), VarSyms);
    Collect(Donor.calls(), CallSyms);
  }

  // One RNG stream per (seed, interface): verdicts cannot depend on which
  // thread, job count, or visit order asked for them.
  RNG R(Opts.Seed ^ fnv1a(InterfaceName));
  std::vector<Environment> Cases;
  Cases.reserve(static_cast<size_t>(Opts.CaseBudget));
  for (int I = 0; I < Opts.CaseBudget; ++I) {
    const Environment &Donor = Donors[static_cast<size_t>(I) % Donors.size()];
    Environment Env = Donor; // keeps intrinsic resolver and ordinals
    for (const auto &[Name, V] : Donor.vars())
      Env.bind(Name, mutateValue(V, Donor, VarSyms[Name], R));
    for (const auto &[Name, V] : Donor.calls())
      Env.bindCall(Name, mutateValue(V, Donor, CallSyms[Name], R));
    Cases.push_back(std::move(Env));
  }
  return Cases;
}

OracleVerdict DifferentialOracle::score(const FunctionAST &Candidate,
                                        const FunctionAST &Golden,
                                        const std::string &InterfaceName,
                                        const TargetTraits &Traits) const {
  Interpreter Interp;
  OracleVerdict Verdict;
  for (const Environment &Env : buildCases(InterfaceName, Traits)) {
    ExecResult Expected = Interp.run(Golden, Env);
    if (Expected.St == ExecResult::Status::Error)
      continue; // randomized input outside the golden's domain: skip
    ++Verdict.Cases;
    ExecResult Actual = Interp.run(Candidate, Env);
    if (Actual.St == ExecResult::Status::Error) {
      // The candidate crashed the interpreter where the golden ran: a
      // trap-class divergence.
      Verdict.CandidateError = true;
      ++Verdict.TrapDivergences;
      continue;
    }
    if (Expected.equivalent(Actual)) {
      ++Verdict.Passed;
      continue;
    }
    // Exactly one class per failing case.
    if (Expected.St != Actual.St)
      ++Verdict.TrapDivergences;
    else if (Expected.St == ExecResult::Status::Trap)
      ++(Expected.Message != Actual.Message ? Verdict.TrapDivergences
                                            : Verdict.EffDivergences);
    else
      ++(!(Expected.Return == Actual.Return) ? Verdict.ValDivergences
                                             : Verdict.EffDivergences);
  }
  return Verdict;
}

const TextOracle &vega::eval::textOracle() {
  static const TextOracle Oracle;
  return Oracle;
}

const DifferentialOracle &vega::eval::differentialOracle() {
  static const DifferentialOracle Oracle;
  return Oracle;
}

std::optional<OracleKind> vega::eval::parseOracleKind(const std::string &Name) {
  if (Name == "text")
    return OracleKind::Text;
  if (Name == "differential")
    return OracleKind::Differential;
  if (Name == "both")
    return OracleKind::Both;
  return std::nullopt;
}

const char *vega::eval::oracleKindName(OracleKind Kind) {
  switch (Kind) {
  case OracleKind::Text:
    return "text";
  case OracleKind::Differential:
    return "differential";
  case OracleKind::Both:
    return "both";
  }
  return "text";
}

OracleRoles vega::eval::oracleRoles(OracleKind Kind) {
  switch (Kind) {
  case OracleKind::Text:
    return {&textOracle(), nullptr};
  case OracleKind::Differential:
    return {&differentialOracle(), &differentialOracle()};
  case OracleKind::Both:
    return {&textOracle(), &differentialOracle()};
  }
  return {&textOracle(), nullptr};
}
