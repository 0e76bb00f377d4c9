//===- bench/robustness_differential.cpp - oracle-comparison sweep ------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// The differential-robustness sweep: for each held-out evaluation target,
/// score the generated backend with the text oracle (curated regression
/// environments) and the differential oracle (seeded randomized inputs)
/// side-by-side, and report where the two verdicts disagree — Div-Val /
/// Div-Trap / Div-Eff divergence rates, the Txt-Only over-penalization
/// census, and the pass/fail agreement matrix. Merges the results into
/// BENCH_repair.json as per-target "oracleComparison" objects, bumping the
/// schema to "vega-repair-bench-2" (all vega-repair-bench-1 fields are
/// preserved; the file is created fresh when passk_repair has not run).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "eval/Oracle.h"
#include "support/Json.h"
#include "support/TextTable.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace vega;

namespace {

Json comparisonFor(const BackendEval &Eval) {
  Json Cmp = Json::object();
  Cmp.set("textAccuracy", Eval.functionAccuracy());
  Cmp.set("differentialAccuracy", Eval.differentialAccuracy());
  Cmp.set("statementAccuracy", Eval.statementAccuracy());
  Cmp.set("adjustedStatementAccuracy", Eval.adjustedStatementAccuracy());
  Cmp.set("divValRate", Eval.divValRate());
  Cmp.set("divTrapRate", Eval.divTrapRate());
  Cmp.set("divEffRate", Eval.divEffRate());
  Cmp.set("txtOnlyRate", Eval.txtOnlyRate());
  BackendEval::OracleAgreement A = Eval.agreement();
  Json Agreement = Json::object();
  Agreement.set("bothPass", static_cast<uint64_t>(A.BothPass));
  Agreement.set("bothFail", static_cast<uint64_t>(A.BothFail));
  Agreement.set("primaryOnlyPass", static_cast<uint64_t>(A.PrimaryOnlyPass));
  Agreement.set("differentialOnlyPass",
                static_cast<uint64_t>(A.DifferentialOnlyPass));
  Cmp.set("agreement", std::move(Agreement));
  return Cmp;
}

/// Rebuilds one vega-repair-bench target entry with its oracleComparison
/// replaced. Json::set appends rather than replaces, so every merge here
/// copies field-by-field instead of mutating the parsed document.
Json mergeTarget(const Json &Old, const Json &Cmp) {
  Json T = Json::object();
  for (const auto &[Key, V] : Old.fields()) {
    if (Key == "oracleComparison")
      continue;
    T.set(Key, V);
  }
  T.set("oracleComparison", Cmp);
  return T;
}

} // namespace

int main(int argc, char **argv) {
  std::string ReportPath = "BENCH_repair.json";
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const std::string Prefix = "--report=";
    if (Arg.rfind(Prefix, 0) == 0)
      ReportPath = Arg.substr(Prefix.size());
  }

  const eval::DifferentialOracle::Options &DiffOpts =
      eval::differentialOracle().options();
  TextTable Table;
  Table.setHeader({"Target", "text", "differential", "Div-Val", "Div-Trap",
                   "Div-Eff", "Txt-Only", "text-only-pass"});

  std::map<std::string, Json> Comparisons;
  for (const std::string &Target : TargetDatabase::evaluationTargetNames()) {
    const BackendEval &Eval = bench::evaluation(Target);
    BackendEval::OracleAgreement A = Eval.agreement();
    Table.addRow({Target, TextTable::formatPercent(Eval.functionAccuracy()),
                  TextTable::formatPercent(Eval.differentialAccuracy()),
                  TextTable::formatPercent(Eval.divValRate()),
                  TextTable::formatPercent(Eval.divTrapRate()),
                  TextTable::formatPercent(Eval.divEffRate()),
                  TextTable::formatPercent(Eval.txtOnlyRate()),
                  std::to_string(A.PrimaryOnlyPass)});
    Comparisons.emplace(Target, comparisonFor(Eval));
  }

  std::printf("== differential robustness: text vs randomized execution ==\n"
              "%s\n",
              Table.render().c_str());
  std::printf("seed %llu, %d randomized cases per interface; "
              "'text-only-pass' counts functions the curated suite accepts "
              "but randomized execution refutes — the dangerous inverse of "
              "Txt-Only\n",
              static_cast<unsigned long long>(DiffOpts.Seed),
              DiffOpts.CaseBudget);

  // Merge into BENCH_repair.json. The document is rebuilt field-by-field
  // (never mutated in place) and its schema bumped to vega-repair-bench-2.
  Json Old = Json::object();
  {
    std::ifstream In(ReportPath);
    if (In) {
      std::stringstream Buffer;
      Buffer << In.rdbuf();
      StatusOr<Json> Parsed = Json::parse(Buffer.str());
      if (Parsed.isOk() && Parsed->isObject())
        Old = std::move(*Parsed);
    }
  }

  Json Doc = Json::object();
  Doc.set("schema", "vega-repair-bench-2");
  bool HadTargets = false;
  for (const auto &[Key, V] : Old.fields()) {
    if (Key == "schema" || Key == "differentialOracle")
      continue;
    if (Key == "targets" && V.isArray()) {
      HadTargets = true;
      Json Targets = Json::array();
      for (const Json &T : V.items()) {
        auto It = Comparisons.find(T.getString("target"));
        Targets.push(It == Comparisons.end() ? T
                                             : mergeTarget(T, It->second));
      }
      Doc.set("targets", std::move(Targets));
      continue;
    }
    Doc.set(Key, V);
  }
  if (!HadTargets) {
    // passk_repair has not written its report yet: emit a standalone sweep.
    Doc.set("host", bench::hostInfo());
    Doc.set("epochs", bench::defaultEpochs());
    Json Targets = Json::array();
    for (const auto &[Target, Cmp] : Comparisons) {
      Json T = Json::object();
      T.set("target", Target);
      T.set("oracleComparison", Cmp);
      Targets.push(std::move(T));
    }
    Doc.set("targets", std::move(Targets));
  }
  Json OracleInfo = Json::object();
  OracleInfo.set("name", eval::differentialOracle().name());
  OracleInfo.set("seed", static_cast<uint64_t>(DiffOpts.Seed));
  OracleInfo.set("caseBudget", DiffOpts.CaseBudget);
  Doc.set("differentialOracle", std::move(OracleInfo));

  if (FILE *F = std::fopen(ReportPath.c_str(), "w")) {
    std::string Dump = Doc.dump(2);
    std::fwrite(Dump.data(), 1, Dump.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    std::printf("report merged into %s\n", ReportPath.c_str());
  } else {
    std::fprintf(stderr, "robustness_differential: cannot write %s\n",
                 ReportPath.c_str());
    return 1;
  }
  return 0;
}
