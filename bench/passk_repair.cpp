//===- bench/passk_repair.cpp - pass@1 vs pass@k vs post-repair ----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// The auto-repair headline: for each held-out evaluation target, greedy
/// pass@1 function accuracy, pass@k after one beam-repair round, final
/// post-repair accuracy at the fixed point, and the modeled residual
/// manual-repair hours before/after. Every accepted repair was validated by
/// the behavioural oracle, so post-repair >= pass@1 by construction; the
/// bench exists to measure how much of the paper's Table-3/4 manual effort
/// the engine absorbs. Writes BENCH_repair.json ("vega-repair-bench-1").
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "repair/RepairEngine.h"
#include "support/Json.h"
#include "support/TextTable.h"

#include <cstdio>
#include <string>

using namespace vega;

int main(int argc, char **argv) {
  std::string ReportPath = "BENCH_repair.json";
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const std::string Prefix = "--report=";
    if (Arg.rfind(Prefix, 0) == 0)
      ReportPath = Arg.substr(Prefix.size());
  }

  repair::RepairOptions Opts; // beam 4, 2 rounds — the defaults everywhere
  TextTable Table;
  Table.setHeader({"Target", "pass@1", "pass@k", "post-repair", "Repaired",
                   "Hours A", "Hours B"});

  Json Targets = Json::array();
  for (const std::string &Target :
       TargetDatabase::evaluationTargetNames()) {
    const GeneratedBackend &Baseline = bench::generated(Target);
    repair::RepairEngine Engine(bench::system(), Opts);
    StatusOr<repair::RepairReport> Report = Engine.repairBackend(Baseline);
    if (!Report.isOk()) {
      std::fprintf(stderr, "passk_repair: %s: %s\n", Target.c_str(),
                   Report.status().toString().c_str());
      return Report.status().toExitCode();
    }

    double Pass1 = Report->BaselineEval.functionAccuracy();
    double PassK = Report->Rounds.empty()
                       ? Pass1
                       : Report->Rounds.front().FunctionAccuracy;
    double Post = Report->RepairedEval.functionAccuracy();

    Table.addRow({Target, TextTable::formatPercent(Pass1),
                  TextTable::formatPercent(PassK),
                  TextTable::formatPercent(Post),
                  std::to_string(Report->FunctionsRepaired) + "/" +
                      std::to_string(Report->FunctionsFlagged),
                  TextTable::formatDouble(Report->BaselineHoursA, 2) + " -> " +
                      TextTable::formatDouble(Report->RepairedHoursA, 2),
                  TextTable::formatDouble(Report->BaselineHoursB, 2) + " -> " +
                      TextTable::formatDouble(Report->RepairedHoursB, 2)});

    Json T = Json::object();
    T.set("target", Target);
    T.set("pass1", Pass1);
    T.set("passk", PassK);
    T.set("postRepair", Post);
    T.set("baselineStatementAccuracy",
          Report->BaselineEval.statementAccuracy());
    T.set("repairedStatementAccuracy",
          Report->RepairedEval.statementAccuracy());
    T.set("functionsFlagged",
          static_cast<uint64_t>(Report->FunctionsFlagged));
    T.set("functionsRepaired",
          static_cast<uint64_t>(Report->FunctionsRepaired));
    T.set("statementsAutoRepaired",
          static_cast<uint64_t>(Report->StatementsAutoRepaired));
    T.set("candidatesTried", static_cast<uint64_t>(Report->CandidatesTried));
    Json Rounds = Json::array();
    for (const repair::RoundStats &R : Report->Rounds) {
      Json Round = Json::object();
      Round.set("round", R.Round);
      Round.set("functionsRepaired",
                static_cast<uint64_t>(R.FunctionsRepaired));
      Round.set("functionAccuracy", R.FunctionAccuracy);
      Rounds.push(std::move(Round));
    }
    T.set("rounds", std::move(Rounds));
    Json Hours = Json::object();
    Json DevA = Json::object();
    DevA.set("baseline", Report->BaselineHoursA);
    DevA.set("repaired", Report->RepairedHoursA);
    Hours.set("developerA", std::move(DevA));
    Json DevB = Json::object();
    DevB.set("baseline", Report->BaselineHoursB);
    DevB.set("repaired", Report->RepairedHoursB);
    Hours.set("developerB", std::move(DevB));
    T.set("repairHours", std::move(Hours));
    Targets.push(std::move(T));
  }

  Json Doc = Json::object();
  Doc.set("schema", "vega-repair-bench-1");
  Doc.set("host", bench::hostInfo());
  Json Options = Json::object();
  Options.set("beamWidth", Opts.BeamWidth);
  Options.set("maxRounds", Opts.MaxRounds);
  Options.set("csThreshold", Opts.CSThreshold);
  Doc.set("options", std::move(Options));
  Doc.set("epochs", bench::defaultEpochs());
  Doc.set("targets", std::move(Targets));

  std::printf("== pass@1 vs pass@k vs oracle-validated auto-repair ==\n%s\n",
              Table.render().c_str());
  std::printf("paper context: VEGA ships backends with ~71%% of functions "
              "correct and leaves the rest to manual triage via confidence "
              "scores (Tables 3-4); the repair engine automates that triage "
              "loop, so the accuracy delta here is manual effort absorbed "
              "by the oracle\n");

  if (FILE *F = std::fopen(ReportPath.c_str(), "w")) {
    std::string Dump = Doc.dump(2);
    std::fwrite(Dump.data(), 1, Dump.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    std::printf("report written to %s\n", ReportPath.c_str());
  } else {
    std::fprintf(stderr, "passk_repair: cannot write %s\n",
                 ReportPath.c_str());
    return 1;
  }
  return 0;
}
