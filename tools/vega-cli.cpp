//===- tools/vega-cli.cpp - The VEGA command-line driver ------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// The command-line face of the reproduction:
///
///   vega-cli targets                      list the corpus targets
///   vega-cli groups                       list function groups and sizes
///   vega-cli template <iface>             print a function template
///   vega-cli features <iface>             print Algorithm-1 properties
///   vega-cli golden <target> <iface>      print a golden implementation
///   vega-cli harvest <prop> <target>      print a TgtValSet
///   vega-cli build [epochs]               train and save a .vega session
///   vega-cli train                        train with an explicit schedule
///                                         (--epochs/--batch-size/--lr/--seed/
///                                         --train-jobs) and save a session
///   vega-cli inspect                      summarize a .vega session artifact
///   vega-cli generate <target> [epochs]   emit a backend
///   vega-cli evaluate <target> [epochs]   generate + pass@1 report
///   vega-cli repair <target> [epochs]     generate + beam-search auto-repair
///                                         (--beam/--rounds; report per round)
///   vega-cli flywheel <target>...         self-training repair flywheel:
///                                         generate + repair + harvest +
///                                         fine-tune generations
///                                         (--generations/--ft-epochs/--beam/
///                                         --rounds/--oracle/
///                                         --harvest-negatives/--out-dir)
///   vega-cli forkflow <target>            evaluate the MIPS fork baseline
///   vega-cli stats --socket=<path>        live stats of a running vega-serve
///
/// With --session=<file.vega>, generate/evaluate load the saved session and
/// run Stage 3 directly — no template building, no training. Without it they
/// build a session in-process (weights cached in vega_cli_model.bin).
/// Failures map to exit codes via vega::Status (see README).
///
/// Job-count precedence for Stage-2 training: --train-jobs beats --jobs
/// beats VEGA_JOBS beats hardware concurrency. Every choice trains the
/// same bits (README "Training").
///
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/VegaSession.h"
#include "eval/EffortModel.h"
#include "eval/Harness.h"
#include "flywheel/Flywheel.h"
#include "forkflow/ForkFlow.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "repair/RepairEngine.h"
#include "obs/Trace.h"
#include "serve/Protocol.h"
#include "serve/Transport.h"
#include "support/ArgParse.h"
#include "support/TextTable.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace vega;

namespace {

/// Global flag state shared by the command handlers.
struct CliOptions {
  int Jobs = 0;
  int TrainJobs = 0;
  bool JsonOut = false;
  std::string SessionPath;
  eval::OracleKind Oracle = eval::OracleKind::Text;
};
CliOptions Cli;

const BackendCorpus &corpus() { return VegaSession::standardCorpus(); }

FeatureSelector &selector() {
  static FeatureSelector *S = [] {
    std::vector<std::string> Names;
    for (const TargetTraits &T : corpus().targets().targets())
      Names.push_back(T.Name);
    return new FeatureSelector(corpus().vfs(), Names);
  }();
  return *S;
}

int cmdTargets() {
  TextTable Table;
  Table.setHeader({"Target", "Role", "Endian", "Bits", "Flags", "Fixups",
                   "Instrs"});
  for (const TargetTraits &T : corpus().targets().targets()) {
    bool Held = false;
    for (const std::string &E : TargetDatabase::evaluationTargetNames())
      if (E == T.Name)
        Held = true;
    std::string Flags;
    if (T.HasVariantKind)
      Flags += "V";
    if (T.HasDelaySlots)
      Flags += "D";
    if (T.HasHardwareLoop)
      Flags += "H";
    if (T.HasSimd)
      Flags += "S";
    if (T.HasCompressed)
      Flags += "C";
    if (T.HasThreadScheduler)
      Flags += "T";
    Table.addRow({T.Name, Held ? "eval" : "train",
                  T.IsBigEndian ? "BE" : "LE", T.Is64Bit ? "64" : "32",
                  Flags.empty() ? "-" : Flags,
                  std::to_string(T.Fixups.size()),
                  std::to_string(T.Instructions.size())});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdGroups() {
  TextTable Table;
  Table.setHeader({"Interface function", "Module", "Members", "Statements"});
  for (const FunctionGroup &G : corpus().trainingGroups()) {
    size_t Stmts = 0;
    for (const BackendFunction *F : G.Members)
      Stmts += F->AST.size();
    Table.addRow({G.InterfaceName, moduleName(G.Module),
                  std::to_string(G.Members.size()), std::to_string(Stmts)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

const FunctionGroup *groupNamed(const std::string &Name) {
  static std::vector<FunctionGroup> Groups = corpus().trainingGroups();
  for (const FunctionGroup &G : Groups)
    if (G.InterfaceName == Name)
      return &G;
  return nullptr;
}

int fail(const Status &St) {
  std::fprintf(stderr, "vega-cli: %s\n", St.toString().c_str());
  return St.toExitCode();
}

int cmdTemplate(const std::string &Iface) {
  const FunctionGroup *G = groupNamed(Iface);
  if (!G)
    return fail(Status::notFound("unknown interface function '" + Iface + "'"));
  FunctionTemplate FT = buildFunctionTemplate(*G);
  std::printf("%s", FT.render().c_str());
  return 0;
}

int cmdFeatures(const std::string &Iface) {
  const FunctionGroup *G = groupNamed(Iface);
  if (!G)
    return fail(Status::notFound("unknown interface function '" + Iface + "'"));
  FunctionTemplate FT = buildFunctionTemplate(*G);
  TemplateFeatures F = selector().analyze(FT);
  std::printf("target-independent properties:\n");
  for (const BoolProperty &P : F.BoolProps)
    std::printf("  %-22s %-12s identified at %s\n", P.Name.c_str(),
                P.Updatable ? "updatable" : "constant",
                P.IdentifiedSite.c_str());
  std::printf("placeholder slots:\n");
  for (const auto &[RowIdx, Slots] : F.RowSlots) {
    std::printf("  row %-3d:", RowIdx);
    for (const SlotProperty &S : Slots)
      std::printf(" [%s]", S.Name.empty() ? "?" : S.Name.c_str());
    std::printf("\n");
  }
  return 0;
}

int cmdGolden(const std::string &Target, const std::string &Iface) {
  const Backend *B = corpus().backend(Target);
  if (!B)
    return fail(Status::notFound("unknown target '" + Target + "'"));
  const BackendFunction *F = B->find(Iface);
  if (!F)
    return fail(Status::notFound(Target + " does not implement " + Iface));
  std::printf("%s", F->AST.render().c_str());
  return 0;
}

int cmdHarvest(const std::string &Prop, const std::string &Target) {
  for (const std::string &V : selector().harvestValues(Prop, Target))
    std::printf("%s\n", V.c_str());
  return 0;
}

/// The process-wide session: loaded from --session when given, otherwise
/// built in-process with the historical vega_cli_model.bin weight cache.
StatusOr<VegaSession *> session(int Epochs) {
  static std::unique_ptr<VegaSession> S;
  if (S)
    return S.get();
  if (!Cli.SessionPath.empty()) {
    StatusOr<std::unique_ptr<VegaSession>> Loaded =
        VegaSession::load(Cli.SessionPath);
    if (!Loaded.isOk())
      return Loaded.status();
    S = std::move(*Loaded);
  } else {
    VegaOptions Opts;
    Opts.Model.Epochs = Epochs;
    Opts.WeightCachePath = "vega_cli_model.bin";
    Opts.Verbose = true;
    Opts.Jobs = Cli.Jobs;
    Opts.TrainJobs = Cli.TrainJobs;
    StatusOr<std::unique_ptr<VegaSession>> Built = VegaSession::build(Opts);
    if (!Built.isOk())
      return Built.status();
    S = std::move(*Built);
  }
  if (Cli.Jobs > 0)
    S->setJobs(Cli.Jobs);
  return S.get();
}

int buildAndSave(const VegaOptions &Opts) {
  StatusOr<std::unique_ptr<VegaSession>> Built = VegaSession::build(Opts);
  if (!Built.isOk())
    return fail(Built.status());
  if (Status St = (*Built)->save(Cli.SessionPath); !St.isOk())
    return fail(St);
  std::printf("session saved to %s\n", Cli.SessionPath.c_str());
  return 0;
}

int cmdBuild(int Epochs) {
  if (Cli.SessionPath.empty())
    return fail(
        Status::invalidArgument("build requires --session=<file.vega>"));
  VegaOptions Opts;
  Opts.Model.Epochs = Epochs;
  Opts.Verbose = true;
  Opts.Jobs = Cli.Jobs;
  Opts.TrainJobs = Cli.TrainJobs;
  return buildAndSave(Opts);
}

/// `train`: the explicit-schedule sibling of `build` — every TrainOptions
/// field is a flag; defaults match what `build` has always done.
int cmdTrain(int Epochs, int BatchSize, double LearningRate,
             unsigned long long Seed) {
  if (Cli.SessionPath.empty())
    return fail(
        Status::invalidArgument("train requires --session=<file.vega>"));
  VegaOptions Opts;
  Opts.Model.Epochs = Epochs;
  Opts.Model.BatchSize = BatchSize;
  Opts.Model.LearningRate = static_cast<float>(LearningRate);
  Opts.Model.Seed = Seed;
  Opts.Verbose = true;
  Opts.Jobs = Cli.Jobs;
  Opts.TrainJobs = Cli.TrainJobs;
  // Out-of-range values flow into TrainOptions::validate() and come back
  // as typed InvalidArgument diagnostics (exit code 2), not silent
  // fall-through.
  return buildAndSave(Opts);
}

int cmdInspect() {
  if (Cli.SessionPath.empty())
    return fail(
        Status::invalidArgument("inspect requires --session=<file.vega>"));
  StatusOr<SessionCheckpoint::Info> Info =
      SessionCheckpoint::inspect(Cli.SessionPath);
  if (!Info.isOk())
    return fail(Info.status());
  if (Cli.JsonOut) {
    Json Doc = Json::object();
    Doc.set("schema", "vega-session-info-1");
    Doc.set("version", static_cast<uint64_t>(Info->Version));
    Doc.set("optionsFingerprint", std::to_string(Info->OptionsFingerprint));
    Doc.set("corpusFingerprint", std::to_string(Info->CorpusFingerprint));
    Doc.set("epochs", Info->Options.Model.Epochs);
    Doc.set("templates", Info->TemplateCount);
    Doc.set("vocab", Info->VocabSize);
    Doc.set("trainPairs", Info->TrainPairs);
    Doc.set("verifyPairs", Info->VerifyPairs);
    Json Sections = Json::array();
    for (const auto &[Tag, Bytes] : Info->Sections) {
      Json S = Json::object();
      S.set("tag", Tag);
      S.set("bytes", Bytes);
      Sections.push(std::move(S));
    }
    Doc.set("sections", std::move(Sections));
    std::printf("%s\n", Doc.dump(2).c_str());
    return 0;
  }
  std::printf("format version:  %u\n", Info->Version);
  std::printf("options:         %d epochs, fingerprint %016llx\n",
              Info->Options.Model.Epochs,
              static_cast<unsigned long long>(Info->OptionsFingerprint));
  std::printf("corpus:          fingerprint %016llx\n",
              static_cast<unsigned long long>(Info->CorpusFingerprint));
  std::printf("templates:       %llu\n",
              static_cast<unsigned long long>(Info->TemplateCount));
  std::printf("vocabulary:      %llu tokens\n",
              static_cast<unsigned long long>(Info->VocabSize));
  std::printf("dataset:         %llu train / %llu verify pairs\n",
              static_cast<unsigned long long>(Info->TrainPairs),
              static_cast<unsigned long long>(Info->VerifyPairs));
  for (const auto &[Tag, Bytes] : Info->Sections)
    std::printf("section %s:    %llu bytes\n", Tag.c_str(),
                static_cast<unsigned long long>(Bytes));
  return 0;
}

int cmdGenerate(const std::string &Target, int Epochs) {
  StatusOr<VegaSession *> S = session(Epochs);
  if (!S.isOk())
    return fail(S.status());
  StatusOr<GeneratedBackend> GB = (*S)->generate(Target);
  if (!GB.isOk())
    return fail(GB.status());
  if (Cli.JsonOut) {
    std::printf("%s\n", serve::backendToJson(*GB).dump(2).c_str());
    return 0;
  }
  for (const GeneratedFunction &F : GB->Functions) {
    if (!F.Emitted)
      continue;
    std::printf("// confidence %.2f [%s]\n%s\n", F.Confidence,
                moduleName(F.Module), F.AST.render().c_str());
  }
  return 0;
}

int cmdEvaluate(const std::string &Target, int Epochs) {
  StatusOr<VegaSession *> S = session(Epochs);
  if (!S.isOk())
    return fail(S.status());
  StatusOr<GeneratedBackend> GB = (*S)->generate(Target);
  if (!GB.isOk())
    return fail(GB.status());
  const eval::OracleRoles Roles = eval::oracleRoles(Cli.Oracle);
  BackendEval Eval = evaluateBackend(*GB, *corpus().backend(Target),
                                     *corpus().targets().find(Target),
                                     *Roles.Primary, Roles.Classifier);
  if (Cli.JsonOut) {
    std::printf("%s\n", serve::evalToJson(Eval).dump(2).c_str());
    return 0;
  }
  TextTable Table;
  Table.setHeader({"Function", "Module", "Confidence", "pass@1"});
  for (const FunctionEval &F : Eval.Functions)
    Table.addRow({F.InterfaceName, moduleName(F.Module),
                  TextTable::formatDouble(F.Confidence, 2),
                  F.Accurate ? "pass" : (F.Generated ? "FAIL" : "missing")});
  std::printf("%s\n", Table.render().c_str());
  std::printf("oracle: %s\n", Eval.OracleName.c_str());
  std::printf("function accuracy: %s   statement accuracy: %s\n",
              TextTable::formatPercent(Eval.functionAccuracy()).c_str(),
              TextTable::formatPercent(Eval.statementAccuracy()).c_str());
  if (Eval.hasDifferential()) {
    std::printf("differential accuracy: %s   adjusted statement accuracy: "
                "%s\n",
                TextTable::formatPercent(Eval.differentialAccuracy()).c_str(),
                TextTable::formatPercent(Eval.adjustedStatementAccuracy())
                    .c_str());
    std::printf("divergences: Div-Val %s, Div-Trap %s, Div-Eff %s, "
                "Txt-Only %s\n",
                TextTable::formatPercent(Eval.divValRate()).c_str(),
                TextTable::formatPercent(Eval.divTrapRate()).c_str(),
                TextTable::formatPercent(Eval.divEffRate()).c_str(),
                TextTable::formatPercent(Eval.txtOnlyRate()).c_str());
    BackendEval::OracleAgreement A = Eval.agreement();
    std::printf("oracle agreement: both-pass %llu, both-fail %llu, "
                "primary-only %llu, differential-only %llu\n",
                static_cast<unsigned long long>(A.BothPass),
                static_cast<unsigned long long>(A.BothFail),
                static_cast<unsigned long long>(A.PrimaryOnlyPass),
                static_cast<unsigned long long>(A.DifferentialOnlyPass));
  }
  std::printf("estimated repair hours (Developer A model): %.2f\n",
              totalRepairHours(Eval, developerA()));
  return 0;
}

int cmdRepair(const std::string &Target, int Epochs, int BeamWidth,
              int MaxRounds) {
  StatusOr<VegaSession *> S = session(Epochs);
  if (!S.isOk())
    return fail(S.status());
  StatusOr<GeneratedBackend> GB = (*S)->generate(Target);
  if (!GB.isOk())
    return fail(GB.status());
  repair::RepairOptions Opts;
  Opts.BeamWidth = BeamWidth;
  Opts.MaxRounds = MaxRounds;
  Opts.Jobs = Cli.Jobs;
  const eval::OracleRoles Roles = eval::oracleRoles(Cli.Oracle);
  Opts.OracleImpl = Roles.Primary;
  Opts.Classifier = Roles.Classifier;
  repair::RepairEngine Engine((*S)->system(), Opts);
  StatusOr<repair::RepairReport> Report = Engine.repairBackend(*GB);
  if (!Report.isOk())
    return fail(Report.status());
  if (Cli.JsonOut) {
    std::printf("%s\n", serve::repairToJson(*Report).dump(2).c_str());
    return 0;
  }
  TextTable Table;
  Table.setHeader({"Function", "Module", "Repaired", "Round", "Sites",
                   "Tried", "Replaced"});
  for (const repair::FunctionRepair &F : Report->Functions)
    Table.addRow({F.InterfaceName, moduleName(F.Module),
                  F.RepairedPassed ? "yes" : "no",
                  F.RepairedAtRound > 0 ? std::to_string(F.RepairedAtRound)
                                        : "-",
                  std::to_string(F.SitesExamined),
                  std::to_string(F.CandidatesTried),
                  std::to_string(F.StatementsReplaced)});
  std::printf("%s\n", Table.render().c_str());
  std::printf("flagged %llu, repaired %llu (%llu statements, "
              "%llu candidates tried)\n",
              static_cast<unsigned long long>(Report->FunctionsFlagged),
              static_cast<unsigned long long>(Report->FunctionsRepaired),
              static_cast<unsigned long long>(Report->StatementsAutoRepaired),
              static_cast<unsigned long long>(Report->CandidatesTried));
  for (const repair::RoundStats &R : Report->Rounds)
    std::printf("round %d: pass@k %s\n", R.Round,
                TextTable::formatPercent(R.FunctionAccuracy).c_str());
  std::printf(
      "function accuracy: %s -> %s   statement accuracy: %s -> %s\n",
      TextTable::formatPercent(Report->BaselineEval.functionAccuracy())
          .c_str(),
      TextTable::formatPercent(Report->RepairedEval.functionAccuracy())
          .c_str(),
      TextTable::formatPercent(Report->BaselineEval.statementAccuracy())
          .c_str(),
      TextTable::formatPercent(Report->RepairedEval.statementAccuracy())
          .c_str());
  std::printf("estimated repair hours (Developer A model): %.2f -> %.2f\n",
              Report->BaselineHoursA, Report->RepairedHoursA);
  return 0;
}

int cmdFlywheel(int Epochs, flywheel::FlywheelOptions FOpts) {
  if (!Cli.SessionPath.empty())
    return fail(Status::invalidArgument(
        "flywheel fine-tunes over the full training corpus and must build "
        "its session in-process; omit --session"));
  StatusOr<VegaSession *> S = session(Epochs);
  if (!S.isOk())
    return fail(S.status());
  FOpts.Oracle = Cli.Oracle;
  FOpts.Jobs = Cli.Jobs;
  // --train-jobs > --jobs > VEGA_JOBS precedence rides on the session's
  // VegaOptions: fineTuneRound derives its lanes via trainOptions().
  flywheel::FlywheelEngine Engine((*S)->system(), std::move(FOpts));
  StatusOr<flywheel::FlywheelReport> Report = Engine.run();
  if (!Report.isOk())
    return fail(Report.status());
  if (Cli.JsonOut) {
    std::printf("%s\n", flywheel::reportToJson(*Report).dump(2).c_str());
    return 0;
  }
  TextTable Table;
  Table.setHeader({"Gen", "Pass@1", "Greedy", "Reliance", "Harvested",
                   "Added", "Deduped", "Loss", "Accepted"});
  for (const flywheel::GenerationStats &G : Report->Generations)
    Table.addRow(
        {std::to_string(G.Generation),
         TextTable::formatPercent(G.Pass1),
         TextTable::formatPercent(G.GreedyPass1),
         TextTable::formatPercent(G.RepairReliance),
         std::to_string(G.HarvestedPositives + G.HarvestedNegatives),
         std::to_string(G.PairsAdded), std::to_string(G.PairsDeduped),
         G.Generation == 0 ? "-" : TextTable::formatDouble(G.TrainMeanLoss),
         G.Accepted ? "yes" : "no"});
  std::printf("%s\n", Table.render().c_str());
  std::printf("flywheel: %d generation(s) run, %d resumed, %llu pairs "
              "added to the corpus\n",
              Report->GenerationsRun, Report->GenerationsResumed,
              static_cast<unsigned long long>(Report->TotalPairsAdded));
  return 0;
}

int cmdForkflow(const std::string &Target) {
  if (!corpus().targets().find(Target))
    return fail(Status::notFound("unknown target '" + Target + "'"));
  GeneratedBackend FF = forkflowBackend(corpus(), "Mips", Target);
  BackendEval Eval = evaluateBackend(FF, *corpus().backend(Target),
                                     *corpus().targets().find(Target));
  std::printf("fork-flow (from Mips) accuracy for %s: functions %s, "
              "statements %s\n",
              Target.c_str(),
              TextTable::formatPercent(Eval.functionAccuracy()).c_str(),
              TextTable::formatPercent(Eval.statementAccuracy()).c_str());
  return 0;
}

int epochsArg(const std::vector<std::string> &Args, size_t Index,
              int Default) {
  if (Index >= Args.size())
    return Default;
  return std::atoi(Args[Index].c_str());
}

int cmdStats(const std::string &SocketPath) {
  if (SocketPath.empty())
    return fail(Status::invalidArgument(
        "stats needs --socket=<path> of a running vega-serve"));
  StatusOr<std::string> Line = serve::callSocketLine(
      SocketPath, "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"stats\"}");
  if (!Line.isOk())
    return fail(Line.status());
  StatusOr<Json> Response = Json::parse(*Line);
  if (!Response.isOk())
    return fail(Response.status());
  const Json *Result = Response->get("result");
  if (!Result) {
    if (const Json *Error = Response->get("error"))
      return fail(Status::unavailable("daemon error: " +
                                      Error->getString("message")));
    return fail(Status::internal("malformed stats response"));
  }
  if (Cli.JsonOut) {
    std::printf("%s\n", Result->dump(2).c_str());
    return 0;
  }
  std::printf("uptime %.1fs, %.0f in flight, %.0f queued, %.0f requests\n",
              Result->getNumber("uptimeSec"), Result->getNumber("inFlight"),
              Result->getNumber("queueDepth"), Result->getNumber("requests"));
  TextTable Table;
  Table.setHeader({"Metric", "Count", "Mean", "p50", "p95", "p99"});
  if (const Json *Quantiles = Result->get("quantiles"))
    for (const auto &[Name, Q] : Quantiles->fields())
      Table.addRow({Name, TextTable::formatDouble(Q.getNumber("count")),
                    TextTable::formatDouble(Q.getNumber("mean")),
                    TextTable::formatDouble(Q.getNumber("p50")),
                    TextTable::formatDouble(Q.getNumber("p95")),
                    TextTable::formatDouble(Q.getNumber("p99"))});
  std::printf("%s", Table.render().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  ArgParse Args("vega-cli", "the VEGA reproduction command-line driver");
  Args.addOption("jobs", "N",
                 "Stage-3 generation lanes (default: VEGA_JOBS, else "
                 "hardware concurrency); output is identical for every N");
  Args.addOption("train-jobs", "N",
                 "Stage-2 training lanes (default: --jobs, then VEGA_JOBS, "
                 "then hardware concurrency); weights are identical for "
                 "every N");
  Args.addOption("epochs", "N", "train: epochs (default 8)");
  Args.addOption("batch-size", "N", "train: minibatch size (default 8)");
  Args.addOption("lr", "X", "train: Adam learning rate (default 1e-3)");
  Args.addOption("seed", "N",
                 "train: weight-init & shuffle seed (default 42)");
  Args.addOption("session", "file.vega",
                 "load (generate/evaluate/inspect) or write (build) a "
                 "session artifact");
  Args.addFlag("json", "emit generate/evaluate/repair/inspect results as JSON");
  Args.addOption("oracle", "text|differential|both",
                 "evaluate/repair: scoring oracle — text (curated regression "
                 "environments, default), differential (seeded randomized "
                 "side-by-side execution), or both (text verdicts with a "
                 "differential divergence census)");
  Args.addOption("beam", "N", "repair: ranked candidates per site (default 4)");
  Args.addOption("rounds", "N", "repair: fixed-point round cap (default 2)");
  Args.addOption("generations", "N",
                 "flywheel: fine-tune generations to run (default 3)");
  Args.addOption("ft-epochs", "N",
                 "flywheel: epochs per fine-tuning round (default 2)");
  Args.addOption("harvest-negatives", "on|off",
                 "flywheel: harvest refuted high-confidence candidates as "
                 "down-weighted hard negatives (default on)");
  Args.addOption("out-dir", "dir",
                 "flywheel: per-generation artifact directory (enables "
                 "resume; omit for an in-memory run)");
  Args.addOption("trace-out", "file", "write a Chrome/Perfetto trace on exit");
  Args.addOption("metrics-out", "file", "write metrics JSON on exit");
  Args.addOption("socket", "path",
                 "stats: AF_UNIX socket of a running vega-serve");
  Args.addOption("log-level", "level",
                 "NDJSON log level on stderr: debug|info|warn|error|off "
                 "(default: $VEGA_LOG or off)");
  Args.addFlag("stats", "print a text metrics summary on exit");
  Args.addCommand("targets", "", "list the corpus targets", 0, 0);
  Args.addCommand("groups", "", "list function groups and sizes", 0, 0);
  Args.addCommand("template", "<iface>", "print a function template", 1, 1);
  Args.addCommand("features", "<iface>", "print Algorithm-1 properties", 1, 1);
  Args.addCommand("golden", "<target> <iface>",
                  "print a golden implementation", 2, 2);
  Args.addCommand("harvest", "<prop> <target>", "print a TgtValSet", 2, 2);
  Args.addCommand("build", "[epochs]",
                  "train and save a session to --session", 0, 1);
  Args.addCommand("train", "",
                  "train with an explicit schedule (--epochs/--batch-size/"
                  "--lr/--seed/--train-jobs) and save to --session", 0, 0);
  Args.addCommand("inspect", "", "summarize the --session artifact", 0, 0);
  Args.addCommand("generate", "<target> [epochs]", "emit a backend", 1, 2);
  Args.addCommand("evaluate", "<target> [epochs]",
                  "generate + pass@1 report", 1, 2);
  Args.addCommand("repair", "<target> [epochs]",
                  "generate + beam-search auto-repair report", 1, 2);
  Args.addCommand("flywheel", "<target>...",
                  "self-training repair flywheel: generate + repair + "
                  "harvest + fine-tune generations (--generations/"
                  "--ft-epochs/--beam/--rounds/--oracle/"
                  "--harvest-negatives/--out-dir)", 1, 8);
  Args.addCommand("forkflow", "<target>",
                  "evaluate the MIPS fork baseline", 1, 1);
  Args.addCommand("stats", "",
                  "query a running vega-serve daemon's live stats "
                  "(--socket; --json for the raw payload)", 0, 0);

  if (Status St = Args.parse(argc, argv); !St.isOk()) {
    std::fprintf(stderr, "vega-cli: %s\n%s", St.toString().c_str(),
                 Args.usage().c_str());
    return St.toExitCode();
  }
  if (Args.command().empty()) {
    std::fprintf(stderr, "%s", Args.usage().c_str());
    return 2;
  }

  Cli.Jobs = Args.getInt("jobs", 0);
  Cli.TrainJobs = Args.getInt("train-jobs", 0);
  Cli.JsonOut = Args.has("json");
  Cli.SessionPath = Args.get("session");
  if (Args.has("oracle")) {
    std::optional<eval::OracleKind> Kind =
        eval::parseOracleKind(Args.get("oracle"));
    if (!Kind)
      return fail(Status::invalidArgument(
          "unknown --oracle '" + Args.get("oracle") +
          "' (expected text, differential, or both)"));
    Cli.Oracle = *Kind;
  }

  if (Args.has("trace-out"))
    obs::TraceRecorder::instance().setEnabled(true);
  if (Args.has("metrics-out") || Args.has("stats"))
    obs::MetricsRegistry::instance().setEnabled(true);
  if (Args.has("log-level")) {
    std::optional<obs::LogLevel> Level =
        obs::Logger::parseLevel(Args.get("log-level"));
    if (!Level) {
      std::fprintf(stderr, "vega-cli: unknown log level '%s'\n",
                   Args.get("log-level").c_str());
      return 2;
    }
    obs::Logger::instance().setLevel(*Level);
  }

  const std::string &Cmd = Args.command();
  const std::vector<std::string> &Pos = Args.positionals();
  int Rc = 2;
  if (Cmd == "targets")
    Rc = cmdTargets();
  else if (Cmd == "groups")
    Rc = cmdGroups();
  else if (Cmd == "template")
    Rc = cmdTemplate(Pos[0]);
  else if (Cmd == "features")
    Rc = cmdFeatures(Pos[0]);
  else if (Cmd == "golden")
    Rc = cmdGolden(Pos[0], Pos[1]);
  else if (Cmd == "harvest")
    Rc = cmdHarvest(Pos[0], Pos[1]);
  else if (Cmd == "build")
    Rc = cmdBuild(epochsArg(Pos, 0, 8));
  else if (Cmd == "train") {
    double LearningRate = 1e-3;
    if (Args.has("lr"))
      LearningRate = std::strtod(Args.get("lr").c_str(), nullptr);
    unsigned long long Seed = 42;
    if (Args.has("seed"))
      Seed = std::strtoull(Args.get("seed").c_str(), nullptr, 10);
    Rc = cmdTrain(Args.getInt("epochs", 8), Args.getInt("batch-size", 8),
                  LearningRate, Seed);
  }
  else if (Cmd == "inspect")
    Rc = cmdInspect();
  else if (Cmd == "generate")
    Rc = cmdGenerate(Pos[0], epochsArg(Pos, 1, 8));
  else if (Cmd == "evaluate")
    Rc = cmdEvaluate(Pos[0], epochsArg(Pos, 1, 8));
  else if (Cmd == "repair")
    Rc = cmdRepair(Pos[0], epochsArg(Pos, 1, 8), Args.getInt("beam", 4),
                   Args.getInt("rounds", 2));
  else if (Cmd == "flywheel") {
    flywheel::FlywheelOptions FOpts;
    FOpts.Targets = Pos;
    FOpts.Generations = Args.getInt("generations", 3);
    FOpts.FineTuneEpochs = Args.getInt("ft-epochs", 2);
    FOpts.BeamWidth = Args.getInt("beam", 4);
    FOpts.MaxRounds = Args.getInt("rounds", 2);
    FOpts.OutDir = Args.get("out-dir");
    FOpts.Verbose = true;
    if (Args.has("seed"))
      FOpts.Seed = std::strtoull(Args.get("seed").c_str(), nullptr, 10);
    if (Args.has("harvest-negatives")) {
      const std::string &V = Args.get("harvest-negatives");
      if (V != "on" && V != "off")
        return fail(Status::invalidArgument(
            "unknown --harvest-negatives '" + V + "' (expected on or off)"));
      FOpts.HarvestNegatives = V == "on";
    }
    Rc = cmdFlywheel(Args.getInt("epochs", 8), std::move(FOpts));
  }
  else if (Cmd == "forkflow")
    Rc = cmdForkflow(Pos[0]);
  else if (Cmd == "stats")
    Rc = cmdStats(Args.get("socket"));

  if (Args.has("trace-out") &&
      !obs::TraceRecorder::instance().writeChromeTrace(Args.get("trace-out"))) {
    std::fprintf(stderr, "vega-cli: error: cannot write trace to '%s'\n",
                 Args.get("trace-out").c_str());
    Rc = Rc ? Rc : 1;
  }
  if (Args.has("metrics-out") &&
      !obs::MetricsRegistry::instance().writeJson(Args.get("metrics-out"))) {
    std::fprintf(stderr, "vega-cli: error: cannot write metrics to '%s'\n",
                 Args.get("metrics-out").c_str());
    Rc = Rc ? Rc : 1;
  }
  if (Args.has("stats"))
    std::printf("%s", obs::MetricsRegistry::instance().textSummary().c_str());
  return Rc;
}
