//===- flywheel/Flywheel.cpp - Self-training repair flywheel ----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "flywheel/Flywheel.h"

#include "ast/Statement.h"
#include "core/Checkpoint.h"
#include "lexer/Lexer.h"
#include "model/Vocab.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "repair/RepairEngine.h"
#include "support/FileIO.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sys/stat.h>

namespace vega {
namespace flywheel {

namespace {

constexpr const char *ReportSchema = "vega-flywheel-1";
constexpr const char *GenSchema = "vega-flywheel-gen-1";
constexpr const char *HarvestSchema = "vega-flywheel-harvest-1";

uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return H;
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  H = fnv1a(H, S.data(), S.size());
  unsigned char Term = 0x1f;
  return fnv1a(H, &Term, 1);
}

/// Hash of every option that shapes the persisted artifacts. Generations is
/// deliberately excluded (a finished run may be extended in place), as are
/// the runtime knobs Jobs / OutDir / Verbose.
uint64_t optionsKey(const FlywheelOptions &O) {
  uint64_t H = 1469598103934665603ULL;
  for (const std::string &T : O.Targets)
    H = fnv1a(H, T);
  int64_t Ints[] = {O.FineTuneEpochs, O.BeamWidth, O.MaxRounds,
                    O.HarvestNegatives ? 1 : 0,
                    static_cast<int64_t>(O.Seed)};
  H = fnv1a(H, Ints, sizeof(Ints));
  double Doubles[] = {static_cast<double>(O.PositiveWeight),
                      static_cast<double>(O.NegativeWeight),
                      O.NegativeConfidenceFloor};
  H = fnv1a(H, Doubles, sizeof(Doubles));
  H = fnv1a(H, std::string(eval::oracleKindName(O.Oracle)));
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string genPath(const std::string &Dir, int Gen, const char *Suffix) {
  return Dir + "/gen-" + std::to_string(Gen) + Suffix;
}

size_t asCount(const Json &Doc, const char *Key) {
  return static_cast<size_t>(Doc.getNumber(Key, 0.0));
}

/// One harvested pair plus which target it came from, pre-dedup. The
/// harvest artifact persists exactly this list, so replaying it through
/// augmentTrainingPairs reconstructs the corpus and fingerprint state of
/// the original run.
struct Harvest {
  std::vector<AugmentedPair> Pairs;
  /// target → (positives, negatives), in Options.Targets order.
  std::map<std::string, std::pair<size_t, size_t>> PerTarget;
  size_t Positives = 0, Negatives = 0;
};

Json harvestToJson(const Harvest &H, uint64_t Key, int Gen) {
  Json Doc = Json::object();
  Doc.set("schema", HarvestSchema);
  Doc.set("optionsKey", hex64(Key));
  Doc.set("generation", Gen);
  Json Pairs = Json::array();
  for (const AugmentedPair &P : H.Pairs) {
    Json E = Json::object();
    Json Src = Json::array(), Dst = Json::array();
    for (const std::string &T : P.Src)
      Src.push(T);
    for (const std::string &T : P.Dst)
      Dst.push(T);
    E.set("src", std::move(Src));
    E.set("dst", std::move(Dst));
    E.set("target", P.Target);
    E.set("weight", static_cast<double>(P.Weight));
    Pairs.push(std::move(E));
  }
  Doc.set("pairs", std::move(Pairs));
  return Doc;
}

StatusOr<std::vector<AugmentedPair>> harvestFromJson(const Json &Doc) {
  const Json *Pairs = Doc.get("pairs");
  if (Doc.getString("schema") != HarvestSchema || !Pairs || !Pairs->isArray())
    return Status::invalidArgument("not a " + std::string(HarvestSchema) +
                                   " document");
  std::vector<AugmentedPair> Out;
  for (const Json &E : Pairs->items()) {
    AugmentedPair P;
    const Json *Src = E.get("src"), *Dst = E.get("dst");
    if (!Src || !Dst || !Src->isArray() || !Dst->isArray())
      return Status::invalidArgument("malformed harvest pair");
    for (const Json &T : Src->items())
      P.Src.push_back(T.asString());
    for (const Json &T : Dst->items())
      P.Dst.push_back(T.asString());
    P.Target = E.getString("target");
    P.Weight = static_cast<float>(E.getNumber("weight", 1.0));
    Out.push_back(std::move(P));
  }
  return Out;
}

} // namespace

Status FlywheelOptions::validate() const {
  if (Targets.empty())
    return Status::invalidArgument("flywheel needs at least one target");
  if (Generations < 1)
    return Status::invalidArgument("Generations must be >= 1");
  if (FineTuneEpochs < 1)
    return Status::invalidArgument("FineTuneEpochs must be >= 1");
  if (BeamWidth < 1)
    return Status::invalidArgument("BeamWidth must be >= 1");
  if (MaxRounds < 1)
    return Status::invalidArgument("MaxRounds must be >= 1");
  if (!(PositiveWeight > 0.0f) || !std::isfinite(PositiveWeight))
    return Status::invalidArgument("PositiveWeight must be finite and > 0");
  if (!(NegativeWeight >= 0.0f) || !std::isfinite(NegativeWeight))
    return Status::invalidArgument("NegativeWeight must be finite and >= 0");
  if (!(NegativeConfidenceFloor >= 0.0) || !(NegativeConfidenceFloor <= 1.0))
    return Status::invalidArgument(
        "NegativeConfidenceFloor must be in [0, 1]");
  return Status::ok();
}

Json generationToJson(const GenerationStats &Gen) {
  Json Doc = Json::object();
  Doc.set("generation", Gen.Generation);
  Doc.set("pass1", Gen.Pass1);
  Doc.set("greedyPass1", Gen.GreedyPass1);
  Doc.set("repairReliance", Gen.RepairReliance);
  Doc.set("accepted", Gen.Accepted);
  Doc.set("harvestedPositives", static_cast<uint64_t>(Gen.HarvestedPositives));
  Doc.set("harvestedNegatives", static_cast<uint64_t>(Gen.HarvestedNegatives));
  Doc.set("pairsAdded", static_cast<uint64_t>(Gen.PairsAdded));
  Doc.set("pairsDeduped", static_cast<uint64_t>(Gen.PairsDeduped));
  Doc.set("pairsSkippedOov", static_cast<uint64_t>(Gen.PairsSkippedOov));
  Doc.set("trainMeanLoss", Gen.TrainMeanLoss);
  Json Targets = Json::array();
  for (const TargetGenStats &T : Gen.Targets) {
    Json E = Json::object();
    E.set("target", T.Target);
    E.set("functions", static_cast<uint64_t>(T.Functions));
    E.set("greedyAccurate", static_cast<uint64_t>(T.GreedyAccurate));
    E.set("accurate", static_cast<uint64_t>(T.Accurate));
    E.set("functionsFlagged", static_cast<uint64_t>(T.FunctionsFlagged));
    E.set("functionsRepaired", static_cast<uint64_t>(T.FunctionsRepaired));
    E.set("statementsAutoRepaired",
          static_cast<uint64_t>(T.StatementsAutoRepaired));
    E.set("greedyPass1", T.GreedyPass1);
    E.set("pass1", T.Pass1);
    E.set("statementAccuracy", T.StatementAccuracy);
    E.set("errV", T.ErrVRate);
    E.set("errCS", T.ErrCSRate);
    E.set("errDef", T.ErrDefRate);
    E.set("divVal", T.DivValRate);
    E.set("divTrap", T.DivTrapRate);
    E.set("divEff", T.DivEffRate);
    E.set("harvestedPositives", static_cast<uint64_t>(T.HarvestedPositives));
    E.set("harvestedNegatives", static_cast<uint64_t>(T.HarvestedNegatives));
    Targets.push(std::move(E));
  }
  Doc.set("targets", std::move(Targets));
  return Doc;
}

StatusOr<GenerationStats> generationFromJson(const Json &Doc) {
  if (!Doc.isObject() || !Doc.get("generation"))
    return Status::invalidArgument("not a flywheel generation document");
  GenerationStats Gen;
  Gen.Generation = static_cast<int>(Doc.getNumber("generation", 0.0));
  Gen.Pass1 = Doc.getNumber("pass1");
  Gen.GreedyPass1 = Doc.getNumber("greedyPass1");
  Gen.RepairReliance = Doc.getNumber("repairReliance");
  const Json *Accepted = Doc.get("accepted");
  Gen.Accepted = Accepted && Accepted->isBool() ? Accepted->asBool() : true;
  Gen.HarvestedPositives = asCount(Doc, "harvestedPositives");
  Gen.HarvestedNegatives = asCount(Doc, "harvestedNegatives");
  Gen.PairsAdded = asCount(Doc, "pairsAdded");
  Gen.PairsDeduped = asCount(Doc, "pairsDeduped");
  Gen.PairsSkippedOov = asCount(Doc, "pairsSkippedOov");
  Gen.TrainMeanLoss = Doc.getNumber("trainMeanLoss");
  const Json *Targets = Doc.get("targets");
  if (!Targets || !Targets->isArray())
    return Status::invalidArgument("flywheel generation lacks targets");
  for (const Json &E : Targets->items()) {
    TargetGenStats T;
    T.Target = E.getString("target");
    T.Functions = asCount(E, "functions");
    T.GreedyAccurate = asCount(E, "greedyAccurate");
    T.Accurate = asCount(E, "accurate");
    T.FunctionsFlagged = asCount(E, "functionsFlagged");
    T.FunctionsRepaired = asCount(E, "functionsRepaired");
    T.StatementsAutoRepaired = asCount(E, "statementsAutoRepaired");
    T.GreedyPass1 = E.getNumber("greedyPass1");
    T.Pass1 = E.getNumber("pass1");
    T.StatementAccuracy = E.getNumber("statementAccuracy");
    T.ErrVRate = E.getNumber("errV");
    T.ErrCSRate = E.getNumber("errCS");
    T.ErrDefRate = E.getNumber("errDef");
    T.DivValRate = E.getNumber("divVal");
    T.DivTrapRate = E.getNumber("divTrap");
    T.DivEffRate = E.getNumber("divEff");
    T.HarvestedPositives = asCount(E, "harvestedPositives");
    T.HarvestedNegatives = asCount(E, "harvestedNegatives");
    Gen.Targets.push_back(std::move(T));
  }
  return Gen;
}

Json reportToJson(const FlywheelReport &Report) {
  const FlywheelOptions &O = Report.Options;
  Json Doc = Json::object();
  Doc.set("schema", ReportSchema);
  Json Opts = Json::object();
  Json Targets = Json::array();
  for (const std::string &T : O.Targets)
    Targets.push(T);
  Opts.set("targets", std::move(Targets));
  Opts.set("generations", O.Generations);
  Opts.set("ftEpochs", O.FineTuneEpochs);
  Opts.set("beamWidth", O.BeamWidth);
  Opts.set("maxRounds", O.MaxRounds);
  Opts.set("oracle", eval::oracleKindName(O.Oracle));
  Opts.set("harvestNegatives", O.HarvestNegatives);
  Opts.set("positiveWeight", static_cast<double>(O.PositiveWeight));
  Opts.set("negativeWeight", static_cast<double>(O.NegativeWeight));
  Opts.set("negativeConfidenceFloor", O.NegativeConfidenceFloor);
  Opts.set("seed", static_cast<uint64_t>(O.Seed));
  Doc.set("options", std::move(Opts));
  Json Gens = Json::array();
  for (const GenerationStats &G : Report.Generations)
    Gens.push(generationToJson(G));
  Doc.set("generations", std::move(Gens));
  Doc.set("generationsRun", Report.GenerationsRun);
  Doc.set("generationsResumed", Report.GenerationsResumed);
  Doc.set("totalPairsAdded", static_cast<uint64_t>(Report.TotalPairsAdded));
  return Doc;
}

StatusOr<FlywheelReport> reportFromJson(const Json &Doc) {
  if (Doc.getString("schema") != ReportSchema)
    return Status::invalidArgument("not a " + std::string(ReportSchema) +
                                   " document");
  FlywheelReport Report;
  const Json *Opts = Doc.get("options");
  if (!Opts || !Opts->isObject())
    return Status::invalidArgument("flywheel report lacks options");
  FlywheelOptions &O = Report.Options;
  if (const Json *Targets = Opts->get("targets"))
    for (const Json &T : Targets->items())
      O.Targets.push_back(T.asString());
  O.Generations = static_cast<int>(Opts->getNumber("generations", 3));
  O.FineTuneEpochs = static_cast<int>(Opts->getNumber("ftEpochs", 2));
  O.BeamWidth = static_cast<int>(Opts->getNumber("beamWidth", 4));
  O.MaxRounds = static_cast<int>(Opts->getNumber("maxRounds", 2));
  if (std::optional<eval::OracleKind> K =
          eval::parseOracleKind(Opts->getString("oracle", "text")))
    O.Oracle = *K;
  const Json *HN = Opts->get("harvestNegatives");
  O.HarvestNegatives = HN && HN->isBool() ? HN->asBool() : true;
  O.PositiveWeight =
      static_cast<float>(Opts->getNumber("positiveWeight", 1.0));
  O.NegativeWeight =
      static_cast<float>(Opts->getNumber("negativeWeight", 0.25));
  O.NegativeConfidenceFloor = Opts->getNumber("negativeConfidenceFloor", 0.5);
  O.Seed = static_cast<uint64_t>(Opts->getNumber("seed", 42));
  const Json *Gens = Doc.get("generations");
  if (!Gens || !Gens->isArray())
    return Status::invalidArgument("flywheel report lacks generations");
  for (const Json &G : Gens->items()) {
    StatusOr<GenerationStats> Gen = generationFromJson(G);
    if (!Gen.isOk())
      return Gen.status();
    Report.Generations.push_back(std::move(*Gen));
  }
  Report.GenerationsRun = static_cast<int>(Doc.getNumber("generationsRun"));
  Report.GenerationsResumed =
      static_cast<int>(Doc.getNumber("generationsResumed"));
  Report.TotalPairsAdded = asCount(Doc, "totalPairsAdded");
  return Report;
}

FlywheelEngine::FlywheelEngine(VegaSystem &System, FlywheelOptions Options)
    : System(System), Options(std::move(Options)) {}

namespace {

/// Counts the evaluated population (golden exists or VEGA emitted) and how
/// many of it pass.
void countEval(const BackendEval &Eval, size_t &Population, size_t &Passing) {
  Population = Passing = 0;
  for (const FunctionEval &F : Eval.Functions) {
    if (!F.GoldenExists && !F.Generated)
      continue;
    ++Population;
    if (F.Accurate)
      ++Passing;
  }
}

TargetGenStats statsOf(const repair::RepairReport &Report) {
  TargetGenStats T;
  T.Target = Report.TargetName;
  size_t Pop = 0, Pass = 0;
  countEval(Report.BaselineEval, Pop, Pass);
  T.GreedyAccurate = Pass;
  countEval(Report.RepairedEval, Pop, Pass);
  T.Functions = Pop;
  T.Accurate = Pass;
  T.FunctionsFlagged = Report.FunctionsFlagged;
  T.FunctionsRepaired = Report.FunctionsRepaired;
  T.StatementsAutoRepaired = Report.StatementsAutoRepaired;
  T.GreedyPass1 =
      Pop == 0 ? 0.0
               : static_cast<double>(T.GreedyAccurate) /
                     static_cast<double>(Pop);
  T.Pass1 = Pop == 0 ? 0.0
                     : static_cast<double>(T.Accurate) /
                           static_cast<double>(Pop);
  T.StatementAccuracy = Report.RepairedEval.statementAccuracy();
  T.ErrVRate = Report.RepairedEval.errVRate();
  T.ErrCSRate = Report.RepairedEval.errCSRate();
  T.ErrDefRate = Report.RepairedEval.errDefRate();
  T.DivValRate = Report.RepairedEval.divValRate();
  T.DivTrapRate = Report.RepairedEval.divTrapRate();
  T.DivEffRate = Report.RepairedEval.divEffRate();
  return T;
}

/// Folds per-target stats into the generation aggregate (Pass1 and the
/// repair-reliance ratio over the union population).
void aggregate(GenerationStats &Gen) {
  size_t Pop = 0, Pass = 0, Greedy = 0, Repaired = 0;
  for (const TargetGenStats &T : Gen.Targets) {
    Pop += T.Functions;
    Pass += T.Accurate;
    Greedy += T.GreedyAccurate;
    Repaired += T.FunctionsRepaired;
  }
  Gen.Pass1 =
      Pop == 0 ? 0.0 : static_cast<double>(Pass) / static_cast<double>(Pop);
  Gen.GreedyPass1 =
      Pop == 0 ? 0.0 : static_cast<double>(Greedy) / static_cast<double>(Pop);
  Gen.RepairReliance =
      Pass == 0 ? 0.0
                : static_cast<double>(Repaired) / static_cast<double>(Pass);
}

} // namespace

StatusOr<FlywheelReport> FlywheelEngine::run() {
  if (Status S = Options.validate(); !S.isOk())
    return S;
  for (const std::string &T : Options.Targets)
    if (!System.corpus().targets().find(T))
      return Status::invalidArgument("unknown flywheel target '" + T + "'");

  obs::Span RunSpan("flywheel.run", "flywheel");
  RunSpan.arg("targets", std::to_string(Options.Targets.size()));
  RunSpan.arg("generations", std::to_string(Options.Generations));
  RunSpan.arg("oracle", eval::oracleKindName(Options.Oracle));

  const uint64_t Key = optionsKey(Options);
  const bool Persist = !Options.OutDir.empty();
  if (Persist && ::mkdir(Options.OutDir.c_str(), 0755) != 0 &&
      errno != EEXIST)
    return Status::unavailable("cannot create '" + Options.OutDir +
                               "': " + std::strerror(errno));

  repair::RepairOptions ROpts;
  ROpts.BeamWidth = Options.BeamWidth;
  ROpts.MaxRounds = Options.MaxRounds;
  ROpts.Jobs = Options.Jobs;
  ROpts.CollectRejected = Options.HarvestNegatives;
  ROpts.RejectedConfidenceFloor = Options.NegativeConfidenceFloor;
  const eval::OracleRoles Roles = eval::oracleRoles(Options.Oracle);
  ROpts.OracleImpl = Roles.Primary;
  ROpts.Classifier = Roles.Classifier;
  repair::RepairEngine Engine(System, ROpts);

  // One generate + repair pass over every target — the evaluation unit the
  // whole loop is built from. Deterministic given the current weights.
  auto evalAll = [&](int Gen) -> StatusOr<std::vector<repair::RepairReport>> {
    std::vector<repair::RepairReport> Reports;
    for (const std::string &Target : Options.Targets) {
      obs::Span EvalSpan("flywheel.evaluate", "flywheel");
      EvalSpan.arg("target", Target);
      EvalSpan.arg("generation", std::to_string(Gen));
      GeneratedBackend GB = System.generateBackend(Target);
      StatusOr<repair::RepairReport> R = Engine.repairBackend(GB);
      if (!R.isOk())
        return R.status();
      Reports.push_back(std::move(*R));
    }
    return Reports;
  };

  // Harvest the previous generation's oracle-validated repairs (and,
  // optionally, its refuted high-confidence candidates) as training pairs
  // in the exact Stage-1 function-group representation.
  auto harvestReports =
      [&](const std::vector<repair::RepairReport> &Reports) -> Harvest {
    Harvest H;
    for (const repair::RepairReport &Report : Reports) {
      size_t Pos = 0, Neg = 0;
      // Accepted (site, text) pairs — a candidate refuted in one round but
      // accepted in a later one must not also become a negative.
      std::set<std::string> AcceptedAt;
      auto siteKey = [](const std::string &Iface, int Row,
                        const std::string &Cand, const std::string &Ctx,
                        const std::string &Text) {
        return Iface + '\x1f' + std::to_string(Row) + '\x1f' + Cand + '\x1f' +
               Ctx + '\x1f' + Text;
      };
      auto srcFor = [&](const std::string &Iface, int RowIndex,
                        const std::string &Cand,
                        const std::string &Ctx) -> std::vector<std::string> {
        const TemplateInfo *TI = System.findTemplate(Iface);
        if (!TI)
          return {};
        for (const TemplateRow *Row : TI->FT.rows())
          if (Row->Index == RowIndex)
            return System.buildInputTokens(
                *TI, *Row, Report.TargetName,
                Cand.empty() ? std::nullopt
                             : std::optional<std::string>(Cand),
                Ctx);
        return {};
      };
      auto dstFor = [](double Confidence, const std::vector<Token> &Tokens) {
        std::vector<std::string> Dst;
        Dst.push_back(Vocab::csToken(Vocab::csBucket(Confidence)));
        for (const Token &T : Tokens)
          Dst.push_back(T.Text);
        Dst.push_back(Vocab::Eos);
        return Dst;
      };
      for (const repair::StatementRepair &Rep : Report.Repairs) {
        AcceptedAt.insert(siteKey(Rep.InterfaceName, Rep.RowIndex,
                                  Rep.CandidateValue, Rep.CtxValue,
                                  Rep.NewText));
        AugmentedPair P;
        P.Src = srcFor(Rep.InterfaceName, Rep.RowIndex, Rep.CandidateValue,
                       Rep.CtxValue);
        if (P.Src.empty())
          continue;
        if (Rep.NewEmitted) {
          P.Dst = dstFor(1.0, Lexer::tokenize(Rep.NewText));
        } else {
          // The oracle accepted *suppressing* this site: teach the model
          // the template row does not apply, exactly like a Stage-1
          // negative pair.
          const TemplateInfo *TI = System.findTemplate(Rep.InterfaceName);
          const TemplateRow *Row = nullptr;
          if (TI)
            for (const TemplateRow *R : TI->FT.rows())
              if (R->Index == Rep.RowIndex)
                Row = R;
          if (!Row)
            continue;
          P.Dst = dstFor(0.0, Row->Tokens);
        }
        P.Target = Report.TargetName;
        P.Weight = Options.PositiveWeight;
        H.Pairs.push_back(std::move(P));
        ++Pos;
      }
      if (Options.HarvestNegatives) {
        for (const repair::RejectedCandidate &RC : Report.Rejected) {
          if (AcceptedAt.count(siteKey(RC.InterfaceName, RC.RowIndex,
                                       RC.CandidateValue, RC.CtxValue,
                                       RC.Text)))
            continue;
          AugmentedPair P;
          P.Src = srcFor(RC.InterfaceName, RC.RowIndex, RC.CandidateValue,
                         RC.CtxValue);
          if (P.Src.empty())
            continue;
          P.Dst = dstFor(0.0, Lexer::tokenize(RC.Text));
          P.Target = Report.TargetName;
          P.Weight = Options.NegativeWeight;
          H.Pairs.push_back(std::move(P));
          ++Neg;
        }
      }
      H.PerTarget[Report.TargetName] = {Pos, Neg};
      H.Positives += Pos;
      H.Negatives += Neg;
    }
    return H;
  };

  FlywheelReport Report;
  Report.Options = Options;

  // ---- Resume: count the complete-generation prefix in OutDir. ----------
  int Resumed = 0;
  if (Persist) {
    for (int K = 0; K <= Options.Generations; ++K) {
      StatusOr<std::string> Text = readFile(genPath(Options.OutDir, K,
                                                    ".report.json"));
      if (!Text.isOk())
        break;
      StatusOr<Json> Doc = Json::parse(*Text);
      if (!Doc.isOk())
        return Status::failedPrecondition(
            "corrupt flywheel artifact gen-" + std::to_string(K) +
            ".report.json: " + Doc.status().message());
      if (Doc->getString("schema") != GenSchema ||
          Doc->getString("optionsKey") != hex64(Key))
        return Status::failedPrecondition(
            "'" + Options.OutDir +
            "' holds flywheel artifacts from different options; use a fresh "
            "--out-dir");
      const Json *Gen = Doc->get("generation");
      if (!Gen)
        return Status::failedPrecondition("malformed gen-" +
                                          std::to_string(K) + ".report.json");
      StatusOr<GenerationStats> Stats = generationFromJson(*Gen);
      if (!Stats.isOk())
        return Stats.status();
      // The checkpoint must exist too (framing check only; weights load
      // below, once, from the last complete generation).
      if (!SessionCheckpoint::inspect(genPath(Options.OutDir, K, ".vega"))
               .isOk())
        break;
      if (K > 0) {
        StatusOr<std::string> HText =
            readFile(genPath(Options.OutDir, K, ".harvest.json"));
        if (!HText.isOk())
          break;
        StatusOr<Json> HDoc = Json::parse(*HText);
        if (!HDoc.isOk() || HDoc->getString("optionsKey") != hex64(Key))
          return Status::failedPrecondition(
              "corrupt flywheel artifact gen-" + std::to_string(K) +
              ".harvest.json");
        StatusOr<std::vector<AugmentedPair>> Pairs = harvestFromJson(*HDoc);
        if (!Pairs.isOk())
          return Pairs.status();
        System.augmentTrainingPairs(*Pairs);
      }
      Report.Generations.push_back(std::move(*Stats));
      Report.TotalPairsAdded += Report.Generations.back().PairsAdded;
      Resumed = K + 1;
    }
    if (Resumed > 0) {
      // Restore the last complete generation's weights into the live model.
      std::string CkptPath =
          genPath(Options.OutDir, Resumed - 1, ".vega");
      StatusOr<std::unique_ptr<VegaSystem>> Restored =
          SessionCheckpoint::load(System.corpus(), CkptPath);
      if (!Restored.isOk())
        return Restored.status();
      if (!System.model()->loadWeights((*Restored)->model()->saveWeights()))
        return Status::failedPrecondition("weight shape mismatch restoring '" +
                                          CkptPath + "'");
      if (Options.Verbose)
        std::fprintf(stderr,
                     "vega: flywheel resumed %d generation(s) from %s\n",
                     Resumed, Options.OutDir.c_str());
    }
  }
  Report.GenerationsResumed = Resumed;

  auto persistGeneration = [&](int K,
                               const GenerationStats &Stats,
                               const Harvest *H) -> Status {
    if (!Persist)
      return Status::ok();
    if (H) {
      Json HDoc = harvestToJson(*H, Key, K);
      if (Status S = writeFile(genPath(Options.OutDir, K, ".harvest.json"),
                               HDoc.dump(2) + "\n");
          !S.isOk())
        return S;
    }
    Json Doc = Json::object();
    Doc.set("schema", GenSchema);
    Doc.set("optionsKey", hex64(Key));
    Doc.set("generation", generationToJson(Stats));
    if (Status S = writeFile(genPath(Options.OutDir, K, ".report.json"),
                             Doc.dump(2) + "\n");
        !S.isOk())
      return S;
    return SessionCheckpoint::save(System,
                                   genPath(Options.OutDir, K, ".vega"));
  };

  // ---- Baseline (generation 0). -----------------------------------------
  std::vector<repair::RepairReport> CurReports;
  if (Resumed == 0) {
    obs::Span GenSpan("flywheel.generation", "flywheel");
    GenSpan.arg("generation", "0");
    StatusOr<std::vector<repair::RepairReport>> Reports = evalAll(0);
    if (!Reports.isOk())
      return Reports.status();
    CurReports = std::move(*Reports);
    GenerationStats Base;
    Base.Generation = 0;
    for (const repair::RepairReport &R : CurReports)
      Base.Targets.push_back(statsOf(R));
    aggregate(Base);
    Report.Generations.push_back(Base);
    Report.GenerationsRun = 1;
    if (Status S = persistGeneration(0, Base, nullptr); !S.isOk())
      return S;
  } else if (Resumed <= Options.Generations) {
    // Reports of the last resumed generation, regenerated from its
    // restored weights — deterministic, so the continuation is
    // byte-identical to the uninterrupted run. Skipped when every
    // requested generation was resumed (nothing left to harvest for).
    StatusOr<std::vector<repair::RepairReport>> Reports =
        evalAll(Resumed - 1);
    if (!Reports.isOk())
      return Reports.status();
    CurReports = std::move(*Reports);
  }

  // ---- Fine-tune generations. -------------------------------------------
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::instance();
  for (int K = std::max(Resumed, 1); K <= Options.Generations; ++K) {
    obs::Span GenSpan("flywheel.generation", "flywheel");
    GenSpan.arg("generation", std::to_string(K));
    const GenerationStats &Prev = Report.Generations.back();

    Harvest H = harvestReports(CurReports);
    VegaSystem::AugmentResult AR = System.augmentTrainingPairs(H.Pairs);
    Metrics.addCounter("flywheel.pairs_harvested", H.Pairs.size());
    Metrics.addCounter("flywheel.pairs_added", AR.Added);
    Metrics.addCounter("flywheel.pairs_deduped", AR.Deduped);

    std::string Snapshot = System.model()->saveWeights();
    StatusOr<model::TrainResult> TR = System.fineTuneRound(
        Options.FineTuneEpochs, Options.Seed ^ (0xf17ee1ULL + K));
    if (!TR.isOk())
      return TR.status();

    StatusOr<std::vector<repair::RepairReport>> NewReports = evalAll(K);
    if (!NewReports.isOk())
      return NewReports.status();

    GenerationStats Gen;
    Gen.Generation = K;
    for (const repair::RepairReport &R : *NewReports)
      Gen.Targets.push_back(statsOf(R));
    aggregate(Gen);

    // The acceptance gate: never regress the committed trajectory.
    bool Accept =
        Gen.Pass1 >= Prev.Pass1 && Gen.RepairReliance <= Prev.RepairReliance;
    if (Options.Verbose && !Accept)
      std::fprintf(stderr,
                   "vega: flywheel gen %d candidate pass@1 %.4f reliance "
                   "%.4f regressed (prev %.4f / %.4f); reverting\n",
                   K, Gen.Pass1, Gen.RepairReliance, Prev.Pass1,
                   Prev.RepairReliance);
    if (Accept) {
      CurReports = std::move(*NewReports);
    } else {
      // Revert the weights; the generation's eval columns repeat the
      // previous generation's (the trajectory stays flat).
      if (!System.model()->loadWeights(Snapshot))
        return Status::internal("weight snapshot restore failed");
      Gen.Pass1 = Prev.Pass1;
      Gen.GreedyPass1 = Prev.GreedyPass1;
      Gen.RepairReliance = Prev.RepairReliance;
      Gen.Targets = Prev.Targets;
      Gen.Accepted = false;
    }
    Gen.HarvestedPositives = H.Positives;
    Gen.HarvestedNegatives = H.Negatives;
    Gen.PairsAdded = AR.Added;
    Gen.PairsDeduped = AR.Deduped;
    Gen.PairsSkippedOov = AR.SkippedOov;
    Gen.TrainMeanLoss = TR->FinalMeanLoss;
    for (TargetGenStats &T : Gen.Targets) {
      auto It = H.PerTarget.find(T.Target);
      T.HarvestedPositives = It == H.PerTarget.end() ? 0 : It->second.first;
      T.HarvestedNegatives = It == H.PerTarget.end() ? 0 : It->second.second;
    }

    Metrics.addCounter("flywheel.generations");
    Metrics.addCounter(Gen.Accepted ? "flywheel.generations_accepted"
                                    : "flywheel.generations_rejected");
    Metrics.setGauge("flywheel.pass1", Gen.Pass1);
    Metrics.setGauge("flywheel.repair_reliance", Gen.RepairReliance);
    if (Options.Verbose)
      std::fprintf(stderr,
                   "vega: flywheel gen %d: pass@1 %.4f reliance %.4f "
                   "(+%zu pairs, %s)\n",
                   K, Gen.Pass1, Gen.RepairReliance, AR.Added,
                   Gen.Accepted ? "accepted" : "rejected");

    Report.Generations.push_back(Gen);
    Report.TotalPairsAdded += AR.Added;
    ++Report.GenerationsRun;
    if (Status S = persistGeneration(K, Gen, &H); !S.isOk())
      return S;
  }

  RunSpan.arg("pass1", std::to_string(Report.Generations.back().Pass1));
  return Report;
}

} // namespace flywheel
} // namespace vega
