//===- core/Pipeline.cpp - The VEGA system -----------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "ast/Parser.h"
#include "lexer/Lexer.h"
#include "obs/Metrics.h"
#include "obs/Request.h"
#include "obs/Trace.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>

using namespace vega;

const GeneratedFunction *
GeneratedBackend::find(const std::string &InterfaceName) const {
  for (const GeneratedFunction &F : Functions)
    if (F.InterfaceName == InterfaceName)
      return &F;
  return nullptr;
}

double GeneratedBackend::totalSeconds() const {
  double Total = 0.0;
  for (const auto &[Module, Seconds] : ModuleSeconds)
    Total += Seconds;
  return Total;
}

uint64_t VegaOptions::fingerprint() const {
  uint64_t H = Model.fingerprint();
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  auto MixBits = [&Mix](double V) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(Bits));
    Mix(Bits);
  };
  Mix(static_cast<uint64_t>(Model.Epochs));
  Mix(static_cast<uint64_t>(Model.BatchSize));
  MixBits(static_cast<double>(Model.LearningRate));
  Mix(static_cast<uint64_t>(Split));
  MixBits(TrainFraction);
  Mix(SplitSeed);
  Mix(static_cast<uint64_t>(MaxCandidatesPerRow));
  Mix(UseTargetDependentValues ? 1 : 2);
  Mix(UseTargetIndependentBools ? 1 : 2);
  return H;
}

namespace {

/// Global ordering of updatable Boolean properties shared by every feature
/// vector (the paper fixes 345 property positions; we fix the union of
/// updatable properties).
std::vector<std::string>
globalBoolOrder(const std::vector<TemplateInfo> &Templates) {
  std::set<std::string> Names;
  for (const TemplateInfo &TI : Templates)
    for (const BoolProperty &P : TI.Features.BoolProps)
      if (P.Updatable)
        Names.insert(P.Name);
  return std::vector<std::string>(Names.begin(), Names.end());
}

std::string fillerText(const std::vector<Token> &Filler) {
  for (const Token &T : Filler)
    if (T.Kind != TokenKind::Punct)
      return T.Text;
  return Filler.empty() ? std::string() : Filler.front().Text;
}

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

/// Renames every spelling variant of \p From inside \p Text to the matching
/// variant of \p To ("fixup_arm_movt_hi16" → "fixup_riscv_movt_hi16").
/// Each case variant is applied at most once — an all-caps source name like
/// "VE" must not be re-run over its own replacement ("RISCVELF…" contains
/// "VE").
std::string renameTarget(std::string Text, const std::string &From,
                         const std::string &To) {
  Text = replaceAll(std::move(Text), From, To);
  if (lowerOf(From) != From)
    Text = replaceAll(std::move(Text), lowerOf(From), lowerOf(To));
  if (upperOf(From) != From)
    Text = replaceAll(std::move(Text), upperOf(From), upperOf(To));
  return Text;
}

uint64_t hashText(std::string_view Text) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : Text) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

VegaSystem::VegaSystem(const BackendCorpus &Corpus, VegaOptions Options)
    : Corpus(Corpus), Options(Options) {
  std::vector<std::string> AllNames;
  for (const TargetTraits &T : Corpus.targets().targets())
    AllNames.push_back(T.Name);
  Selector = std::make_unique<FeatureSelector>(Corpus.vfs(), AllNames);
}

VegaSystem::~VegaSystem() = default;

const TemplateInfo *
VegaSystem::findTemplate(const std::string &InterfaceName) const {
  for (const TemplateInfo &TI : Templates)
    if (TI.FT.InterfaceName == InterfaceName)
      return &TI;
  return nullptr;
}

double VegaSystem::buildTemplates() {
  obs::Span StageSpan("stage1.build_templates", "stage1");
  Templates.clear();
  for (const FunctionGroup &Group : Corpus.trainingGroups()) {
    obs::Span GroupSpan("stage1.template", "stage1");
    GroupSpan.arg("interface", Group.InterfaceName);
    TemplateInfo TI;
    TI.FT = buildFunctionTemplate(Group);
    TI.Features = Selector->analyze(TI.FT);

    // Parent links.
    std::function<void(const TemplateRow *, const TemplateRow *)> Walk =
        [&](const TemplateRow *Row, const TemplateRow *Parent) {
          TI.Parent[Row] = Parent;
          for (const auto &Child : Row->Children)
            Walk(Child.get(), Row);
        };
    TI.Parent[TI.FT.Definition.get()] = nullptr;
    for (const auto &Row : TI.FT.Body)
      Walk(Row.get(), nullptr);

    // Primary slot of each repeatable row: the slot whose property has the
    // largest candidate set over the training targets.
    for (const TemplateRow *Row : TI.FT.rows()) {
      if (!Row->Repeatable)
        continue;
      auto It = TI.Features.RowSlots.find(Row->Index);
      if (It == TI.Features.RowSlots.end() || It->second.empty())
        continue;
      size_t Best = 0;
      size_t BestCount = 0;
      for (size_t S = 0; S < It->second.size(); ++S) {
        size_t MaxCount = 0;
        for (const std::string &Tgt : Corpus.trainingTargetNames())
          MaxCount = std::max(
              MaxCount,
              Selector->harvestValues(It->second[S].Name, Tgt).size());
        if (MaxCount > BestCount) {
          BestCount = MaxCount;
          Best = S;
        }
      }
      TI.PrimarySlot[Row] = Best;
    }
    Templates.push_back(std::move(TI));
  }
  GlobalBools = globalBoolOrder(Templates);
  obs::MetricsRegistry::instance().addCounter("stage1.templates",
                                              Templates.size());
  return StageSpan.close();
}

std::vector<std::string>
VegaSystem::slotCandidates(const TemplateInfo &TI, const TemplateRow &Row,
                           size_t SlotIdx, const std::string &Target) const {
  std::vector<std::string> Result;
  std::set<std::string> Seen;
  auto Add = [&](const std::string &V) {
    if (!V.empty() && Seen.insert(V).second)
      Result.push_back(V);
  };

  auto SlotsIt = TI.Features.RowSlots.find(Row.Index);
  if (SlotsIt != TI.Features.RowSlots.end() &&
      SlotIdx < SlotsIt->second.size()) {
    const std::string &Prop = SlotsIt->second[SlotIdx].Name;
    if (!Prop.empty()) {
      std::vector<std::string> Harvest =
          Selector->harvestValues(Prop, Target);
      for (size_t I = 0; I < Harvest.size() && I < 12; ++I)
        Add(Harvest[I]);
    }
  }

  // Prefix-rename synthesis from training fillers.
  size_t Budget = 8;
  for (const auto &[SrcTarget, Instances] : Row.PerTarget) {
    if (SrcTarget == Target)
      continue;
    for (const auto &Inst : Instances) {
      if (SlotIdx >= Inst.SlotFillers.size())
        continue;
      const std::vector<Token> &Filler = Inst.SlotFillers[SlotIdx];
      if (Filler.size() != 1)
        continue;
      const std::string &Text = Filler.front().Text;
      std::string Renamed = renameTarget(Text, SrcTarget, Target);
      if (Renamed == Text)
        continue; // no target-name occurrence; nothing to synthesize
      if (Result.size() >= 12 + 8 || Budget == 0)
        break;
      if (Seen.insert(Renamed).second) {
        Result.push_back(Renamed);
        --Budget;
      }
    }
  }
  return Result;
}

std::vector<std::string> VegaSystem::buildInputTokens(
    const TemplateInfo &TI, const TemplateRow &Row, const std::string &Target,
    const std::optional<std::string> &AssignedPrimary,
    const std::string &CtxValue) const {
  std::vector<std::string> Tokens;
  Tokens.push_back(Vocab::Cls);
  Tokens.push_back(TI.FT.InterfaceName);
  for (const Token &T : Row.Tokens)
    Tokens.push_back(T.Text);

  // Boolean target-independent properties, in the fixed global order.
  Tokens.push_back(Vocab::Bools);
  for (const std::string &Name : GlobalBools) {
    if (!Options.UseTargetIndependentBools) {
      Tokens.push_back(Vocab::Null);
      continue;
    }
    const BoolProperty *P = TI.Features.findBool(Name);
    if (!P) {
      Tokens.push_back(Vocab::Null);
      continue;
    }
    auto It = P->ValuePerTarget.find(Target);
    bool V = It != P->ValuePerTarget.end() && It->second;
    Tokens.push_back(V ? Vocab::True : Vocab::False);
  }

  // Target-dependent slot values.
  Tokens.push_back(Vocab::Vals);
  auto SlotsIt = TI.Features.RowSlots.find(Row.Index);
  if (SlotsIt != TI.Features.RowSlots.end()) {
    size_t Primary = SIZE_MAX;
    auto PIt = TI.PrimarySlot.find(&Row);
    if (PIt != TI.PrimarySlot.end())
      Primary = PIt->second;
    for (size_t S = 0; S < SlotsIt->second.size(); ++S) {
      if (S != 0)
        Tokens.push_back(Vocab::Sep);
      if (!Options.UseTargetDependentValues) {
        Tokens.push_back(Vocab::Null);
        continue;
      }
      if (S == Primary && AssignedPrimary) {
        Tokens.push_back(*AssignedPrimary);
        continue;
      }
      std::vector<std::string> Values = slotCandidates(TI, Row, S, Target);
      if (Values.empty()) {
        Tokens.push_back(Vocab::Null);
        continue;
      }
      size_t Cap = std::min<size_t>(Values.size(), 14);
      for (size_t V = 0; V < Cap; ++V)
        Tokens.push_back(Values[V]);
    }
  }

  // Ancestor path context (nearest first).
  Tokens.push_back(Vocab::Path);
  int PathBudget = 8;
  for (const TemplateRow *Anc = TI.Parent.at(&Row); Anc && PathBudget > 0;
       Anc = TI.Parent.at(Anc)) {
    int PerRow = 4;
    for (const Token &T : Anc->Tokens) {
      if (PerRow-- <= 0 || PathBudget <= 0)
        break;
      Tokens.push_back(T.Text);
      --PathBudget;
    }
  }

  // Enclosing repeatable-row value context.
  Tokens.push_back(Vocab::Ctx);
  Tokens.push_back(CtxValue.empty() ? Vocab::Null : CtxValue);
  return Tokens;
}

double VegaSystem::analyticConfidence(const TemplateInfo &TI,
                                      const TemplateRow &Row,
                                      const std::string &Target,
                                      bool Has) const {
  if (!Has)
    return 0.0;
  size_t Total = Row.Tokens.size();
  if (Total == 0)
    return 1.0;
  size_t Common = Row.commonTokenCount();
  double Score = static_cast<double>(Common) / static_cast<double>(Total);
  auto SlotsIt = TI.Features.RowSlots.find(Row.Index);
  if (SlotsIt != TI.Features.RowSlots.end()) {
    for (const SlotProperty &Slot : SlotsIt->second) {
      size_t N = 1;
      if (!Slot.Name.empty()) {
        size_t H = Selector->harvestValues(Slot.Name, Target).size();
        if (H > 0)
          N = H;
      }
      Score += 1.0 / (static_cast<double>(Total) * static_cast<double>(N));
    }
  }
  return std::min(Score, 1.0);
}

void VegaSystem::collectPairsForTarget(const TemplateInfo &TI,
                                       const std::string &Target,
                                       bool Implements,
                                       ChildContextMap &ChildCtx,
                                       std::vector<TextPair> &Out) {
  std::vector<const TemplateRow *> Rows = TI.FT.rows();

  auto MakeDst = [&](double Confidence,
                     const std::vector<Token> &StmtTokens) {
    std::vector<std::string> Dst;
    Dst.push_back(Vocab::csToken(Vocab::csBucket(Confidence)));
    for (const Token &T : StmtTokens)
      Dst.push_back(T.Text);
    Dst.push_back(Vocab::Eos);
    return Dst;
  };

  if (!Implements) {
    // Negative example: the function does not exist on this target, so the
    // definition row learns confidence 0 from the Boolean properties.
    TextPair Pair;
    Pair.Target = Target;
    Pair.Src = buildInputTokens(TI, *TI.FT.Definition, Target, std::nullopt,
                                std::string());
    Pair.Dst = MakeDst(0.0, TI.FT.Definition->Tokens);
    Out.push_back(std::move(Pair));
    return;
  }

  for (const TemplateRow *Row : Rows) {
    auto InstIt = Row->PerTarget.find(Target);
    bool Has = InstIt != Row->PerTarget.end() && !InstIt->second.empty();

    if (Row->Repeatable) {
      // Expansion training: one example per candidate value, positive when
      // the target actually has an instance with that value.
      auto PIt = TI.PrimarySlot.find(Row);
      if (PIt == TI.PrimarySlot.end())
        continue;
      size_t Primary = PIt->second;
      const auto &Slots = TI.Features.RowSlots.at(Row->Index);
      std::vector<std::string> Candidates =
          Slots[Primary].Name.empty()
              ? std::vector<std::string>()
              : Selector->harvestValues(Slots[Primary].Name, Target);
      if (static_cast<int>(Candidates.size()) > Options.MaxCandidatesPerRow)
        Candidates.resize(static_cast<size_t>(Options.MaxCandidatesPerRow));
      for (const std::string &Candidate : Candidates) {
        const TemplateRow::Instance *Match = nullptr;
        if (Has) {
          for (const auto &Inst : InstIt->second) {
            if (Primary < Inst.SlotFillers.size() &&
                fillerText(Inst.SlotFillers[Primary]) == Candidate) {
              Match = &Inst;
              break;
            }
          }
        }
        TextPair Pair;
        Pair.Target = Target;
        Pair.Src =
            buildInputTokens(TI, *Row, Target, Candidate, std::string());
        if (Match) {
          double CS = analyticConfidence(TI, *Row, Target, true);
          Pair.Dst = MakeDst(CS, Match->Stmt->Tokens);
          // Record the context value for this instance's children.
          for (const auto &Child : Match->Stmt->Children)
            ChildCtx[Child.get()] = Candidate;
        } else {
          Pair.Dst = MakeDst(0.0, Row->Tokens);
        }
        Out.push_back(std::move(Pair));
      }
      continue;
    }

    // Non-repeatable rows: one example (present or absent).
    std::string Ctx;
    if (Has) {
      auto CtxIt = ChildCtx.find(InstIt->second.front().Stmt);
      if (CtxIt != ChildCtx.end())
        Ctx = CtxIt->second;
    }
    TextPair Pair;
    Pair.Target = Target;
    Pair.Src = buildInputTokens(TI, *Row, Target, std::nullopt, Ctx);
    if (Has) {
      double CS = analyticConfidence(TI, *Row, Target, true);
      Pair.Dst = MakeDst(CS, InstIt->second.front().Stmt->Tokens);
    } else {
      Pair.Dst = MakeDst(0.0, Row->Tokens);
    }
    Out.push_back(std::move(Pair));
  }
}

void VegaSystem::buildDataset() {
  obs::Span StageSpan("stage1.build_dataset", "stage1");
  TrainTexts.clear();
  VerifyTexts.clear();
  TrainFunctions = VerifyFunctions = 0;
  ChildContextMap ChildCtx;

  std::vector<std::string> TrainingNames = Corpus.trainingTargetNames();
  std::set<std::string> BackendTrainSet;
  if (Options.Split == VegaOptions::SplitKind::BackendBased) {
    std::vector<std::string> Shuffled = TrainingNames;
    RNG Rng(Options.SplitSeed);
    Rng.shuffle(Shuffled);
    size_t N = static_cast<size_t>(Options.TrainFraction *
                                   static_cast<double>(Shuffled.size()));
    for (size_t I = 0; I < N; ++I)
      BackendTrainSet.insert(Shuffled[I]);
  }

  // Pass 1: positive pairs for repeatable rows populate ChildCtx, so
  // collect pairs in two phases per template: repeatable first via the
  // natural row order (parents precede children in pre-order).
  for (const TemplateInfo &TI : Templates) {
    std::vector<std::string> Members = TI.FT.MemberTargets;
    std::set<std::string> TrainMembers;
    if (Options.Split == VegaOptions::SplitKind::FunctionGroup) {
      std::vector<std::string> Shuffled = Members;
      RNG Rng(Options.SplitSeed ^ hashText(TI.FT.InterfaceName));
      Rng.shuffle(Shuffled);
      size_t N = std::max<size_t>(
          1, static_cast<size_t>(Options.TrainFraction *
                                 static_cast<double>(Shuffled.size())));
      for (size_t I = 0; I < N; ++I)
        TrainMembers.insert(Shuffled[I]);
    } else {
      for (const std::string &M : Members)
        if (BackendTrainSet.count(M))
          TrainMembers.insert(M);
    }

    std::set<std::string> MemberSet(Members.begin(), Members.end());
    for (const std::string &Target : TrainingNames) {
      bool Implements = MemberSet.count(Target) != 0;
      bool InTrain = !Implements || TrainMembers.count(Target) != 0;
      std::vector<TextPair> Pairs;
      collectPairsForTarget(TI, Target, Implements, ChildCtx, Pairs);
      if (InTrain) {
        if (Implements)
          ++TrainFunctions;
        for (TextPair &P : Pairs)
          TrainTexts.push_back(std::move(P));
      } else {
        ++VerifyFunctions;
        for (TextPair &P : Pairs)
          VerifyTexts.push_back(std::move(P));
      }
    }
  }

  // Target-anonymization augmentation: duplicate every training pair with
  // the target's spellings renamed to a synthetic name. Without this the
  // model can shortcut-learn "Boolean pattern → target identity" instead of
  // copying identifiers from the feature vector, and the shortcut collapses
  // on a held-out target. (The paper's UniXcoder brings this robustness
  // from pre-training; at our scale it must be taught.)
  {
    static const char *Pseudo[] = {"Alder", "Birch", "Cedar", "Dogwd",
                                   "Elmwd", "Firbr", "Ginko", "Hazel"};
    size_t N = TrainTexts.size();
    for (size_t I = 0; I < N; ++I) {
      const TextPair &P = TrainTexts[I];
      if (P.Target.empty())
        continue;
      TextPair Renamed;
      // One fixed pseudonym per target keeps the vocabulary growth linear.
      std::string To = Pseudo[hashText(P.Target) % 8];
      Renamed.Target = To;
      Renamed.Src.reserve(P.Src.size());
      for (const std::string &T : P.Src)
        Renamed.Src.push_back(renameTarget(T, P.Target, To));
      Renamed.Dst.reserve(P.Dst.size());
      for (const std::string &T : P.Dst)
        Renamed.Dst.push_back(renameTarget(T, P.Target, To));
      TrainTexts.push_back(std::move(Renamed));
    }
  }
  buildVocab();
  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("stage1.train_pairs", TrainTexts.size());
  Metrics.addCounter("stage1.verify_pairs", VerifyTexts.size());
  Metrics.setGauge("stage1.vocab_size",
                   static_cast<double>(Vocabulary.size()));
}

void VegaSystem::buildVocab() {
  Vocabulary = Vocab();
  auto AddAll = [&](const std::vector<TextPair> &Pairs) {
    for (const TextPair &P : Pairs) {
      for (const std::string &T : P.Src)
        Vocabulary.addToken(T);
      for (const std::string &T : P.Dst)
        Vocabulary.addToken(T);
    }
  };
  AddAll(TrainTexts);
  AddAll(VerifyTexts);

  // Description-file identifiers of every target (evaluation targets'
  // description files are given inputs, so their tokens are fair game —
  // UniXcoder's BPE would cover them regardless).
  for (const TargetTraits &T : Corpus.targets().targets()) {
    const DescriptionIndex *Index = Selector->targetIndex(T.Name);
    if (!Index)
      continue;
    for (const DescriptionFile &File : Index->files())
      for (const std::string &Tok : File.Tokens)
        Vocabulary.addToken(Tok);
    for (const DescAssignment &A : Index->assignments())
      Vocabulary.addToken(A.Value);
  }

  // Compositional expansion: training tokens prefixed by a training target
  // name spawn the analogous token for each evaluation target ("ARM" +
  // "ELFObjectWriter" → "RISCVELFObjectWriter"). This mirrors what subword
  // tokenization gives the paper's model for free.
  std::vector<std::string> TrainingNames = Corpus.trainingTargetNames();
  std::set<std::string> Training(TrainingNames.begin(), TrainingNames.end());
  std::vector<std::string> EvalTargets; // corpus targets minus training ones
  for (const TargetTraits &T : Corpus.targets().targets())
    if (!Training.count(T.Name))
      EvalTargets.push_back(T.Name);
  std::vector<std::string> Composites;
  for (size_t Id = 0; Id < Vocabulary.size(); ++Id) {
    const std::string &Text = Vocabulary.textOf(static_cast<int>(Id));
    for (const std::string &N : TrainingNames) {
      if (Text.size() <= N.size() || Text.compare(0, N.size(), N) != 0)
        continue;
      std::string Suffix = Text.substr(N.size());
      for (const std::string &E : EvalTargets)
        Composites.push_back(E + Suffix);
    }
  }
  for (const std::string &C : Composites)
    Vocabulary.addToken(C);

  // Slot candidates (harvests + prefix renames) for every target, so the
  // generation-time feature vectors of the held-out targets are fully
  // in-vocabulary.
  for (const TemplateInfo &TI : Templates)
    for (const TemplateRow *Row : TI.FT.rows()) {
      auto SlotsIt = TI.Features.RowSlots.find(Row->Index);
      if (SlotsIt == TI.Features.RowSlots.end())
        continue;
      for (size_t S = 0; S < SlotsIt->second.size(); ++S)
        for (const TargetTraits &T : Corpus.targets().targets())
          for (const std::string &V : slotCandidates(TI, *Row, S, T.Name))
            Vocabulary.addToken(V);
    }

  // Structural tokens: output tokens observed for many distinct targets are
  // target-independent and always allowed in constrained decoding.
  std::map<std::string, std::set<std::string>> TokenTargets;
  for (const TextPair &P : TrainTexts)
    for (const std::string &T : P.Dst)
      TokenTargets[T].insert(P.Target);
  StructuralTokens.assign(Vocabulary.size(), 0);
  for (const auto &[Token, Targets] : TokenTargets)
    if (Targets.size() >= 6)
      StructuralTokens[static_cast<size_t>(Vocabulary.idOf(Token))] = 1;

  SpecialTokenIds.clear();
  for (size_t Id = 0; Id < Vocabulary.size(); ++Id)
    if (Vocab::isSpecialSpelling(Vocabulary.textOf(static_cast<int>(Id))))
      SpecialTokenIds.push_back(static_cast<int>(Id));
}

TrainPair VegaSystem::toIds(const TextPair &Pair) const {
  TrainPair Ids;
  for (const std::string &T : Pair.Src)
    Ids.Src.push_back(Vocabulary.idOf(T));
  for (const std::string &T : Pair.Dst)
    Ids.Dst.push_back(Vocabulary.idOf(T));
  return Ids;
}

void VegaSystem::initModelFromCache() {
  Model = std::make_unique<CodeBE>(Vocabulary, Options.Model);
}

model::TrainOptions VegaSystem::trainOptions() const {
  model::TrainOptions T = model::TrainOptions::fromConfig(Options.Model);
  T.Jobs = Options.TrainJobs > 0 ? Options.TrainJobs : Options.Jobs;
  return T;
}

Status VegaSystem::fineTune() {
  obs::Span StageSpan("stage2.train_model", "stage2");
  if (!Model)
    initModelFromCache();
  std::vector<TrainPair> Data;
  Data.reserve(TrainTexts.size());
  for (const TextPair &P : TrainTexts)
    Data.push_back(toIds(P));
  model::TrainOptions TOpts = trainOptions();
  TOpts.OnEpoch = [&](const model::EpochStats &Stats) {
    if (Options.Verbose)
      std::fprintf(stderr, "vega: epoch %d mean loss %.4f (%.1f examples/s)\n",
                   Stats.Epoch, Stats.MeanLoss, Stats.ExamplesPerSec);
  };
  model::Trainer Engine(*Model, std::move(TOpts));
  StatusOr<model::TrainResult> Result = Engine.run(Data);
  return Result.isOk() ? Status::ok() : Result.status();
}

namespace {

/// Content fingerprint of one training pair: FNV-1a over the Src tokens, a
/// side separator, then the Dst tokens, with a terminator after every token
/// so concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot collide.
uint64_t pairFingerprint(const std::vector<std::string> &Src,
                         const std::vector<std::string> &Dst) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](const std::string &T) {
    for (char C : T) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ULL;
    }
    H ^= 0x1fu;
    H *= 1099511628211ULL;
  };
  for (const std::string &T : Src)
    Mix(T);
  H ^= 0x2fu;
  H *= 1099511628211ULL;
  for (const std::string &T : Dst)
    Mix(T);
  return H;
}

} // namespace

VegaSystem::AugmentResult
VegaSystem::augmentTrainingPairs(const std::vector<AugmentedPair> &Pairs) {
  AugmentResult Res;
  if (!FingerprintsSeeded) {
    for (const TextPair &P : TrainTexts)
      PairFingerprints.insert(pairFingerprint(P.Src, P.Dst));
    FingerprintsSeeded = true;
  }
  for (const AugmentedPair &P : Pairs) {
    bool Usable = !P.Src.empty() && !P.Dst.empty();
    for (const std::string &T : P.Src)
      Usable = Usable && Vocabulary.contains(T);
    for (const std::string &T : P.Dst)
      Usable = Usable && Vocabulary.contains(T);
    if (!Usable) {
      ++Res.SkippedOov;
      continue;
    }
    if (!PairFingerprints.insert(pairFingerprint(P.Src, P.Dst)).second) {
      ++Res.Deduped;
      continue;
    }
    if (TrainWeights.empty())
      TrainWeights.assign(TrainTexts.size(), 1.0f);
    TextPair T;
    T.Src = P.Src;
    T.Dst = P.Dst;
    T.Target = P.Target;
    TrainTexts.push_back(std::move(T));
    TrainWeights.push_back(P.Weight);
    ++Res.Added;
  }
  return Res;
}

StatusOr<model::TrainResult> VegaSystem::fineTuneRound(int Epochs,
                                                       uint64_t Seed) {
  assert(Model && "fineTune() or SessionCheckpoint::loadWeights() must run "
                  "first");
  obs::Span StageSpan("stage2.finetune_round", "stage2");
  StageSpan.arg("epochs", std::to_string(Epochs));
  std::vector<TrainPair> Data;
  Data.reserve(TrainTexts.size());
  for (const TextPair &P : TrainTexts)
    Data.push_back(toIds(P));
  model::TrainOptions TOpts = trainOptions();
  TOpts.Epochs = Epochs;
  TOpts.Seed = Seed;
  TOpts.ExampleWeights = TrainWeights;
  TOpts.OnEpoch = [&](const model::EpochStats &Stats) {
    if (Options.Verbose)
      std::fprintf(stderr,
                   "vega: round epoch %d mean loss %.4f (%.1f examples/s)\n",
                   Stats.Epoch, Stats.MeanLoss, Stats.ExamplesPerSec);
  };
  model::Trainer Engine(*Model, std::move(TOpts));
  return Engine.run(Data);
}

double VegaSystem::verificationExactMatch(size_t MaxPairs) {
  assert(Model && "fineTune() or SessionCheckpoint::loadWeights() must run "
                  "first");
  std::vector<TrainPair> Data;
  size_t N = VerifyTexts.size();
  if (MaxPairs != 0)
    N = std::min(N, MaxPairs);
  for (size_t I = 0; I < N; ++I)
    Data.push_back(toIds(VerifyTexts[I]));
  return Model->exactMatch(Data);
}

void VegaSystem::buildRowDecode(const TemplateInfo &TI, const TemplateRow &Row,
                                const std::string &Target,
                                const std::optional<std::string> &Assigned,
                                const std::string &CtxValue,
                                std::vector<int> &SrcIds,
                                std::vector<uint8_t> &Allowed,
                                CodeBE::DecodePlan &Plan) const {
  std::vector<std::string> Src =
      buildInputTokens(TI, Row, Target, Assigned, CtxValue);
  for (const std::string &T : Src)
    SrcIds.push_back(Vocabulary.idOf(T));
  // Constrained decoding: structural tokens plus anything present in the
  // input feature vector.
  Allowed = StructuralTokens;
  Allowed.resize(Vocabulary.size(), 0);
  for (int Id : SrcIds)
    if (Id >= 0)
      Allowed[static_cast<size_t>(Id)] = 1;
  // Specials never appear in statements ($SV placeholders are fine: absent
  // rows echo the template).
  for (int Id : SpecialTokenIds)
    Allowed[static_cast<size_t>(Id)] = 0;

  // Template-guided decode plan (§3.4: generation *customizes the function
  // template*): position 0 picks a confidence bucket, skeleton positions
  // are pinned to the template, and each placeholder chooses among its
  // slot's candidate values.
  Plan.Steps.emplace_back(); // CS position
  Plan.Bias.emplace_back();
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Plan.Steps.front().push_back(Vocabulary.csId(B));
  {
    size_t Primary = SIZE_MAX;
    auto PIt = TI.PrimarySlot.find(&Row);
    if (PIt != TI.PrimarySlot.end())
      Primary = PIt->second;
    size_t SlotIdx = 0;
    for (const Token &T : Row.Tokens) {
      std::vector<int> StepSet;
      std::map<int, float> StepBias;
      if (!T.isPlaceholder()) {
        StepSet.push_back(Vocabulary.idOf(T.Text));
      } else {
        if (SlotIdx == Primary && Assigned) {
          StepSet.push_back(Vocabulary.idOf(*Assigned));
        } else {
          // Lexical-affinity prior: candidates that share identifier words
          // with the enclosing context value (e.g. R_RISCV_PCREL_HI20 with
          // fixup_riscv_pcrel_hi20) get a logit boost — the stand-in for
          // the subword morphology a pre-trained model brings (DESIGN.md).
          std::string Affinity = CtxValue;
          if (Assigned)
            Affinity = *Assigned;
          for (const std::string &V :
               slotCandidates(TI, Row, SlotIdx, Target)) {
            int Id = Vocabulary.idOf(V);
            StepSet.push_back(Id);
            if (!Affinity.empty())
              StepBias[Id] =
                  12.0f * static_cast<float>(identifierSimilarity(V, Affinity));
          }
        }
        // No candidates: leave the step unconstrained (falls back to the
        // structural ∪ source set) — an honest Err-V source.
        ++SlotIdx;
      }
      Plan.Steps.push_back(std::move(StepSet));
      Plan.Bias.push_back(std::move(StepBias));
    }
  }
}

void VegaSystem::finishStatement(GeneratedStatement &Result,
                                 const std::vector<int> &Ids) const {
  size_t Start = 0;
  if (Vocabulary.isCsToken(Ids[0])) {
    Result.Confidence = Vocabulary.csValueOf(Ids[0]);
    Start = 1;
  }
  std::string Text;
  for (size_t I = Start; I < Ids.size(); ++I) {
    if (!Text.empty())
      Text += ' ';
    Text += Vocabulary.textOf(Ids[I]);
  }
  Result.Tokens = Lexer::tokenize(Text);
  Result.Emitted = Result.Confidence >= Options.ConfidenceThreshold &&
                   !Result.Tokens.empty();
}

const TemplateRow *VegaSystem::rowByIndex(const TemplateInfo &TI,
                                          int RowIndex) const {
  for (const TemplateRow *Row : TI.FT.rows())
    if (Row->Index == RowIndex)
      return Row;
  return nullptr;
}

GeneratedStatement VegaSystem::generateRow(
    const TemplateInfo &TI, const TemplateRow &Row, const std::string &Target,
    const std::optional<std::string> &Assigned, const std::string &CtxValue) {
  obs::Span RowSpan("gen.row", "stage3");
  RowSpan.arg("row", std::to_string(Row.Index));
  GeneratedStatement Result;
  Result.RowIndex = Row.Index;
  if (Assigned)
    Result.CandidateValue = *Assigned;
  Result.CtxValue = CtxValue;

  std::vector<int> SrcIds;
  std::vector<uint8_t> Allowed;
  CodeBE::DecodePlan Plan;
  buildRowDecode(TI, Row, Target, Assigned, CtxValue, SrcIds, Allowed, Plan);
  // Stage 3 reads the decoded confidence bucket, never the per-token
  // probabilities — skip their full-vocabulary softmax sweep per step.
  CodeBE::Decoded Out =
      Model->generate(SrcIds, &Allowed, &Plan, /*WithProbs=*/false);
  if (Out.Tokens.empty())
    return Result;

  finishStatement(Result, Out.Tokens);
  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.observe("gen.confidence", Result.Confidence);
  Metrics.addCounter("gen.statements");
  if (Result.Emitted)
    Metrics.addCounter("gen.statements_emitted");
  return Result;
}

std::vector<GeneratedStatement>
VegaSystem::beamCandidatesForSite(const TemplateInfo &TI,
                                  const DecodeSite &Site,
                                  const std::string &TargetName, int Width) {
  std::vector<GeneratedStatement> Out;
  const TemplateRow *Row = rowByIndex(TI, Site.RowIndex);
  if (!Row)
    return Out;
  std::optional<std::string> Assigned;
  if (!Site.CandidateValue.empty())
    Assigned = Site.CandidateValue;

  std::vector<int> SrcIds;
  std::vector<uint8_t> Allowed;
  CodeBE::DecodePlan Plan;
  buildRowDecode(TI, *Row, TargetName, Assigned, Site.CtxValue, SrcIds,
                 Allowed, Plan);
  std::vector<CodeBE::BeamHypothesis> Hyps =
      Model->decodeBeam(SrcIds, Width, &Allowed, &Plan);

  std::set<std::string> Seen;
  for (const CodeBE::BeamHypothesis &H : Hyps) {
    GeneratedStatement GS;
    GS.RowIndex = Site.RowIndex;
    GS.CandidateValue = Site.CandidateValue;
    GS.CtxValue = Site.CtxValue;
    if (!H.Tokens.empty())
      finishStatement(GS, H.Tokens);
    if (!Seen.insert(renderTokens(GS.Tokens)).second)
      continue;
    Out.push_back(std::move(GS));
  }
  return Out;
}

void VegaSystem::setJobs(int Jobs) {
  Options.Jobs = Jobs;
  Pool.reset();
}

GeneratedFunction VegaSystem::assembleFunction(const TemplateInfo &TI,
                                               const std::string &TargetName,
                                               const SiteChooser &Choose) {
  // One span per function, named after its backend module so per-module
  // time (Fig. 7) is a plain aggregation over the trace. Worker-lane spans
  // carry their thread id (Perfetto shows one lane per worker).
  obs::Span FnSpan(std::string("gen.") + moduleName(TI.FT.Module), "stage3");
  FnSpan.arg("function", TI.FT.InterfaceName);
  FnSpan.arg("target", TargetName);
  if (int Lane = ThreadPool::currentLane(); Lane >= 0)
    FnSpan.arg("worker", std::to_string(Lane));
  GeneratedFunction Fn;
  Fn.InterfaceName = TI.FT.InterfaceName;
  Fn.Module = TI.FT.Module;

  // Every decode site flows through here: the chooser (when set) can
  // splice in a previously decoded or repaired statement; a nullopt answer
  // falls back to a fresh model decode — identical to plain generation.
  auto DecodeSiteStmt = [&](const TemplateRow &Row,
                            const std::optional<std::string> &Assigned,
                            const std::string &Ctx) -> GeneratedStatement {
    if (Choose) {
      DecodeSite Site;
      Site.RowIndex = Row.Index;
      if (Assigned)
        Site.CandidateValue = *Assigned;
      Site.CtxValue = Ctx;
      if (std::optional<GeneratedStatement> Chosen = Choose(Site)) {
        Chosen->RowIndex = Row.Index;
        Chosen->CandidateValue = Site.CandidateValue;
        Chosen->CtxValue = Ctx;
        return *std::move(Chosen);
      }
    }
    return generateRow(TI, Row, TargetName, Assigned, Ctx);
  };

  GeneratedStatement Def =
      DecodeSiteStmt(*TI.FT.Definition, std::nullopt, std::string());
  Fn.Confidence = Def.Confidence;
  Fn.Statements.push_back(Def);
  Fn.Emitted = Def.Emitted;

  std::set<const TemplateRow *> EmittedRows;
  if (Fn.Emitted) {
    Fn.AST.Definition =
        Statement(StmtKind::FunctionDef, Def.Tokens);
    Fn.AST.Name = TI.FT.InterfaceName;
    EmittedRows.insert(TI.FT.Definition.get());

    // Recursive emission over the template tree.
    std::function<void(const TemplateRow &, const std::string &,
                       std::vector<std::unique_ptr<Statement>> &)>
        Emit = [&](const TemplateRow &Row, const std::string &Ctx,
                   std::vector<std::unique_ptr<Statement>> &Out) {
          auto EmitChildren = [&](Statement &Into, const std::string &C) {
            for (const auto &Child : Row.Children)
              Emit(*Child, C, Into.Children);
          };
          if (Row.Repeatable) {
            auto PIt = TI.PrimarySlot.find(&Row);
            if (PIt == TI.PrimarySlot.end())
              return;
            const auto &Slots = TI.Features.RowSlots.at(Row.Index);
            const std::string &Prop = Slots[PIt->second].Name;
            if (Prop.empty())
              return;
            std::vector<std::string> Candidates =
                Selector->harvestValues(Prop, TargetName);
            if (static_cast<int>(Candidates.size()) >
                Options.MaxCandidatesPerRow)
              Candidates.resize(
                  static_cast<size_t>(Options.MaxCandidatesPerRow));
            for (const std::string &Candidate : Candidates) {
              GeneratedStatement Stmt = DecodeSiteStmt(Row, Candidate, Ctx);
              Fn.Statements.push_back(Stmt);
              if (!Stmt.Emitted)
                continue;
              EmittedRows.insert(&Row);
              auto Node = std::make_unique<Statement>(
                  classifyStatement(Stmt.Tokens), Stmt.Tokens);
              for (const auto &Child : Row.Children)
                Emit(*Child, Candidate, Node->Children);
              Out.push_back(std::move(Node));
            }
            return;
          }
          GeneratedStatement Stmt = DecodeSiteStmt(Row, std::nullopt, Ctx);
          Fn.Statements.push_back(Stmt);
          if (!Stmt.Emitted)
            return;
          EmittedRows.insert(&Row);
          auto Node = std::make_unique<Statement>(
              classifyStatement(Stmt.Tokens), Stmt.Tokens);
          EmitChildren(*Node, Ctx);
          Out.push_back(std::move(Node));
        };
    for (const auto &Row : TI.FT.Body)
      Emit(*Row, std::string(), Fn.AST.Body);
  }

  // Multi-target derivation: no single training target supports every
  // emitted row.
  if (Fn.Emitted) {
    bool SingleCovers = false;
    for (const std::string &Tgt : TI.FT.MemberTargets) {
      bool All = true;
      for (const TemplateRow *Row : EmittedRows)
        if (!Row->PerTarget.count(Tgt)) {
          All = false;
          break;
        }
      if (All) {
        SingleCovers = true;
        break;
      }
    }
    Fn.MultiTargetDerived = !SingleCovers;
  }

  // The span is the single timing source: Seconds/ModuleSeconds carry the
  // same measurement the trace records, so Fig. 7 and the exported trace
  // cannot disagree.
  Fn.Seconds = FnSpan.close();
  return Fn;
}

GeneratedBackend VegaSystem::generateBackend(const std::string &TargetName) {
  // CI and the tests key on the span name and its target arg.
  obs::Span StageSpan("stage3.generate_backend", "stage3");
  StageSpan.arg("target", TargetName);
  // The handle API driven to completion in one shot: the lanes of one
  // fan-out pull its units in template order and the merge runs in
  // template order, so the backend is byte-identical at any job count.
  GenerationHandle H = beginGenerate(TargetName);
  runGenerateUnits([&H]() -> std::optional<ClaimedUnit> {
    if (std::optional<size_t> U = H.claimUnit())
      return ClaimedUnit{&H, *U};
    return std::nullopt;
  });
  return finishGenerate(std::move(H));
}

VegaSystem::GenerationHandle
VegaSystem::beginGenerate(const std::string &TargetName) {
  assert(Model && "fineTune() or a checkpoint load must run first");
  GenerationHandle H;
  H.Target = TargetName;
  H.Request = obs::RequestContext::current();
  // Module availability is a property of the base compiler, not something
  // VEGA infers: xCORE's LLVM 3.0 port has no disassembler interface to
  // implement (§4.1.4), so its DIS templates are never instantiated.
  const TargetTraits *Traits = Corpus.targets().find(TargetName);
  for (const TemplateInfo &TI : Templates) {
    if (Traits && TI.FT.Module == BackendModule::DIS &&
        !Traits->HasDisassembler)
      continue;
    H.Units.push_back(&TI);
  }
  H.Results.resize(H.Units.size());
  // The shared inference cache refreshes before any fan-out, so worker
  // threads never race to build it.
  Model->prepareGenerate();
  return H;
}

void VegaSystem::runGenerateUnits(const UnitSource &Next) {
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Options.Jobs);
  // One pull loop per lane.
  Pool->parallelFor(Pool->jobs(), [&](size_t) {
    while (std::optional<ClaimedUnit> Claimed = Next()) {
      GenerationHandle &H = *Claimed->first;
      const size_t U = Claimed->second;
      {
        // A fan-out can mix handles of several requests: each unit's spans
        // go to the request that opened its handle. A handle opened outside
        // any request keeps the lane's context (the caller's, via the
        // pool).
        obs::RequestScope ReqScope(H.Request);
        H.Results[U] = assembleFunction(*H.Units[U], H.Target);
      }
      // The lane's last touch of H: once every unit is counted, another
      // lane may fold the handle and free it.
      H.Executed.fetch_add(1, std::memory_order_acq_rel);
    }
  });
}

GeneratedBackend VegaSystem::finishGenerate(GenerationHandle H) {
  assert(H.complete() && "every unit must run before finish");
  GeneratedBackend Backend;
  Backend.TargetName = H.Target;
  auto &Metrics = obs::MetricsRegistry::instance();
  for (size_t U = 0; U < H.Units.size(); ++U) {
    GeneratedFunction &Fn = H.Results[U];
    Backend.ModuleSeconds[Fn.Module] += Fn.Seconds;
    Metrics.addCounter("gen.functions");
    if (Fn.Emitted)
      Metrics.addCounter("gen.functions_emitted");
    Backend.Functions.push_back(std::move(Fn));
  }
  return Backend;
}
