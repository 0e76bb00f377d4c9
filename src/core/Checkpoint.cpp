//===- core/Checkpoint.cpp - The .vega session artifact ----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "support/BinaryIO.h"
#include "support/FileIO.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>

using namespace vega;

namespace {

// Statement nesting in the corpus is shallow; anything deeper in an
// artifact is corruption, not data.
constexpr int MaxRowDepth = 256;

void writeTokens(BinaryWriter &W, const std::vector<Token> &Tokens) {
  W.u32(static_cast<uint32_t>(Tokens.size()));
  for (const Token &T : Tokens) {
    W.u8(static_cast<uint8_t>(T.Kind));
    W.str(T.Text);
    W.u32(T.Offset);
  }
}

bool readTokens(BinaryReader &R, std::vector<Token> &Out) {
  uint32_t N = 0;
  if (!R.u32(N))
    return false;
  Out.clear();
  for (uint32_t I = 0; I < N; ++I) {
    uint8_t Kind = 0;
    Token T;
    if (!R.u8(Kind) || !R.str(T.Text) || !R.u32(T.Offset))
      return false;
    if (Kind > static_cast<uint8_t>(TokenKind::EndOfFile))
      return false;
    T.Kind = static_cast<TokenKind>(Kind);
    Out.push_back(std::move(T));
  }
  return true;
}

void writeRow(BinaryWriter &W, const TemplateRow &Row) {
  W.u8(static_cast<uint8_t>(Row.Kind));
  W.u8(Row.Repeatable ? 1 : 0);
  W.i32(Row.Index);
  writeTokens(W, Row.Tokens);
  W.u32(static_cast<uint32_t>(Row.PerTarget.size()));
  for (const auto &[Target, Instances] : Row.PerTarget) {
    W.str(Target);
    W.u32(static_cast<uint32_t>(Instances.size()));
    for (const TemplateRow::Instance &Inst : Instances) {
      // Instance::Stmt points into the corpus AST and is only consulted by
      // buildDataset(); a restored session generates without it.
      W.u32(static_cast<uint32_t>(Inst.SlotFillers.size()));
      for (const std::vector<Token> &Filler : Inst.SlotFillers)
        writeTokens(W, Filler);
    }
  }
  W.u32(static_cast<uint32_t>(Row.Children.size()));
  for (const auto &Child : Row.Children)
    writeRow(W, *Child);
}

std::unique_ptr<TemplateRow> readRow(BinaryReader &R, int Depth) {
  if (Depth > MaxRowDepth)
    return nullptr;
  auto Row = std::make_unique<TemplateRow>();
  uint8_t Kind = 0, Repeatable = 0;
  if (!R.u8(Kind) || !R.u8(Repeatable) || !R.i32(Row->Index) ||
      !readTokens(R, Row->Tokens))
    return nullptr;
  Row->Kind = static_cast<StmtKind>(Kind);
  Row->Repeatable = Repeatable != 0;
  uint32_t NTargets = 0;
  if (!R.u32(NTargets))
    return nullptr;
  for (uint32_t T = 0; T < NTargets; ++T) {
    std::string Target;
    uint32_t NInst = 0;
    if (!R.str(Target) || !R.u32(NInst))
      return nullptr;
    std::vector<TemplateRow::Instance> Instances;
    for (uint32_t I = 0; I < NInst; ++I) {
      TemplateRow::Instance Inst;
      uint32_t NFillers = 0;
      if (!R.u32(NFillers))
        return nullptr;
      for (uint32_t F = 0; F < NFillers; ++F) {
        std::vector<Token> Filler;
        if (!readTokens(R, Filler))
          return nullptr;
        Inst.SlotFillers.push_back(std::move(Filler));
      }
      Instances.push_back(std::move(Inst));
    }
    Row->PerTarget.emplace(std::move(Target), std::move(Instances));
  }
  uint32_t NChildren = 0;
  if (!R.u32(NChildren))
    return nullptr;
  for (uint32_t C = 0; C < NChildren; ++C) {
    std::unique_ptr<TemplateRow> Child = readRow(R, Depth + 1);
    if (!Child)
      return nullptr;
    Row->Children.push_back(std::move(Child));
  }
  return Row;
}

void writeOptions(BinaryWriter &W, const VegaOptions &O) {
  W.i32(O.Model.DModel);
  W.i32(O.Model.Heads);
  W.i32(O.Model.EncLayers);
  W.i32(O.Model.DecLayers);
  W.i32(O.Model.FFDim);
  W.i32(O.Model.MaxSrcLen);
  W.i32(O.Model.MaxDstLen);
  W.f64(static_cast<double>(O.Model.LearningRate));
  W.i32(O.Model.Epochs);
  W.i32(O.Model.BatchSize);
  W.u64(O.Model.Seed);
  W.f64(O.ConfidenceThreshold);
  W.u8(static_cast<uint8_t>(O.Split));
  W.f64(O.TrainFraction);
  W.u64(O.SplitSeed);
  W.i32(O.MaxCandidatesPerRow);
  W.u8(O.UseTargetDependentValues ? 1 : 0);
  W.u8(O.UseTargetIndependentBools ? 1 : 0);
}

bool readOptions(BinaryReader &R, VegaOptions &O) {
  double LearningRate = 0.0;
  uint8_t Split = 0, TDV = 0, TIB = 0;
  bool Ok = R.i32(O.Model.DModel) && R.i32(O.Model.Heads) &&
            R.i32(O.Model.EncLayers) && R.i32(O.Model.DecLayers) &&
            R.i32(O.Model.FFDim) && R.i32(O.Model.MaxSrcLen) &&
            R.i32(O.Model.MaxDstLen) && R.f64(LearningRate) &&
            R.i32(O.Model.Epochs) && R.i32(O.Model.BatchSize) &&
            R.u64(O.Model.Seed) && R.f64(O.ConfidenceThreshold) &&
            R.u8(Split) && R.f64(O.TrainFraction) && R.u64(O.SplitSeed) &&
            R.i32(O.MaxCandidatesPerRow) && R.u8(TDV) && R.u8(TIB);
  if (!Ok || Split > 1)
    return false;
  O.Model.LearningRate = static_cast<float>(LearningRate);
  O.Split = static_cast<VegaOptions::SplitKind>(Split);
  O.UseTargetDependentValues = TDV != 0;
  O.UseTargetIndependentBools = TIB != 0;
  return true;
}

/// Parsed META payload.
struct MetaSection {
  uint64_t OptionsFingerprint = 0;
  uint64_t CorpusFingerprint = 0;
  VegaOptions Options;
  uint64_t TemplateCount = 0;
  uint64_t VocabSize = 0;
  uint64_t TrainPairs = 0;
  uint64_t VerifyPairs = 0;
};

Status parseMeta(const std::string &Payload, MetaSection &Meta) {
  BinaryReader R(Payload);
  if (!R.u64(Meta.OptionsFingerprint) || !R.u64(Meta.CorpusFingerprint) ||
      !readOptions(R, Meta.Options) || !R.u64(Meta.TemplateCount) ||
      !R.u64(Meta.VocabSize) || !R.u64(Meta.TrainPairs) ||
      !R.u64(Meta.VerifyPairs))
    return Status::dataLoss("META section is malformed");
  if (Meta.Options.fingerprint() != Meta.OptionsFingerprint)
    return Status::dataLoss(
        "META options do not match their recorded fingerprint");
  return Status::ok();
}

/// Splits an artifact blob into header + checksum-verified sections.
Status parseSections(const std::string &Blob, uint32_t &Version,
                     std::vector<std::pair<std::string, std::string>> &Out) {
  BinaryReader R(Blob);
  std::string Magic;
  if (!R.bytes(Magic, 8) || Magic != SessionCheckpoint::Magic)
    return Status::dataLoss("not a .vega session artifact (bad magic)");
  uint32_t NSections = 0;
  if (!R.u32(Version) || !R.u32(NSections))
    return Status::dataLoss("artifact header is truncated");
  if (Version != SessionCheckpoint::FormatVersion)
    return Status::failedPrecondition(
        "unsupported session format version " + std::to_string(Version) +
        " (this build reads version " +
        std::to_string(SessionCheckpoint::FormatVersion) + ")");
  for (uint32_t I = 0; I < NSections; ++I) {
    std::string Tag, Payload;
    uint64_t Len = 0, Checksum = 0;
    if (!R.bytes(Tag, 4) || !R.u64(Len) || !R.u64(Checksum) ||
        !R.bytes(Payload, Len))
      return Status::dataLoss("artifact is truncated in section " +
                              std::to_string(I));
    if (fnv1a(Payload) != Checksum)
      return Status::dataLoss("checksum mismatch in section '" + Tag + "'");
    Out.emplace_back(std::move(Tag), std::move(Payload));
  }
  if (!R.atEnd())
    return Status::dataLoss("artifact has trailing bytes after last section");
  return Status::ok();
}

const std::string *findSection(
    const std::vector<std::pair<std::string, std::string>> &Sections,
    const char *Tag) {
  for (const auto &[T, Payload] : Sections)
    if (T == Tag)
      return &Payload;
  return nullptr;
}

/// The front half of restore() and loadWeights(): framing, all five
/// sections present, and a parsed META.
Status parseArtifact(const std::string &Blob,
                     std::vector<std::pair<std::string, std::string>> &Sections,
                     MetaSection &Meta) {
  uint32_t Version = 0;
  if (Status St = parseSections(Blob, Version, Sections); !St.isOk())
    return St;
  for (const char *Tag : {"META", "TMPL", "FSEL", "VOCB", "WGTS"})
    if (!findSection(Sections, Tag))
      return Status::dataLoss(std::string("artifact is missing section '") +
                              Tag + "'");
  return parseMeta(*findSection(Sections, "META"), Meta);
}

/// The VOCB payload: the vocabulary, then the structural-token mask.
std::string vocabSection(const Vocab &Vocabulary,
                         const std::vector<uint8_t> &StructuralTokens) {
  BinaryWriter Vocb;
  Vocb.str(Vocabulary.serialize());
  Vocb.str(std::string_view(
      reinterpret_cast<const char *>(StructuralTokens.data()),
      StructuralTokens.size()));
  return Vocb.takeBlob();
}

/// A CodeBE over \p Vocabulary holding the weights of a WGTS payload.
StatusOr<std::unique_ptr<CodeBE>> readModel(const std::string &Payload,
                                            const Vocab &Vocabulary,
                                            const CodeBEConfig &Config) {
  BinaryReader R(Payload);
  std::string Weights;
  if (!R.str(Weights) || !R.atEnd())
    return Status::dataLoss("WGTS section is malformed");
  auto Model = std::make_unique<CodeBE>(Vocabulary, Config);
  if (!Model->loadWeights(Weights))
    return Status::dataLoss(
        "WGTS weights do not fit the recorded model architecture");
  return Model;
}

constexpr const char *CorpusMismatch =
    "artifact was built over a different corpus (fingerprint mismatch)";

} // namespace

uint64_t SessionCheckpoint::corpusFingerprint(const BackendCorpus &Corpus) {
  BinaryWriter W;
  for (const TargetTraits &T : Corpus.targets().targets())
    W.str(T.Name);
  W.u8(0xFF);
  for (const std::string &N : Corpus.trainingTargetNames())
    W.str(N);
  W.u8(0xFF);
  for (const auto &B : Corpus.backends()) {
    W.str(B->TargetName);
    W.u64(B->Functions.size());
    W.u64(B->statementCount());
  }
  return fnv1a(W.blob());
}

StatusOr<std::string> SessionCheckpoint::serialize(const VegaSystem &System) {
  if (System.Templates.empty())
    return Status::failedPrecondition(
        "session has no templates (run buildTemplates() first)");
  if (!System.Model)
    return Status::failedPrecondition(
        "session has no trained model (run fineTune() first)");

  // META.
  BinaryWriter Meta;
  Meta.u64(System.Options.fingerprint());
  Meta.u64(corpusFingerprint(System.Corpus));
  writeOptions(Meta, System.Options);
  Meta.u64(System.Templates.size());
  Meta.u64(System.Vocabulary.size());
  Meta.u64(System.TrainTexts.size());
  Meta.u64(System.VerifyTexts.size());

  // TMPL.
  BinaryWriter Tmpl;
  Tmpl.u32(static_cast<uint32_t>(System.Templates.size()));
  for (const TemplateInfo &TI : System.Templates) {
    Tmpl.str(TI.FT.InterfaceName);
    Tmpl.u8(static_cast<uint8_t>(TI.FT.Module));
    Tmpl.u32(static_cast<uint32_t>(TI.FT.MemberTargets.size()));
    for (const std::string &M : TI.FT.MemberTargets)
      Tmpl.str(M);
    writeRow(Tmpl, *TI.FT.Definition);
    Tmpl.u32(static_cast<uint32_t>(TI.FT.Body.size()));
    for (const auto &Row : TI.FT.Body)
      writeRow(Tmpl, *Row);

    Tmpl.u32(static_cast<uint32_t>(TI.Features.BoolProps.size()));
    for (const BoolProperty &P : TI.Features.BoolProps) {
      Tmpl.str(P.Name);
      Tmpl.str(P.IdentifiedSite);
      Tmpl.u8(P.Updatable ? 1 : 0);
      Tmpl.u32(static_cast<uint32_t>(P.ValuePerTarget.size()));
      for (const auto &[Target, Value] : P.ValuePerTarget) {
        Tmpl.str(Target);
        Tmpl.u8(Value ? 1 : 0);
      }
      Tmpl.u32(static_cast<uint32_t>(P.UpdateSitePerTarget.size()));
      for (const auto &[Target, Site] : P.UpdateSitePerTarget) {
        Tmpl.str(Target);
        Tmpl.str(Site);
      }
    }
    Tmpl.u32(static_cast<uint32_t>(TI.Features.RowSlots.size()));
    for (const auto &[RowIdx, Slots] : TI.Features.RowSlots) {
      Tmpl.i32(RowIdx);
      Tmpl.u32(static_cast<uint32_t>(Slots.size()));
      for (const SlotProperty &S : Slots) {
        Tmpl.str(S.Name);
        Tmpl.str(S.IdentifiedSite);
      }
    }
    // PrimarySlot keys are row pointers; persist them by stable row index,
    // sorted — map order is pointer order, which varies between two systems
    // in one process and would break checkpoint byte-identity.
    std::vector<std::pair<int, uint64_t>> Primary;
    Primary.reserve(TI.PrimarySlot.size());
    for (const auto &[Row, Slot] : TI.PrimarySlot)
      Primary.emplace_back(Row->Index, Slot);
    std::sort(Primary.begin(), Primary.end());
    Tmpl.u32(static_cast<uint32_t>(Primary.size()));
    for (const auto &[Index, Slot] : Primary) {
      Tmpl.i32(Index);
      Tmpl.u64(Slot);
    }
  }

  // FSEL.
  BinaryWriter Fsel;
  Fsel.u32(static_cast<uint32_t>(System.GlobalBools.size()));
  for (const std::string &Name : System.GlobalBools)
    Fsel.str(Name);
  std::vector<FeatureSelector::HarvestEntry> Harvests =
      System.Selector->harvestCacheSnapshot();
  Fsel.u32(static_cast<uint32_t>(Harvests.size()));
  for (const FeatureSelector::HarvestEntry &E : Harvests) {
    Fsel.str(E.Property);
    Fsel.str(E.Target);
    Fsel.u32(static_cast<uint32_t>(E.Values.size()));
    for (const std::string &V : E.Values)
      Fsel.str(V);
  }

  // VOCB.
  BinaryWriter Vocb;
  Vocb.bytes(vocabSection(System.Vocabulary, System.StructuralTokens));

  // WGTS.
  BinaryWriter Wgts;
  Wgts.str(System.Model->saveWeights());

  BinaryWriter Out;
  Out.bytes(Magic);
  Out.u32(FormatVersion);
  const std::pair<const char *, const BinaryWriter *> Sections[] = {
      {"META", &Meta}, {"TMPL", &Tmpl}, {"FSEL", &Fsel},
      {"VOCB", &Vocb}, {"WGTS", &Wgts}};
  Out.u32(static_cast<uint32_t>(std::size(Sections)));
  for (const auto &[Tag, W] : Sections) {
    Out.bytes(Tag);
    Out.u64(W->size());
    Out.u64(fnv1a(W->blob()));
    Out.bytes(W->blob());
  }
  return Out.takeBlob();
}

Status SessionCheckpoint::save(const VegaSystem &System,
                               const std::string &Path) {
  StatusOr<std::string> Blob = serialize(System);
  if (!Blob.isOk())
    return Blob.status();
  return writeFile(Path, *Blob);
}

StatusOr<std::unique_ptr<VegaSystem>>
SessionCheckpoint::restore(const BackendCorpus &Corpus,
                           const std::string &Blob) {
  std::vector<std::pair<std::string, std::string>> Sections;
  MetaSection Meta;
  if (Status St = parseArtifact(Blob, Sections, Meta); !St.isOk())
    return St;
  if (Meta.CorpusFingerprint != corpusFingerprint(Corpus))
    return Status::failedPrecondition(CorpusMismatch);

  auto System = std::make_unique<VegaSystem>(Corpus, Meta.Options);

  // TMPL.
  {
    BinaryReader R(*findSection(Sections, "TMPL"));
    uint32_t NTemplates = 0;
    if (!R.u32(NTemplates) || NTemplates != Meta.TemplateCount)
      return Status::dataLoss("TMPL section is malformed");
    for (uint32_t T = 0; T < NTemplates; ++T) {
      TemplateInfo TI;
      uint8_t Module = 0;
      uint32_t NMembers = 0;
      if (!R.str(TI.FT.InterfaceName) || !R.u8(Module) || !R.u32(NMembers) ||
          Module >= NumBackendModules)
        return Status::dataLoss("TMPL section is malformed");
      TI.FT.Module = static_cast<BackendModule>(Module);
      for (uint32_t M = 0; M < NMembers; ++M) {
        std::string Member;
        if (!R.str(Member))
          return Status::dataLoss("TMPL section is malformed");
        TI.FT.MemberTargets.push_back(std::move(Member));
      }
      TI.FT.Definition = readRow(R, 0);
      uint32_t NBody = 0;
      if (!TI.FT.Definition || !R.u32(NBody))
        return Status::dataLoss("TMPL section is malformed");
      for (uint32_t B = 0; B < NBody; ++B) {
        std::unique_ptr<TemplateRow> Row = readRow(R, 0);
        if (!Row)
          return Status::dataLoss("TMPL section is malformed");
        TI.FT.Body.push_back(std::move(Row));
      }

      uint32_t NBools = 0;
      if (!R.u32(NBools))
        return Status::dataLoss("TMPL section is malformed");
      for (uint32_t B = 0; B < NBools; ++B) {
        BoolProperty P;
        uint8_t Updatable = 0;
        uint32_t NValues = 0, NSites = 0;
        if (!R.str(P.Name) || !R.str(P.IdentifiedSite) || !R.u8(Updatable) ||
            !R.u32(NValues))
          return Status::dataLoss("TMPL section is malformed");
        P.Updatable = Updatable != 0;
        for (uint32_t V = 0; V < NValues; ++V) {
          std::string Target;
          uint8_t Value = 0;
          if (!R.str(Target) || !R.u8(Value))
            return Status::dataLoss("TMPL section is malformed");
          P.ValuePerTarget[Target] = Value != 0;
        }
        if (!R.u32(NSites))
          return Status::dataLoss("TMPL section is malformed");
        for (uint32_t S = 0; S < NSites; ++S) {
          std::string Target, Site;
          if (!R.str(Target) || !R.str(Site))
            return Status::dataLoss("TMPL section is malformed");
          P.UpdateSitePerTarget[Target] = std::move(Site);
        }
        TI.Features.BoolProps.push_back(std::move(P));
      }
      uint32_t NRowSlots = 0;
      if (!R.u32(NRowSlots))
        return Status::dataLoss("TMPL section is malformed");
      for (uint32_t S = 0; S < NRowSlots; ++S) {
        int32_t RowIdx = 0;
        uint32_t NSlots = 0;
        if (!R.i32(RowIdx) || !R.u32(NSlots))
          return Status::dataLoss("TMPL section is malformed");
        std::vector<SlotProperty> Slots;
        for (uint32_t I = 0; I < NSlots; ++I) {
          SlotProperty Slot;
          if (!R.str(Slot.Name) || !R.str(Slot.IdentifiedSite))
            return Status::dataLoss("TMPL section is malformed");
          Slots.push_back(std::move(Slot));
        }
        TI.Features.RowSlots[RowIdx] = std::move(Slots);
      }

      // Rebuild the pointer-keyed maps from the serialized tree: parent
      // links by walk, primary slots by stable row index.
      std::map<int, const TemplateRow *> ByIndex;
      std::function<void(const TemplateRow *, const TemplateRow *)> Walk =
          [&](const TemplateRow *Row, const TemplateRow *Parent) {
            TI.Parent[Row] = Parent;
            ByIndex[Row->Index] = Row;
            for (const auto &Child : Row->Children)
              Walk(Child.get(), Row);
          };
      Walk(TI.FT.Definition.get(), nullptr);
      for (const auto &Row : TI.FT.Body)
        Walk(Row.get(), nullptr);

      uint32_t NPrimary = 0;
      if (!R.u32(NPrimary))
        return Status::dataLoss("TMPL section is malformed");
      for (uint32_t P = 0; P < NPrimary; ++P) {
        int32_t RowIdx = 0;
        uint64_t Slot = 0;
        if (!R.i32(RowIdx) || !R.u64(Slot))
          return Status::dataLoss("TMPL section is malformed");
        auto It = ByIndex.find(RowIdx);
        if (It == ByIndex.end())
          return Status::dataLoss("TMPL primary slot references row " +
                                  std::to_string(RowIdx) +
                                  " absent from its template");
        TI.PrimarySlot[It->second] = static_cast<size_t>(Slot);
      }
      System->Templates.push_back(std::move(TI));
    }
    if (!R.atEnd())
      return Status::dataLoss("TMPL section has trailing bytes");
  }

  // FSEL.
  {
    BinaryReader R(*findSection(Sections, "FSEL"));
    uint32_t NBools = 0;
    if (!R.u32(NBools))
      return Status::dataLoss("FSEL section is malformed");
    for (uint32_t I = 0; I < NBools; ++I) {
      std::string Name;
      if (!R.str(Name))
        return Status::dataLoss("FSEL section is malformed");
      System->GlobalBools.push_back(std::move(Name));
    }
    uint32_t NHarvests = 0;
    if (!R.u32(NHarvests))
      return Status::dataLoss("FSEL section is malformed");
    for (uint32_t I = 0; I < NHarvests; ++I) {
      std::string Property, Target;
      uint32_t NValues = 0;
      if (!R.str(Property) || !R.str(Target) || !R.u32(NValues))
        return Status::dataLoss("FSEL section is malformed");
      std::vector<std::string> Values;
      for (uint32_t V = 0; V < NValues; ++V) {
        std::string Value;
        if (!R.str(Value))
          return Status::dataLoss("FSEL section is malformed");
        Values.push_back(std::move(Value));
      }
      System->Selector->seedHarvestCache(Property, Target, std::move(Values));
    }
    if (!R.atEnd())
      return Status::dataLoss("FSEL section has trailing bytes");
  }

  // VOCB.
  {
    BinaryReader R(*findSection(Sections, "VOCB"));
    std::string VocabBlob, Structural;
    if (!R.str(VocabBlob) || !R.str(Structural) || !R.atEnd())
      return Status::dataLoss("VOCB section is malformed");
    System->Vocabulary = Vocab::deserialize(VocabBlob);
    if (System->Vocabulary.size() != Meta.VocabSize ||
        Structural.size() != System->Vocabulary.size())
      return Status::dataLoss(
          "VOCB vocabulary does not match the recorded size");
    System->StructuralTokens.assign(Structural.begin(), Structural.end());
    System->SpecialTokenIds.clear();
    for (size_t Id = 0; Id < System->Vocabulary.size(); ++Id)
      if (Vocab::isSpecialSpelling(
              System->Vocabulary.textOf(static_cast<int>(Id))))
        System->SpecialTokenIds.push_back(static_cast<int>(Id));
  }

  StatusOr<std::unique_ptr<CodeBE>> Model = readModel(
      *findSection(Sections, "WGTS"), System->Vocabulary, Meta.Options.Model);
  if (!Model.isOk())
    return Model.status();
  System->Model = std::move(*Model);
  return System;
}

StatusOr<std::unique_ptr<VegaSystem>>
SessionCheckpoint::load(const BackendCorpus &Corpus, const std::string &Path) {
  StatusOr<std::string> Blob = readFile(Path);
  if (!Blob.isOk())
    return Blob.status();
  return restore(Corpus, *Blob);
}

Status SessionCheckpoint::loadWeights(VegaSystem &System,
                                      const std::string &Path) {
  StatusOr<std::string> Blob = readFile(Path);
  if (!Blob.isOk())
    return Blob.status();
  std::vector<std::pair<std::string, std::string>> Sections;
  MetaSection Meta;
  if (Status St = parseArtifact(*Blob, Sections, Meta); !St.isOk())
    return St;
  if (Meta.OptionsFingerprint != System.Options.fingerprint())
    return Status::failedPrecondition(
        "'" + Path + "' was trained under other options (options "
        "fingerprint " + std::to_string(Meta.OptionsFingerprint) +
        ", expected " + std::to_string(System.Options.fingerprint()) + ")");
  if (Meta.CorpusFingerprint != corpusFingerprint(System.Corpus))
    return Status::failedPrecondition(CorpusMismatch);
  if (*findSection(Sections, "VOCB") !=
      vocabSection(System.Vocabulary, System.StructuralTokens))
    return Status::failedPrecondition(
        "'" + Path + "' was built over a different vocabulary");
  StatusOr<std::unique_ptr<CodeBE>> Model = readModel(
      *findSection(Sections, "WGTS"), System.Vocabulary, System.Options.Model);
  if (!Model.isOk())
    return Model.status();
  System.Model = std::move(*Model);
  return Status::ok();
}

StatusOr<SessionCheckpoint::Info>
SessionCheckpoint::inspect(const std::string &Path) {
  StatusOr<std::string> Blob = readFile(Path);
  if (!Blob.isOk())
    return Blob.status();

  Info Result;
  std::vector<std::pair<std::string, std::string>> Sections;
  if (Status St = parseSections(*Blob, Result.Version, Sections); !St.isOk())
    return St;
  const std::string *Meta = findSection(Sections, "META");
  if (!Meta)
    return Status::dataLoss("artifact is missing section 'META'");
  MetaSection Parsed;
  if (Status St = parseMeta(*Meta, Parsed); !St.isOk())
    return St;
  Result.OptionsFingerprint = Parsed.OptionsFingerprint;
  Result.CorpusFingerprint = Parsed.CorpusFingerprint;
  Result.Options = Parsed.Options;
  Result.TemplateCount = Parsed.TemplateCount;
  Result.VocabSize = Parsed.VocabSize;
  Result.TrainPairs = Parsed.TrainPairs;
  Result.VerifyPairs = Parsed.VerifyPairs;
  for (const auto &[Tag, Payload] : Sections)
    Result.Sections.emplace_back(Tag, Payload.size());
  return Result;
}
