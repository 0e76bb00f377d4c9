//===- core/Pipeline.h - The VEGA system -------------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level VEGA system (Fig. 5): Stage 1 Code-Feature Mapping
/// (templates + Algorithm 1 + feature vectors), Stage 2 Model Creation
/// (CodeBE fine-tuning with Eq. (1) confidence labels), and Stage 3
/// Target-Specific Code Generation (backend synthesis for a new target from
/// its description files alone, with per-statement confidence scores).
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_CORE_PIPELINE_H
#define VEGA_CORE_PIPELINE_H

#include "feature/FeatureSelector.h"
#include "model/CodeBE.h"
#include "model/Trainer.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace vega {

namespace obs {
class RequestContext;
} // namespace obs

/// One analyzed function template: the template, its features, and derived
/// per-row metadata.
struct TemplateInfo {
  FunctionTemplate FT;
  TemplateFeatures Features;
  /// Row → parent row (nullptr for body-level rows and the definition).
  std::map<const TemplateRow *, const TemplateRow *> Parent;
  /// Repeatable row → index of the slot whose property drives expansion.
  std::map<const TemplateRow *, size_t> PrimarySlot;
};

/// Configuration of a VEGA run.
struct VegaOptions {
  CodeBEConfig Model;
  /// Statements below this confidence are dropped (§3.3, fixed 0.5).
  double ConfidenceThreshold = 0.5;
  bool Verbose = false;
  /// §4.1.2: function-group-based (default) vs backend-based split.
  enum class SplitKind { FunctionGroup, BackendBased };
  SplitKind Split = SplitKind::FunctionGroup;
  double TrainFraction = 0.75;
  uint64_t SplitSeed = 123;
  /// Cap on candidates when expanding repeatable rows.
  int MaxCandidatesPerRow = 40;
  /// Feature ablations (DESIGN.md §5).
  bool UseTargetDependentValues = true;
  bool UseTargetIndependentBools = true;
  /// Stage-3 generation lanes (vega-cli --jobs=N). <= 0 means auto:
  /// VEGA_JOBS when set, else hardware_concurrency. Generated backends are
  /// byte-identical for every job count.
  int Jobs = 0;
  /// Stage-2 training lanes (vega-cli --train-jobs=N). <= 0 inherits Jobs
  /// (and through it VEGA_JOBS / hardware concurrency). Trained weights
  /// are bit-identical for every job count — like Jobs, this is a runtime
  /// knob excluded from fingerprint().
  int TrainJobs = 0;

  /// Stable hash of every option that shapes the trained session state
  /// (model architecture + training schedule + dataset split + feature
  /// ablations + candidate caps). Runtime knobs that cannot invalidate a
  /// trained artifact — Jobs, TrainJobs, Verbose, ConfidenceThreshold — are
  /// deliberately excluded. Session checkpoints store this and refuse to
  /// load under mismatched options.
  uint64_t fingerprint() const;
};

/// One generated statement with its confidence score.
struct GeneratedStatement {
  int RowIndex = -1;
  double Confidence = 0.0;
  bool Emitted = false; ///< false when Confidence < threshold
  std::vector<Token> Tokens;
  std::string CandidateValue; ///< expansion value for repeatable rows
  /// Enclosing candidate value at decode time (the Ctx of the feature
  /// vector). Together with (RowIndex, CandidateValue) this identifies the
  /// decode site exactly, so the repair engine can re-decode it.
  std::string CtxValue;
};

/// Identity of one decode site inside a function's template walk: the
/// template row, the repeatable-expansion candidate value (empty for
/// non-repeatable rows), and the enclosing candidate context. The repair
/// engine keys its per-site overrides on (RowIndex, CandidateValue);
/// CtxValue reproduces the exact feature vector for re-decoding.
struct DecodeSite {
  int RowIndex = -1;
  std::string CandidateValue;
  std::string CtxValue;
};

/// One generated function.
struct GeneratedFunction {
  std::string InterfaceName;
  BackendModule Module = BackendModule::SEL;
  double Confidence = 0.0; ///< the definition row's score (§3.4)
  bool Emitted = false;    ///< definition confidence reached the threshold
  FunctionAST AST;         ///< assembled statement tree (valid when Emitted)
  std::vector<GeneratedStatement> Statements;
  /// True when the emitted rows are not all supported by any single
  /// training target (Fig. 8's "derived from multiple targets").
  bool MultiTargetDerived = false;
  /// Wall-clock generation time, derived from this function's obs span
  /// (gen.<module>) so traces and Fig. 7 agree by construction.
  double Seconds = 0.0;
};

/// One harvested training pair to append to the Stage-1 corpus (the
/// flywheel's currency): token sequences in the same function-group
/// representation collectPairsForTarget emits — Src a feature vector, Dst a
/// CS-bucket token, statement tokens, and [EOS] — plus a per-example loss
/// weight (1.0 for oracle-validated positives, fractional for hard
/// negatives).
struct AugmentedPair {
  std::vector<std::string> Src, Dst;
  std::string Target;
  float Weight = 1.0f;
};

/// A full generated backend (Stage 3 output).
struct GeneratedBackend {
  std::string TargetName;
  std::vector<GeneratedFunction> Functions;
  /// Wall-clock generation time per module (Fig. 7) — the sum of the
  /// gen.<module> span durations recorded while generating.
  std::map<BackendModule, double> ModuleSeconds;

  const GeneratedFunction *find(const std::string &InterfaceName) const;
  double totalSeconds() const;
};

/// The end-to-end system.
class VegaSystem {
public:
  VegaSystem(const BackendCorpus &Corpus, VegaOptions Options);
  ~VegaSystem();

  /// Stage 1: builds templates and runs feature selection over the training
  /// groups. Returns elapsed seconds.
  double buildTemplates();

  /// Builds the fine-tuning dataset (train + verification split) and the
  /// vocabulary. Requires buildTemplates().
  void buildDataset();

  /// Constructs a fresh, untrained CodeBE. fineTune() does this itself
  /// when no model exists; the function stays only because the benchmark's
  /// train workload calls it, and its rename waits for the next change to
  /// the benchmark.
  void initModelFromCache();

  /// Stage 2: fine-tunes CodeBE on the built dataset via model::Trainer,
  /// starting from a fresh model when none is constructed yet. Requires
  /// buildDataset(). InvalidArgument when the derived TrainOptions fail
  /// validation. A trained model is stored only as a .vega artifact
  /// (SessionCheckpoint::save); SessionCheckpoint::loadWeights() restores
  /// it into a system that has run Stage 1.
  Status fineTune();

  /// The training schedule the next fineTune() will run: Options.Model's
  /// epochs/batch/LR/seed with Jobs resolved as TrainJobs, falling back to
  /// Jobs (exposed for the CLI and tests).
  model::TrainOptions trainOptions() const;

  /// Outcome of one augmentTrainingPairs() call.
  struct AugmentResult {
    size_t Added = 0;      ///< pairs appended to the training corpus
    size_t Deduped = 0;    ///< dropped: content fingerprint already present
    size_t SkippedOov = 0; ///< dropped: empty side or out-of-vocab token
  };

  /// Appends harvested pairs to the training corpus. Each pair is content-
  /// fingerprinted over its Src and Dst tokens and dropped when the
  /// fingerprint is already present (in the Stage-1 dataset or a previous
  /// augmentation — replaying the same harvest log therefore reconstructs
  /// the exact dedup state). Pairs with an empty side or a token outside
  /// the frozen vocabulary are skipped: the model's embeddings are sized at
  /// buildDataset() time and augmentation never regrows them. Weights ride
  /// along for fineTuneRound(); the base corpus weighs 1.0. Requires
  /// buildDataset().
  AugmentResult augmentTrainingPairs(const std::vector<AugmentedPair> &Pairs);

  /// One incremental fine-tuning round over the current (possibly
  /// augmented) training corpus: the trainOptions() schedule with Epochs
  /// and Seed overridden and the per-example augmentation weights attached.
  /// Requires a trained model (fineTune() or
  /// SessionCheckpoint::loadWeights()).
  StatusOr<model::TrainResult> fineTuneRound(int Epochs, uint64_t Seed);

  /// Exact Match on the held-out verification pairs (§4.1.2).
  double verificationExactMatch(size_t MaxPairs = 0);

  /// Stage 3: generates a backend for \p TargetName from its description
  /// files. The target must exist in the corpus target database. One
  /// handle driven to completion: beginGenerate(), every unit claimed into
  /// one runGenerateUnits() fan-out, then finishGenerate().
  GeneratedBackend generateBackend(const std::string &TargetName);

  /// An in-flight Stage-3 generation for one target: the applicable
  /// function templates as independent decode units plus their per-unit
  /// results. Obtained from beginGenerate(); its claimed units run through
  /// runGenerateUnits(); folded into a backend by finishGenerate(). Units
  /// are independent (each decodes one function against read-only system
  /// state), so units from any mix of handles can share one pool fan-out —
  /// the per-request currency of the serve scheduler's continuous batching.
  /// A handle belongs to the request that was current when it opened: its
  /// units' spans are attributed to that request on whatever lane runs
  /// them.
  class GenerationHandle {
  public:
    GenerationHandle() = default;
    const std::string &target() const { return Target; }
    size_t unitCount() const { return Units.size(); }
    /// Every unit executed — the handle is ready for finishGenerate().
    bool complete() const { return Executed == Units.size(); }
    /// Claims the next unclaimed unit index; nullopt when all are claimed.
    /// Every claimed unit must run through runGenerateUnits() before
    /// finishGenerate().
    std::optional<size_t> claimUnit() {
      if (Cursor >= Units.size())
        return std::nullopt;
      return Cursor++;
    }

  private:
    friend class VegaSystem;
    std::string Target;
    /// The request current at beginGenerate() (nullptr outside one). Not
    /// owned: the opener keeps it alive until the handle's units have run.
    obs::RequestContext *Request = nullptr;
    std::vector<const TemplateInfo *> Units;
    std::vector<GeneratedFunction> Results; ///< index-parallel with Units
    size_t Cursor = 0;                      ///< next unit to claim
    size_t Executed = 0;                    ///< units run to completion
  };

  /// Opens a generation handle for \p TargetName: one unit per applicable
  /// template (DIS templates are skipped for targets without a
  /// disassembler), model prepared for concurrent decode. Target
  /// validation is the caller's job, matching generateBackend()
  /// (VegaSession::beginGenerate validates).
  GenerationHandle beginGenerate(const std::string &TargetName);

  /// Executes already-claimed (handle, unit) pairs as one fan-out over the
  /// shared worker pool — the serve scheduler's "one pass per step". Any
  /// mix of handles can ride one call; each unit runs with its handle's
  /// request current, and units are marked executed on return. Not
  /// reentrant (one fan-out at a time).
  void
  runGenerateUnits(const std::vector<std::pair<GenerationHandle *, size_t>> &Units);

  /// Folds a complete() handle into its backend: functions merge in
  /// template order with per-module seconds and the gen.functions
  /// counters. Runs no units; VegaSession::finish rejects an incomplete
  /// handle.
  GeneratedBackend finishGenerate(GenerationHandle H);

  /// Lane count of the Stage-3 worker pool (built on first use) — the
  /// serve scheduler sizes its per-step unit batch to this.
  unsigned stage3Lanes();

  /// Overrides the Stage-3 job count after construction (tests/benches);
  /// the worker pool is rebuilt on the next generateBackend().
  void setJobs(int Jobs);

  /// Per-site statement chooser for assembleFunction(): returns the
  /// statement to splice in at \p Site (its Emitted flag is respected
  /// verbatim — the repair engine force-emits oracle-gated candidates), or
  /// std::nullopt to decode the site fresh with the model.
  using SiteChooser =
      std::function<std::optional<GeneratedStatement>(const DecodeSite &)>;

  /// Assembles one function for \p TargetName by walking its template and
  /// consulting \p Choose at every decode site. With a null chooser this is
  /// exactly Stage-3 generation (generateBackend() is built on it); the
  /// repair engine passes a chooser that overrides flagged sites with beam
  /// candidates while untouched sites keep their previous statements.
  /// Thread-safe after Model->prepareGenerate() like generateBackend().
  GeneratedFunction assembleFunction(const TemplateInfo &TI,
                                     const std::string &TargetName,
                                     const SiteChooser &Choose = nullptr);

  /// Beam-decodes one site: up to \p Width ranked candidate statements,
  /// best first, deduplicated by statement text (candidates differing only
  /// in their confidence bucket collapse to the best-ranked copy).
  /// Candidate 0 always matches the greedy generateRow() choice; Emitted
  /// follows the usual confidence threshold. Deterministic — no RNG, fixed
  /// tie-break order (see CodeBE::decodeBeam).
  std::vector<GeneratedStatement>
  beamCandidatesForSite(const TemplateInfo &TI, const DecodeSite &Site,
                        const std::string &TargetName, int Width);

  // ---- Introspection (tests, benches, examples) ----
  const std::vector<TemplateInfo> &templates() const { return Templates; }
  const TemplateInfo *findTemplate(const std::string &InterfaceName) const;
  CodeBE *model() { return Model.get(); }
  const FeatureSelector &features() const { return *Selector; }
  size_t trainPairCount() const { return TrainTexts.size(); }
  size_t verifyPairCount() const { return VerifyTexts.size(); }
  size_t trainFunctionCount() const { return TrainFunctions; }
  size_t verifyFunctionCount() const { return VerifyFunctions; }
  const VegaOptions &options() const { return Options; }
  const BackendCorpus &corpus() const { return Corpus; }

  /// Eq. (1): the analytic confidence of row \p Row for \p Target.
  double analyticConfidence(const TemplateInfo &TI, const TemplateRow &Row,
                            const std::string &Target, bool Has) const;

  /// Builds the input feature-vector token sequence for one row (exposed
  /// for tests).
  std::vector<std::string>
  buildInputTokens(const TemplateInfo &TI, const TemplateRow &Row,
                   const std::string &Target,
                   const std::optional<std::string> &AssignedPrimary,
                   const std::string &CtxValue) const;

  /// Candidate values for one placeholder slot on \p Target: Algorithm-1
  /// harvests first, then prefix-renamed training fillers (the analogue of
  /// subword-level compositionality — "ARMELFObjectWriter" becomes
  /// "RISCVELFObjectWriter").
  std::vector<std::string> slotCandidates(const TemplateInfo &TI,
                                          const TemplateRow &Row,
                                          size_t SlotIdx,
                                          const std::string &Target) const;

private:
  /// The session checkpoint reads/writes Templates, GlobalBools, Vocabulary,
  /// Model, StructuralTokens, and SpecialTokenIds directly
  /// (core/Checkpoint.cpp).
  friend class SessionCheckpoint;

  struct TextPair {
    std::vector<std::string> Src, Dst;
    std::string Target; ///< which target produced this pair
  };

  /// Child statement → the primary value of its repeatable parent instance,
  /// filled by the positive repeatable-row pairs of one buildDataset() call
  /// and read by the non-repeatable rows beneath them.
  using ChildContextMap = std::map<const Statement *, std::string>;

  void collectPairsForTarget(const TemplateInfo &TI, const std::string &Target,
                             bool Implements, ChildContextMap &ChildCtx,
                             std::vector<TextPair> &Out);
  void buildVocab();
  TrainPair toIds(const TextPair &Pair) const;
  /// Shared constrained-decode setup for one row — source ids, allowed
  /// mask, and the template-guided plan — used by both the greedy and beam
  /// paths so they see identical constraints.
  void buildRowDecode(const TemplateInfo &TI, const TemplateRow &Row,
                      const std::string &Target,
                      const std::optional<std::string> &Assigned,
                      const std::string &CtxValue, std::vector<int> &SrcIds,
                      std::vector<uint8_t> &Allowed,
                      CodeBE::DecodePlan &Plan) const;
  /// Decoded-id postprocessing shared by greedy and beam paths: leading CS
  /// bucket → Confidence, remaining ids → statement tokens, threshold →
  /// Emitted.
  void finishStatement(GeneratedStatement &Result,
                       const std::vector<int> &Ids) const;
  const TemplateRow *rowByIndex(const TemplateInfo &TI, int RowIndex) const;
  GeneratedStatement generateRow(const TemplateInfo &TI,
                                 const TemplateRow &Row,
                                 const std::string &Target,
                                 const std::optional<std::string> &Assigned,
                                 const std::string &CtxValue);

  const BackendCorpus &Corpus;
  VegaOptions Options;
  std::vector<TemplateInfo> Templates;
  /// The fixed global ordering of updatable Boolean properties shared by
  /// every feature vector (set by buildTemplates(), restored by a session
  /// checkpoint load).
  std::vector<std::string> GlobalBools;
  std::unique_ptr<FeatureSelector> Selector;
  std::vector<TextPair> TrainTexts, VerifyTexts;
  /// Per-example weights parallel to TrainTexts: empty until the first
  /// augmentation (every base pair weighs 1.0), then kept index-aligned.
  std::vector<float> TrainWeights;
  /// Content fingerprints of every training pair, seeded lazily from the
  /// base corpus on the first augmentTrainingPairs() call.
  std::set<uint64_t> PairFingerprints;
  bool FingerprintsSeeded = false;
  size_t TrainFunctions = 0, VerifyFunctions = 0;
  Vocab Vocabulary;
  std::unique_ptr<CodeBE> Model;
  /// Tokens allowed unconditionally during constrained decoding (seen in
  /// the outputs of many distinct targets → target-independent).
  std::vector<uint8_t> StructuralTokens;
  /// Ids of special-spelled vocab entries ([CLS], [EOS], CS buckets, ...),
  /// precomputed so each generated row masks them without rescanning the
  /// whole vocabulary.
  std::vector<int> SpecialTokenIds;
  /// Stage-3 worker pool, built lazily from Options.Jobs.
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace vega

#endif // VEGA_CORE_PIPELINE_H
