//===- flywheel/Flywheel.h - Self-training repair flywheel -------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-training repair flywheel: N *generations* of
/// generate → evaluate → repair → harvest → fine-tune → re-evaluate over a
/// trained VegaSystem. Every oracle-validated repair the RepairEngine
/// commits is ground truth the model never saw during Stage 2; each
/// generation turns those repairs into new positive training pairs (and,
/// optionally, the oracle-refuted high-confidence beam candidates into
/// down-weighted hard negatives), dedupes them against the corpus by
/// content fingerprint, fine-tunes the live model, and re-evaluates.
///
/// Weight commits are acceptance-gated: a generation's fine-tuned weights
/// are kept only when the aggregate post-repair pass@1 did not fall AND the
/// repair-reliance ratio (the share of passing functions that needed
/// repair) did not rise; otherwise the weights revert to the pre-round
/// snapshot and the trajectory stays flat. The committed trajectory is
/// therefore monotone by construction — the same never-regress bar the
/// RepairEngine's oracle gate sets per function, lifted to generations.
///
/// Resume: with OutDir set, each generation persists three artifacts —
/// gen-<k>.vega (a full session checkpoint of the post-gate weights),
/// gen-<k>.harvest.json (the pairs actually added to the corpus), and
/// gen-<k>.report.json (the generation's stats). Re-running over a partial
/// directory with the same options replays the harvests, restores the last
/// checkpoint's weights, and recomputes only the missing generations —
/// byte-identical to the uninterrupted run (DESIGN.md §17). The checkpoint
/// must match the system's own base options, corpus and vocabulary
/// (SessionCheckpoint::loadWeights), so a directory grown from another
/// base model is refused rather than continued.
///
/// Determinism contract: the FlywheelReport (and every persisted artifact)
/// is byte-identical at any --jobs / --train-jobs, and across an
/// interrupt + resume.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_FLYWHEEL_FLYWHEEL_H
#define VEGA_FLYWHEEL_FLYWHEEL_H

#include "core/Pipeline.h"
#include "eval/Oracle.h"
#include "support/Json.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace vega {
namespace flywheel {

/// Everything one flywheel run needs.
struct FlywheelOptions {
  /// Evaluation targets driven each generation (must exist in the corpus).
  std::vector<std::string> Targets;
  /// Fine-tune generations to run (the report additionally records the
  /// generation-0 baseline).
  int Generations = 3;
  /// Epochs per per-generation fine-tuning round.
  int FineTuneEpochs = 2;
  /// RepairEngine budgets (see repair/RepairEngine.h).
  int BeamWidth = 4;
  int MaxRounds = 2;
  /// Gating oracle for repair and evaluation (text | differential | both).
  eval::OracleKind Oracle = eval::OracleKind::Text;
  /// Harvest oracle-refuted high-confidence candidates as hard negatives.
  bool HarvestNegatives = true;
  /// Per-example loss weights for harvested pairs.
  float PositiveWeight = 1.0f;
  float NegativeWeight = 0.25f;
  /// Minimum model confidence for a refuted candidate to harvest.
  double NegativeConfidenceFloor = 0.5;
  /// Artifact directory (created if missing). Empty disables persistence
  /// and resume — the run is purely in-memory.
  std::string OutDir;
  /// Salts the per-generation fine-tune seeds (generation k trains with
  /// Seed ^ (0xf17ee1 + k), so a rejected round retries differently).
  uint64_t Seed = 42;
  /// Stage-3 generation + repair lanes (<= 0: auto). Byte-identical output
  /// for every value.
  int Jobs = 0;
  bool Verbose = false;

  /// InvalidArgument naming the first out-of-range field.
  Status validate() const;
};

/// Per-target slice of one generation's re-evaluation (post-repair unless
/// named otherwise). Counts use the repair population: functions with a
/// golden implementation or a generated one.
struct TargetGenStats {
  std::string Target;
  size_t Functions = 0;      ///< evaluated population
  size_t GreedyAccurate = 0; ///< passing before repair (greedy pass@1)
  size_t Accurate = 0;       ///< passing after repair
  size_t FunctionsFlagged = 0;
  size_t FunctionsRepaired = 0; ///< passing only thanks to repair
  size_t StatementsAutoRepaired = 0;
  double GreedyPass1 = 0.0; ///< GreedyAccurate / Functions
  double Pass1 = 0.0;       ///< Accurate / Functions (the pass@k headline)
  double StatementAccuracy = 0.0;
  double ErrVRate = 0.0, ErrCSRate = 0.0, ErrDefRate = 0.0;
  double DivValRate = 0.0, DivTrapRate = 0.0, DivEffRate = 0.0;
  /// Pairs harvested *for* this generation's fine-tune from this target's
  /// previous-generation repair run (zero for the baseline).
  size_t HarvestedPositives = 0;
  size_t HarvestedNegatives = 0;
};

/// One generation's record. Generation 0 is the baseline evaluation of the
/// incoming model (no harvest, no fine-tune, always accepted).
struct GenerationStats {
  int Generation = 0;
  /// Aggregate post-repair accuracy over all targets — the gated,
  /// monotone-non-decreasing headline.
  double Pass1 = 0.0;
  /// Aggregate pre-repair (greedy) accuracy.
  double GreedyPass1 = 0.0;
  /// FunctionsRepaired / Accurate over all targets — the share of passing
  /// functions that needed repair; gated monotone non-increasing.
  double RepairReliance = 0.0;
  /// False when the acceptance gate reverted this generation's weights
  /// (its eval columns then repeat the previous generation's).
  bool Accepted = true;
  size_t HarvestedPositives = 0;
  size_t HarvestedNegatives = 0;
  size_t PairsAdded = 0;      ///< harvested pairs appended to the corpus
  size_t PairsDeduped = 0;    ///< dropped by the content-fingerprint dedup
  size_t PairsSkippedOov = 0; ///< dropped for out-of-vocabulary tokens
  /// Final-epoch mean loss of this generation's fine-tuning round.
  double TrainMeanLoss = 0.0;
  std::vector<TargetGenStats> Targets;
};

/// The full result of one FlywheelEngine::run().
struct FlywheelReport {
  FlywheelOptions Options; ///< the options the run actually used
  /// Generations[0] is the baseline; then one entry per fine-tune
  /// generation, in order.
  std::vector<GenerationStats> Generations;
  int GenerationsRun = 0;     ///< generations computed in this process
  int GenerationsResumed = 0; ///< generations restored from OutDir artifacts
  size_t TotalPairsAdded = 0; ///< corpus growth across all generations
};

/// JSON renderings ("vega-flywheel-1"): the CLI --json payload, the resume
/// artifacts, and the bench section all share these.
Json generationToJson(const GenerationStats &Gen);
StatusOr<GenerationStats> generationFromJson(const Json &Doc);
Json reportToJson(const FlywheelReport &Report);
StatusOr<FlywheelReport> reportFromJson(const Json &Doc);

/// The generate→repair→harvest→fine-tune→re-evaluate driver. Holds a
/// trained VegaSystem (templates built, dataset built, model trained) whose
/// corpus and weights it mutates in place: augmentTrainingPairs() grows the
/// training set and accepted generations keep their fine-tuned weights.
/// Per-generation weights live in the OutDir checkpoints.
class FlywheelEngine {
public:
  FlywheelEngine(VegaSystem &System, FlywheelOptions Options);

  /// Runs (or resumes) the whole schedule. InvalidArgument when the options
  /// fail validation or a target is unknown; FailedPrecondition when OutDir
  /// artifacts were written under different flywheel options or from a
  /// different base model.
  StatusOr<FlywheelReport> run();

  const FlywheelOptions &options() const { return Options; }

private:
  VegaSystem &System;
  FlywheelOptions Options;
};

} // namespace flywheel
} // namespace vega

#endif // VEGA_FLYWHEEL_FLYWHEEL_H
