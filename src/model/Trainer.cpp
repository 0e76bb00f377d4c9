//===- model/Trainer.cpp - Data-parallel fine-tuning engine ----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/Trainer.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

using namespace vega;
using namespace vega::model;

TrainOptions TrainOptions::fromConfig(const CodeBEConfig &Config) {
  TrainOptions T;
  T.Epochs = Config.Epochs;
  T.BatchSize = Config.BatchSize;
  T.LearningRate = Config.LearningRate;
  T.Seed = Config.Seed;
  T.Jobs = 1;
  return T;
}

Status TrainOptions::validate() const {
  if (Epochs < 0)
    return Status::invalidArgument("TrainOptions.Epochs must be >= 0, got " +
                                   std::to_string(Epochs));
  if (BatchSize < 1)
    return Status::invalidArgument(
        "TrainOptions.BatchSize must be >= 1, got " +
        std::to_string(BatchSize));
  if (!std::isfinite(LearningRate) || LearningRate <= 0.0f)
    return Status::invalidArgument(
        "TrainOptions.LearningRate must be a positive finite value, got " +
        std::to_string(LearningRate));
  for (size_t I = 0; I < ExampleWeights.size(); ++I)
    if (!std::isfinite(ExampleWeights[I]) || ExampleWeights[I] < 0.0f)
      return Status::invalidArgument(
          "TrainOptions.ExampleWeights[" + std::to_string(I) +
          "] must be a finite non-negative value, got " +
          std::to_string(ExampleWeights[I]));
  return Status::ok();
}

Trainer::Trainer(CodeBE &Model, TrainOptions Opts)
    : Model(Model), Opts(std::move(Opts)) {}

namespace {

/// Appends the interior tape nodes reachable from \p Root (those carrying
/// a backward closure) to \p Out. These are the batch-shared nodes —
/// combined embeddings and their mixture — that every example tape hangs
/// off; each GradSink needs a private buffer for them so concurrent
/// backward passes never write shared memory. Leaves (the parameters) are
/// tracked separately by the caller.
void appendSharedTapeNodes(const TensorPtr &Root,
                           std::unordered_set<const Tensor *> &Seen,
                           std::vector<TensorPtr> &Out) {
  if (!Seen.insert(Root.get()).second)
    return;
  for (const TensorPtr &P : Root->Parents)
    appendSharedTapeNodes(P, Seen, Out);
  if (Root->Backward)
    Out.push_back(Root);
}

std::string formatDouble(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", V);
  return Buf;
}

} // namespace

StatusOr<TrainResult> Trainer::run(const std::vector<TrainPair> &Data) {
  if (Status St = Opts.validate(); !St.isOk())
    return St;
  if (!Opts.ExampleWeights.empty() &&
      Opts.ExampleWeights.size() != Data.size())
    return Status::invalidArgument(
        "TrainOptions.ExampleWeights has " +
        std::to_string(Opts.ExampleWeights.size()) + " entries for " +
        std::to_string(Data.size()) + " examples");

  using Clock = std::chrono::steady_clock;
  const Clock::time_point RunStart = Clock::now();

  ThreadPool Pool(Opts.Jobs);
  std::vector<TensorPtr> Params = Model.parameters();
  AdamOptimizer Optimizer(Params, Opts.LearningRate);
  RNG Shuffler(Opts.Seed ^ 0x5eedULL);
  std::vector<size_t> Order(Data.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;

  const size_t B = static_cast<size_t>(Opts.BatchSize);
  std::vector<GradSink> Sinks(B);
  std::vector<float> BatchLoss(B, 0.0f);
  auto &Metrics = obs::MetricsRegistry::instance();

  TrainResult Result;
  Result.JobsUsed = static_cast<int>(Pool.jobs());

  for (int Epoch = 0; Epoch < Opts.Epochs; ++Epoch) {
    obs::Span EpochSpan("stage2.epoch", "stage2");
    EpochSpan.arg("epoch", std::to_string(Epoch));
    Shuffler.shuffle(Order);
    double LossSum = 0.0;
    size_t Count = 0;
    size_t BatchIndex = 0;
    // Each slot carries its example's loss weight alongside the pair, so
    // weights ride through the epoch shuffle with their examples.
    std::vector<std::pair<const TrainPair *, float>> Batch;
    Batch.reserve(B);

    auto flushBatch = [&] {
      if (Batch.empty())
        return;
      obs::Span BatchSpan("stage2.batch", "stage2");
      BatchSpan.arg("batch", std::to_string(BatchIndex));
      BatchSpan.arg("examples", std::to_string(Batch.size()));
      // The combined-embeddings subtree is identical for every example in
      // the batch (parameters only move at step()), so build it once and
      // share the node across all example tapes instead of recomputing the
      // vocab-sized mixture per example.
      TensorPtr Comb = Model.combinedEmbeddings();
      std::vector<TensorPtr> Tracked = Params;
      {
        std::unordered_set<const Tensor *> Seen;
        appendSharedTapeNodes(Comb, Seen, Tracked);
      }
      for (size_t S = 0; S < Batch.size(); ++S)
        Sinks[S].track(Tracked);
      Pool.parallelFor(Batch.size(), [&](size_t I) {
        GradSink::Scope Active(Sinks[I]);
        Sinks[I].zero();
        TensorPtr Loss = Model.trainLoss(*Batch[I].first, Comb);
        if (!Loss) {
          // Unreachable for batched pairs (empty sides are filtered before
          // batching; truncation never empties a non-empty sequence), but
          // keep the lane well-defined.
          BatchLoss[I] = 0.0f;
          return;
        }
        // Per-example weighting: scale the scalar loss before the backward
        // pass so the whole gradient carries the weight. Weight 1.0 skips
        // the node — the tape (and therefore the trained bits) is exactly
        // the legacy one.
        if (float W = Batch[I].second; W != 1.0f)
          Loss = scale(Loss, W);
        backward(Loss);
        BatchLoss[I] = Loss->Data[0];
      });
      // Fixed-order reduction: each parameter folds its per-example sink
      // buffers in ascending example order. Parallel across parameters
      // (disjoint destinations), serial within one — the summed gradient
      // is bit-identical no matter how many lanes ran the examples.
      Pool.parallelFor(Params.size(), [&](size_t P) {
        float *G = Params[P]->Grad.data();
        const size_t N = Params[P]->Data.size();
        for (size_t S = 0; S < Batch.size(); ++S) {
          const float *Buf = Sinks[S].bufferAt(P).data();
          for (size_t I = 0; I < N; ++I)
            G[I] += Buf[I];
        }
      });
      Optimizer.step();
      Metrics.addCounter("train.batches");
      for (size_t S = 0; S < Batch.size(); ++S)
        LossSum += BatchLoss[S];
      Count += Batch.size();
      ++BatchIndex;
      Batch.clear();
    };

    for (size_t Idx : Order) {
      const TrainPair &Pair = Data[Idx];
      // Same skip rule the serial loop applied: pairs with an empty side
      // are untrainable and never consume a batch slot.
      if (Pair.Src.empty() || Pair.Dst.empty())
        continue;
      float W =
          Opts.ExampleWeights.empty() ? 1.0f : Opts.ExampleWeights[Idx];
      Batch.emplace_back(&Pair, W);
      if (Batch.size() >= B)
        flushBatch();
    }
    flushBatch();
    Model.weightsChanged();

    double MeanLoss = Count ? LossSum / static_cast<double>(Count) : 0.0;
    double Seconds = EpochSpan.seconds();
    double Rate = Seconds > 0.0 ? static_cast<double>(Count) / Seconds : 0.0;
    Metrics.addCounter("train.epochs");
    Metrics.addCounter("train.examples", Count);
    // One histogram sample per epoch: exports keep the whole loss curve
    // instead of a last-write-wins gauge.
    Metrics.observe("train.epoch_loss", MeanLoss); // shape declared centrally
    Metrics.setGauge("train.examples_per_sec", Rate);
    EpochSpan.arg("mean_loss", formatDouble(MeanLoss));
    EpochSpan.arg("examples_per_sec", formatDouble(Rate));

    Result.EpochMeanLoss.push_back(MeanLoss);
    Result.ExamplesSeen += Count;
    Result.FinalMeanLoss = MeanLoss;
    if (Opts.OnEpoch) {
      EpochStats Stats;
      Stats.Epoch = Epoch;
      Stats.MeanLoss = MeanLoss;
      Stats.Examples = Count;
      Stats.Seconds = Seconds;
      Stats.ExamplesPerSec = Rate;
      Opts.OnEpoch(Stats);
    }
  }
  Model.weightsChanged();

  Result.EpochsRun = Opts.Epochs;
  Result.Seconds =
      std::chrono::duration<double>(Clock::now() - RunStart).count();
  Result.ExamplesPerSec =
      Result.Seconds > 0.0
          ? static_cast<double>(Result.ExamplesSeen) / Result.Seconds
          : 0.0;
  return Result;
}
