//===- core/VegaSession.cpp - The session-level library API ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "core/VegaSession.h"

#include "core/Checkpoint.h"
#include "obs/Trace.h"

#include <cstdio>

using namespace vega;

const BackendCorpus &VegaSession::standardCorpus() {
  static BackendCorpus Corpus = BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

StatusOr<std::unique_ptr<VegaSession>>
VegaSession::build(const BackendCorpus &Corpus, VegaOptions Opts) {
  auto System = std::make_unique<VegaSystem>(Corpus, Opts);
  System->buildTemplates();
  System->buildDataset();

  std::string Detail;
  switch (System->initModelFromCache(&Detail)) {
  case VegaSystem::WeightCacheStatus::Loaded: {
    obs::Span StageSpan("stage2.train_model", "stage2");
    StageSpan.arg("weights", "cached");
    if (Opts.Verbose)
      std::fprintf(stderr, "vega: loaded cached CodeBE weights\n");
    break;
  }
  case VegaSystem::WeightCacheStatus::Mismatch:
    // The historical vega-cli path silently retrained here; the session API
    // refuses instead — a stale cache means the caller's state and the disk
    // disagree, and retraining would quietly shadow the cache they asked for.
    return Status::failedPrecondition(Detail);
  case VegaSystem::WeightCacheStatus::Disabled:
  case VegaSystem::WeightCacheStatus::Missing:
    if (Status St = System->fineTune(); !St.isOk())
      return St;
    break;
  }
  return std::unique_ptr<VegaSession>(
      new VegaSession(Corpus, std::move(System), /*FromCheckpoint=*/false));
}

StatusOr<std::unique_ptr<VegaSession>> VegaSession::build(VegaOptions Opts) {
  return build(standardCorpus(), std::move(Opts));
}

StatusOr<std::unique_ptr<VegaSession>>
VegaSession::load(const BackendCorpus &Corpus, const std::string &Path) {
  StatusOr<std::unique_ptr<VegaSystem>> System =
      SessionCheckpoint::load(Corpus, Path);
  if (!System.isOk())
    return System.status();
  return std::unique_ptr<VegaSession>(new VegaSession(
      Corpus, std::move(System.value()), /*FromCheckpoint=*/true));
}

StatusOr<std::unique_ptr<VegaSession>>
VegaSession::load(const std::string &Path) {
  return load(standardCorpus(), Path);
}

Status VegaSession::save(const std::string &Path) const {
  return SessionCheckpoint::save(*System, Path);
}

StatusOr<GeneratedBackend> VegaSession::generate(const std::string &Target) {
  if (!Corpus.targets().find(Target))
    return Status::notFound("unknown target '" + Target + "'");
  return System->generateBackend(Target);
}

StatusOr<VegaSession::GenerationHandle>
VegaSession::beginGenerate(const std::string &Target) {
  if (!Corpus.targets().find(Target))
    return Status::notFound("unknown target '" + Target + "'");
  return System->beginGenerate(Target);
}

StatusOr<GeneratedBackend> VegaSession::finish(GenerationHandle Handle) {
  if (!Handle.complete())
    return Status::failedPrecondition(
        "generation of '" + Handle.target() +
        "' has units that have not run");
  return System->finishGenerate(std::move(Handle));
}
