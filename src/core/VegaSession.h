//===- core/VegaSession.h - The session-level library API --------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public face of the library: a VegaSession owns a trained VegaSystem
/// and exposes the whole lifecycle behind Status-returning entry points —
///
///   build(corpus, opts)  Stage 1 + Stage 2, in-process
///   save(path)           write the .vega artifact (core/Checkpoint.h)
///   load(path)           restore a generation-ready session without
///                        re-touching Stage 1/2
///   generate(target)     Stage 3 for one target
///   beginGenerate(target) / finish(handle)
///                        Stage 3 as units that pool lanes pull and run
///                        (VegaSystem::runGenerateUnits) between them — the
///                        serve scheduler's currency
///
/// Consumers map Status to their own error surface: vega-cli turns codes
/// into process exit codes, vega-serve into JSON-RPC error objects.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_CORE_VEGASESSION_H
#define VEGA_CORE_VEGASESSION_H

#include "core/Pipeline.h"
#include "support/Status.h"

#include <memory>
#include <string>

namespace vega {

/// A built-or-loaded VEGA session. Create via build() or load(); the
/// returned session is immediately ready for generate().
class VegaSession {
public:
  /// The process-wide standard corpus (BackendCorpus::build over
  /// TargetDatabase::standard()), built on first use.
  static const BackendCorpus &standardCorpus();

  /// Runs Stage 1 + Stage 2 over \p Corpus: templates, dataset, then
  /// fineTune() from a fresh model. Reads and writes no file; save() the
  /// session to reuse its model.
  static StatusOr<std::unique_ptr<VegaSession>> build(const BackendCorpus &Corpus,
                                                      VegaOptions Opts);
  /// build() over the standard corpus.
  static StatusOr<std::unique_ptr<VegaSession>> build(VegaOptions Opts);

  /// Restores a session from a .vega artifact (strict: see Checkpoint.h).
  static StatusOr<std::unique_ptr<VegaSession>>
  load(const BackendCorpus &Corpus, const std::string &Path);
  /// load() over the standard corpus.
  static StatusOr<std::unique_ptr<VegaSession>> load(const std::string &Path);

  /// Writes the .vega artifact for this session.
  Status save(const std::string &Path) const;

  /// Stage 3 for one target. NotFound for targets absent from the corpus.
  StatusOr<GeneratedBackend> generate(const std::string &Target);

  /// A per-request generation in flight (see VegaSystem::GenerationHandle):
  /// the target's function templates as independent decode units.
  using GenerationHandle = VegaSystem::GenerationHandle;

  /// Opens a generation handle for \p Target. NotFound for targets absent
  /// from the corpus. Hand its units to VegaSystem::runGenerateUnits
  /// through a unit source (the serve scheduler's lanes pull them one at a
  /// time), then fold it with finish().
  StatusOr<GenerationHandle> beginGenerate(const std::string &Target);

  /// Folds a handle whose units have all run into its backend —
  /// byte-identical to generate() for the same target. FailedPrecondition
  /// when a unit has not run (unclaimed, or claimed but never executed).
  StatusOr<GeneratedBackend> finish(GenerationHandle Handle);

  /// Overrides the Stage-3 lane count (0 = auto).
  void setJobs(int Jobs) { System->setJobs(Jobs); }

  const BackendCorpus &corpus() const { return Corpus; }
  VegaSystem &system() { return *System; }
  const VegaSystem &system() const { return *System; }
  /// True when this session came from load() rather than build().
  bool loadedFromCheckpoint() const { return FromCheckpoint; }

private:
  VegaSession(const BackendCorpus &Corpus, std::unique_ptr<VegaSystem> System,
              bool FromCheckpoint)
      : Corpus(Corpus), System(std::move(System)),
        FromCheckpoint(FromCheckpoint) {}

  const BackendCorpus &Corpus;
  std::unique_ptr<VegaSystem> System;
  bool FromCheckpoint = false;
};

} // namespace vega

#endif // VEGA_CORE_VEGASESSION_H
