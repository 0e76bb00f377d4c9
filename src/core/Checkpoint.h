//===- core/Checkpoint.h - The .vega session artifact ------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned single-file session checkpoint: everything a VegaSystem
/// holds after Stage 1 + Stage 2 — templates with per-target instances,
/// feature-selector properties and harvested value sets, the vocabulary,
/// and the fine-tuned CodeBE weights — serialized so Stage 3 can run in a
/// fresh process without re-touching Stage 1/2.
///
/// Layout (all integers little-endian):
///
///   "VEGASESS"  8-byte magic
///   u32         format version (currently 1)
///   u32         section count
///   sections:   4-byte tag | u64 payload length | u64 FNV-1a checksum |
///               payload
///
/// Sections (all required, any order): META (options + fingerprints),
/// TMPL (templates, features, primary slots), FSEL (global Boolean order +
/// harvest memo), VOCB (vocabulary + structural-token mask), WGTS (CodeBE
/// weights). Loads are strict: bad magic, an unsupported version, a failed
/// checksum, a missing section, or a fingerprint that does not match the
/// corpus the loader supplies (for loadWeights(), also the options and
/// vocabulary of the receiving system) all reject the artifact with a
/// precise Status — there is no partial or best-effort load.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_CORE_CHECKPOINT_H
#define VEGA_CORE_CHECKPOINT_H

#include "core/Pipeline.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vega {

/// Reads and writes `.vega` session artifacts.
class SessionCheckpoint {
public:
  static constexpr const char *Magic = "VEGASESS";
  static constexpr uint32_t FormatVersion = 1;

  /// Header-level summary of an artifact (the `vega-cli inspect` payload).
  struct Info {
    uint32_t Version = 0;
    uint64_t OptionsFingerprint = 0;
    uint64_t CorpusFingerprint = 0;
    /// The artifact-shaping options recorded at save time (runtime knobs
    /// Jobs/TrainJobs/Verbose come back at their defaults).
    VegaOptions Options;
    uint64_t TemplateCount = 0;
    uint64_t VocabSize = 0;
    uint64_t TrainPairs = 0;
    uint64_t VerifyPairs = 0;
    /// (tag, payload bytes) per section, in file order.
    std::vector<std::pair<std::string, uint64_t>> Sections;
  };

  /// Serializes \p System (which must have completed buildTemplates(),
  /// buildDataset(), and fineTune()) into an artifact blob.
  static StatusOr<std::string> serialize(const VegaSystem &System);

  /// serialize() + an atomic replace of \p Path (support/FileIO writeFile).
  static Status save(const VegaSystem &System, const std::string &Path);

  /// Parses \p Blob and reconstructs a generation-ready VegaSystem over
  /// \p Corpus. The corpus must fingerprint-match the one the artifact was
  /// built from. The returned system supports generateBackend() and
  /// template/feature introspection; it holds no training pairs, so
  /// buildDataset()-dependent paths (fineTune(), fineTuneRound(),
  /// verificationExactMatch()) must not be used on it.
  static StatusOr<std::unique_ptr<VegaSystem>>
  restore(const BackendCorpus &Corpus, const std::string &Blob);

  /// Reads + restore()s an artifact file.
  static StatusOr<std::unique_ptr<VegaSystem>>
  load(const BackendCorpus &Corpus, const std::string &Path);

  /// Gives \p System, which has run buildTemplates() and buildDataset(), the
  /// model stored at \p Path: the loader for callers that need the dataset
  /// restore() does not rebuild (the flywheel resume, the bench suite). The
  /// artifact's META options and corpus fingerprints and its VOCB bytes must
  /// equal what serialize() would write for \p System, else
  /// FailedPrecondition — a model trained under another schedule, corpus or
  /// vocabulary is never served. DataLoss for bad framing. The model is
  /// replaced only on success.
  static Status loadWeights(VegaSystem &System, const std::string &Path);

  /// Validates framing (magic, version, checksums) and summarizes the
  /// artifact without constructing a system.
  static StatusOr<Info> inspect(const std::string &Path);

  /// Stable hash of the corpus shape (target names, training set, golden
  /// backend sizes) — recorded in META and checked on load.
  static uint64_t corpusFingerprint(const BackendCorpus &Corpus);
};

} // namespace vega

#endif // VEGA_CORE_CHECKPOINT_H
