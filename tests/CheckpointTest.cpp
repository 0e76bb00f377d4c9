//===- tests/CheckpointTest.cpp - the strict weight loader ----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// SessionCheckpoint::loadWeights against the tier-1 artifact
/// (TestSession.h): a system that has run Stage 1 and loads the artifact's
/// model generates what VegaSession::load of the same file generates; a
/// system built under another schedule, or a damaged file, is refused.
///
//===----------------------------------------------------------------------===//

#include "TestSession.h"

#include "core/VegaSession.h"
#include "serve/Protocol.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

using namespace vega;

namespace {

/// The tier-1 artifact: the fixture's under ctest; run by hand, the tier-1
/// model trained in-process and saved to the working directory.
const std::string &artifact() {
  static const std::string Path = [] {
    std::string P = test::fixtureSessionPath();
    if (!P.empty())
      return P;
    P = "checkpoint_test_tier1.vega";
    Status St = SessionCheckpoint::save(
        *test::tier1System(VegaSession::standardCorpus()), P);
    if (!St.isOk()) {
      std::fprintf(stderr, "saving %s: %s\n", P.c_str(),
                   St.toString().c_str());
      std::abort();
    }
    return P;
  }();
  return Path;
}

/// A system that has run Stage 1 (templates and dataset) but holds no
/// model.
std::unique_ptr<VegaSystem> stage1System(VegaOptions Opts) {
  auto Sys = std::make_unique<VegaSystem>(VegaSession::standardCorpus(), Opts);
  Sys->buildTemplates();
  Sys->buildDataset();
  return Sys;
}

/// Deterministic text form of a generated backend (no timing fields).
std::string render(const GeneratedBackend &GB) {
  return serve::backendToJson(GB).dump();
}

} // namespace

TEST(SessionCheckpoint, LoadWeightsGeneratesLikeSessionLoad) {
  std::unique_ptr<VegaSystem> Sys = stage1System(test::tier1Options());
  Status St = SessionCheckpoint::loadWeights(*Sys, artifact());
  ASSERT_TRUE(St.isOk()) << St.toString();
  // Unlike a restored session, the system keeps its Stage-1 dataset.
  EXPECT_GT(Sys->trainPairCount(), 0u);
  EXPECT_GT(Sys->verifyPairCount(), 0u);

  StatusOr<std::unique_ptr<VegaSession>> Loaded = VegaSession::load(artifact());
  ASSERT_TRUE(Loaded.isOk()) << Loaded.status().toString();
  for (const char *Target : {"RISCV", "RI5CY", "XCORE"}) {
    StatusOr<GeneratedBackend> Want = (*Loaded)->generate(Target);
    ASSERT_TRUE(Want.isOk()) << Want.status().toString();
    EXPECT_EQ(render(Sys->generateBackend(Target)), render(*Want)) << Target;
  }
}

TEST(SessionCheckpoint, LoadWeightsRefusesAnotherTrainingSchedule) {
  // Same architecture, vocabulary and corpus; only the epoch count
  // differs. The weights would fit, but they are not this system's model.
  VegaOptions Opts = test::tier1Options();
  Opts.Model.Epochs = 2;
  std::unique_ptr<VegaSystem> Sys = stage1System(Opts);
  Status St = SessionCheckpoint::loadWeights(*Sys, artifact());
  EXPECT_EQ(St.code(), StatusCode::FailedPrecondition) << St.toString();
  EXPECT_EQ(Sys->model(), nullptr);
}

TEST(SessionCheckpoint, LoadWeightsRejectsTruncatedArtifact) {
  StatusOr<std::string> Blob = readFile(artifact());
  ASSERT_TRUE(Blob.isOk()) << Blob.status().toString();
  const std::string Path = "checkpoint_test_truncated.vega";
  ASSERT_TRUE(writeFile(Path, Blob->substr(0, Blob->size() / 2)).isOk());

  std::unique_ptr<VegaSystem> Sys = stage1System(test::tier1Options());
  Status St = SessionCheckpoint::loadWeights(*Sys, Path);
  EXPECT_EQ(St.code(), StatusCode::DataLoss) << St.toString();
  EXPECT_EQ(Sys->model(), nullptr);
  std::remove(Path.c_str());
}
