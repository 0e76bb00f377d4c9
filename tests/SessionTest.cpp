//===- tests/SessionTest.cpp - .vega checkpoint + VegaSession tests -----------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// End-to-end coverage of the session API: a one-epoch session is built once,
/// then every test exercises save/restore against it — byte-identical
/// generation for all three evaluation targets, trace-level proof that a
/// restored session never re-enters Stage 1/2, and rejection of truncated,
/// corrupted, version-bumped, and fingerprint-mismatched artifacts.
///
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/VegaSession.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>

using namespace vega;

namespace {

/// The expensive fixture: one-epoch session over the standard corpus, built
/// once for the whole binary.
VegaSession &session() {
  static std::unique_ptr<VegaSession> S = [] {
    VegaOptions Opts;
    Opts.Model.Epochs = 1;
    Opts.Verbose = false;
    StatusOr<std::unique_ptr<VegaSession>> Built = VegaSession::build(Opts);
    if (!Built.isOk()) {
      std::fprintf(stderr, "session build failed: %s\n",
                   Built.status().toString().c_str());
      std::abort();
    }
    return std::move(*Built);
  }();
  return *S;
}

/// The fixture session serialized to an artifact blob, once.
const std::string &artifactBlob() {
  static std::string Blob = [] {
    StatusOr<std::string> B = SessionCheckpoint::serialize(session().system());
    if (!B.isOk()) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   B.status().toString().c_str());
      std::abort();
    }
    return std::move(*B);
  }();
  return Blob;
}

/// Deterministic text form of a generated backend (no timing fields).
std::string render(const GeneratedBackend &GB) {
  return serve::backendToJson(GB).dump();
}

/// Artifact layout constants for surgical corruption: 16-byte file header,
/// then per section a 4-byte tag + u64 length + u64 checksum + payload.
constexpr size_t HeaderBytes = 16;
constexpr size_t MetaChecksumOffset = HeaderBytes + 4 + 8;
constexpr size_t MetaPayloadOffset = MetaChecksumOffset + 8;

uint64_t fnvOver(const std::string &Bytes, size_t Off, size_t Len) {
  uint64_t H = 1469598103934665603ULL;
  for (size_t I = Off; I < Off + Len; ++I) {
    H ^= static_cast<unsigned char>(Bytes[I]);
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

TEST(SessionCheckpoint, RoundTripGeneratesIdenticalBackends) {
  StatusOr<std::unique_ptr<VegaSystem>> Restored =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), artifactBlob());
  ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();
  for (const char *Target : {"RISCV", "RI5CY", "XCORE"}) {
    GeneratedBackend Cold = session().system().generateBackend(Target);
    GeneratedBackend Warm = (*Restored)->generateBackend(Target);
    EXPECT_EQ(render(Cold), render(Warm)) << "target " << Target;
  }
}

TEST(SessionCheckpoint, SaveLoadFileRoundTripViaVegaSession) {
  const std::string Path = "session_test_roundtrip.vega";
  ASSERT_TRUE(session().save(Path).isOk());
  StatusOr<std::unique_ptr<VegaSession>> Loaded = VegaSession::load(Path);
  ASSERT_TRUE(Loaded.isOk()) << Loaded.status().toString();
  EXPECT_TRUE((*Loaded)->loadedFromCheckpoint());
  EXPECT_FALSE(session().loadedFromCheckpoint());

  StatusOr<GeneratedBackend> Warm = (*Loaded)->generate("RISCV");
  ASSERT_TRUE(Warm.isOk());
  GeneratedBackend Cold = session().system().generateBackend("RISCV");
  EXPECT_EQ(render(Cold), render(*Warm));
  std::remove(Path.c_str());
}

TEST(SessionCheckpoint, RestoredSessionEmitsNoTrainingSpans) {
  StatusOr<std::unique_ptr<VegaSystem>> Restored =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), artifactBlob());
  ASSERT_TRUE(Restored.isOk());

  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  Rec.clear();
  Rec.setEnabled(true);
  (*Restored)->generateBackend("RISCV");
  Rec.setEnabled(false);
  bool SawStage3 = false;
  for (const obs::TraceEvent &E : Rec.snapshot()) {
    EXPECT_TRUE(E.Name.rfind("stage1.", 0) != 0 &&
                E.Name.rfind("stage2.", 0) != 0)
        << "restored session ran " << E.Name;
    if (E.Name == "stage3.generate_backend")
      SawStage3 = true;
  }
  Rec.clear();
  EXPECT_TRUE(SawStage3);
}

TEST(SessionCheckpoint, GenerateRejectsUnknownAndEmptyTargets) {
  StatusOr<GeneratedBackend> Unknown = session().generate("Z80");
  ASSERT_FALSE(Unknown.isOk());
  EXPECT_EQ(Unknown.status().code(), StatusCode::NotFound);
  StatusOr<GeneratedBackend> Empty = session().generate("");
  ASSERT_FALSE(Empty.isOk());
  EXPECT_EQ(Empty.status().code(), StatusCode::NotFound);
}

TEST(SessionCheckpoint, RejectsTruncatedArtifact) {
  std::string Cut = artifactBlob().substr(0, artifactBlob().size() / 2);
  StatusOr<std::unique_ptr<VegaSystem>> R =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), Cut);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
}

TEST(SessionCheckpoint, RejectsCorruptedPayloadByte) {
  std::string Bad = artifactBlob();
  Bad[Bad.size() - 100] ^= 0x5A; // deep inside the WGTS payload
  StatusOr<std::unique_ptr<VegaSystem>> R =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), Bad);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("checksum"), std::string::npos);
}

TEST(SessionCheckpoint, RejectsBadMagic) {
  std::string Bad = artifactBlob();
  Bad[0] = 'X';
  StatusOr<std::unique_ptr<VegaSystem>> R =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), Bad);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("magic"), std::string::npos);
}

TEST(SessionCheckpoint, RejectsFutureFormatVersion) {
  std::string Bad = artifactBlob();
  Bad[8] = 99; // version u32 follows the 8-byte magic
  StatusOr<std::unique_ptr<VegaSystem>> R =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), Bad);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);
  EXPECT_NE(R.status().message().find("version"), std::string::npos);
}

TEST(SessionCheckpoint, RejectsEditedOptionsFingerprint) {
  // Flip a bit of the recorded options fingerprint (first META payload
  // field) and re-patch the section checksum so only the fingerprint check
  // can catch the edit.
  std::string Bad = artifactBlob();
  uint64_t MetaLen = 0;
  std::memcpy(&MetaLen, Bad.data() + HeaderBytes + 4, sizeof(MetaLen));
  Bad[MetaPayloadOffset] ^= 0x01;
  uint64_t Sum = fnvOver(Bad, MetaPayloadOffset, MetaLen);
  std::memcpy(Bad.data() + MetaChecksumOffset, &Sum, sizeof(Sum));

  StatusOr<std::unique_ptr<VegaSystem>> R =
      SessionCheckpoint::restore(VegaSession::standardCorpus(), Bad);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("fingerprint"), std::string::npos);
}

TEST(SessionCheckpoint, InspectSummarizesWithoutRestoring) {
  const std::string Path = "session_test_inspect.vega";
  ASSERT_TRUE(session().save(Path).isOk());
  StatusOr<SessionCheckpoint::Info> Info = SessionCheckpoint::inspect(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Info.isOk()) << Info.status().toString();
  EXPECT_EQ(Info->Version, SessionCheckpoint::FormatVersion);
  EXPECT_EQ(Info->Options.Model.Epochs, 1);
  EXPECT_GT(Info->TemplateCount, 0u);
  EXPECT_GT(Info->VocabSize, 0u);
  ASSERT_EQ(Info->Sections.size(), 5u);
  EXPECT_EQ(Info->Sections[0].first, "META");
  EXPECT_EQ(Info->Sections[4].first, "WGTS");
}

TEST(SessionCheckpoint, LoadReportsMissingFileAsUnavailable) {
  StatusOr<std::unique_ptr<VegaSession>> R =
      VegaSession::load("no_such_artifact.vega");
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Unavailable);
}

TEST(SessionCheckpoint, HandleApiStepLoopMatchesGenerate) {
  // The serve scheduler's own calls at the session layer: a unit source
  // hands out the units of two handles alternately, three per fan-out, and
  // the lanes pull them concurrently, so each fan-out mixes both handles.
  // At any lane count every folded backend must be the bytes of a solo
  // generate() — the scheduler's determinism contract.
  StatusOr<GeneratedBackend> SoloA = session().generate("RISCV");
  StatusOr<GeneratedBackend> SoloB = session().generate("XCORE");
  ASSERT_TRUE(SoloA.isOk() && SoloB.isOk());
  for (int Jobs : {1, 4}) {
    session().setJobs(Jobs);
    StatusOr<VegaSession::GenerationHandle> A =
        session().beginGenerate("RISCV");
    StatusOr<VegaSession::GenerationHandle> B =
        session().beginGenerate("XCORE");
    ASSERT_TRUE(A.isOk() && B.isOk());
    EXPECT_EQ(A->target(), "RISCV");
    EXPECT_EQ(B->target(), "XCORE");
    ASSERT_GT(A->unitCount(), 0u);
    ASSERT_GT(B->unitCount(), 0u);
    const std::vector<VegaSession::GenerationHandle *> Handles = {&A.value(),
                                                                  &B.value()};
    size_t Ran = 0, Mixed = 0;
    for (;;) {
      std::mutex Mu;
      size_t Turn = 0;
      std::vector<VegaSystem::ClaimedUnit> FanOut;
      session().system().runGenerateUnits(
          [&]() -> std::optional<VegaSystem::ClaimedUnit> {
            std::lock_guard<std::mutex> Lock(Mu);
            if (FanOut.size() >= 3)
              return std::nullopt;
            for (size_t Tried = 0; Tried < Handles.size(); ++Tried) {
              VegaSession::GenerationHandle *H =
                  Handles[Turn++ % Handles.size()];
              if (std::optional<size_t> U = H->claimUnit()) {
                FanOut.emplace_back(H, *U);
                return FanOut.back();
              }
            }
            return std::nullopt;
          });
      if (FanOut.empty())
        break;
      std::set<VegaSession::GenerationHandle *> Riders;
      for (const VegaSystem::ClaimedUnit &U : FanOut)
        Riders.insert(U.first);
      Mixed += Riders.size() == Handles.size();
      Ran += FanOut.size();
    }
    EXPECT_EQ(Ran, A->unitCount() + B->unitCount()) << "jobs=" << Jobs;
    EXPECT_GT(Mixed, 0u) << "jobs=" << Jobs;
    EXPECT_TRUE(A->complete() && B->complete()) << "jobs=" << Jobs;
    StatusOr<GeneratedBackend> OutA = session().finish(std::move(A.value()));
    StatusOr<GeneratedBackend> OutB = session().finish(std::move(B.value()));
    ASSERT_TRUE(OutA.isOk() && OutB.isOk()) << "jobs=" << Jobs;
    EXPECT_EQ(render(*OutA), render(*SoloA)) << "jobs=" << Jobs;
    EXPECT_EQ(render(*OutB), render(*SoloB)) << "jobs=" << Jobs;
  }
  session().setJobs(0);

  EXPECT_EQ(session().beginGenerate("Z80").status().code(),
            StatusCode::NotFound);
}

TEST(SessionCheckpoint, FinishRejectsFreshHandle) {
  // finish() only folds; it runs no units, so a handle none of whose units
  // ran fails typed.
  StatusOr<VegaSession::GenerationHandle> H = session().beginGenerate("RISCV");
  ASSERT_TRUE(H.isOk());
  ASSERT_FALSE(H->complete());
  StatusOr<GeneratedBackend> Out = session().finish(std::move(H.value()));
  ASSERT_FALSE(Out.isOk());
  EXPECT_EQ(Out.status().code(), StatusCode::FailedPrecondition);
}

TEST(SessionCheckpoint, FinishRejectsHandleWithClaimedUnitNotRun) {
  // One unit claimed and never run, every other unit pulled and run by a
  // fan-out: the unrun unit must not fold into the backend as an empty
  // function or count in gen.functions.
  StatusOr<VegaSession::GenerationHandle> H = session().beginGenerate("RISCV");
  ASSERT_TRUE(H.isOk());
  ASSERT_GT(H->unitCount(), 1u);
  ASSERT_TRUE(H->claimUnit().has_value());
  session().system().runGenerateUnits(
      [&]() -> std::optional<VegaSystem::ClaimedUnit> {
        if (std::optional<size_t> U = H->claimUnit())
          return VegaSystem::ClaimedUnit{&H.value(), *U};
        return std::nullopt;
      });
  ASSERT_FALSE(H->complete());

  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::instance();
  const bool WasEnabled = Metrics.enabled();
  Metrics.setEnabled(true);
  const uint64_t Before = Metrics.counterValue("gen.functions");
  StatusOr<GeneratedBackend> Out = session().finish(std::move(H.value()));
  const uint64_t After = Metrics.counterValue("gen.functions");
  Metrics.setEnabled(WasEnabled);
  EXPECT_EQ(Out.status().code(), StatusCode::FailedPrecondition);
  EXPECT_EQ(After, Before);
}
