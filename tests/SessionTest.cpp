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
#include "obs/Trace.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

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

TEST(SessionCheckpoint, BatchedGenerateMatchesStandaloneCalls) {
  StatusOr<std::unique_ptr<VegaSession>> Loaded = [] {
    const std::string Path = "session_test_batch.vega";
    session().save(Path);
    auto L = VegaSession::load(Path);
    std::remove(Path.c_str());
    return L;
  }();
  ASSERT_TRUE(Loaded.isOk());
  StatusOr<std::vector<GeneratedBackend>> Batch =
      (*Loaded)->generateMany({"RISCV", "RI5CY", "XCORE"});
  ASSERT_TRUE(Batch.isOk());
  ASSERT_EQ(Batch->size(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    StatusOr<GeneratedBackend> Alone =
        (*Loaded)->generate(Batch->at(I).TargetName);
    ASSERT_TRUE(Alone.isOk());
    EXPECT_EQ(render(Batch->at(I)), render(*Alone));
  }
}

TEST(SessionCheckpoint, GenerateRejectsUnknownAndEmptyTargets) {
  StatusOr<GeneratedBackend> Unknown = session().generate("Z80");
  ASSERT_FALSE(Unknown.isOk());
  EXPECT_EQ(Unknown.status().code(), StatusCode::NotFound);
  StatusOr<std::vector<GeneratedBackend>> Empty = session().generateMany({});
  ASSERT_FALSE(Empty.isOk());
  EXPECT_EQ(Empty.status().code(), StatusCode::InvalidArgument);
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
  // The redesigned Stage-3 entry point: beginGenerate/step/finish driven
  // serially must produce exactly the bytes generate() produces, the step
  // count must equal the unit count (one function template per unit), and
  // two interleaved handles must not perturb each other — the scheduler's
  // determinism contract at the session layer.
  for (const std::string Target : {"RISCV", "RI5CY", "XCORE"}) {
    StatusOr<GeneratedBackend> Solo = session().generate(Target);
    ASSERT_TRUE(Solo.isOk()) << Target;

    StatusOr<VegaSession::GenerationHandle> Handle =
        session().beginGenerate(Target);
    ASSERT_TRUE(Handle.isOk()) << Target;
    EXPECT_EQ(Handle->target(), Target);
    const size_t Units = Handle->unitCount();
    ASSERT_GT(Units, 0u) << Target;
    size_t Steps = 0;
    while (session().step(*Handle))
      ++Steps;
    EXPECT_EQ(Steps, Units) << Target;
    EXPECT_TRUE(Handle->complete()) << Target;
    StatusOr<GeneratedBackend> Stepped =
        session().finish(std::move(Handle.value()));
    ASSERT_TRUE(Stepped.isOk()) << Target;
    EXPECT_EQ(render(*Stepped), render(*Solo)) << Target;

    // finish() on a fresh handle is exactly generate().
    StatusOr<VegaSession::GenerationHandle> Fresh =
        session().beginGenerate(Target);
    ASSERT_TRUE(Fresh.isOk()) << Target;
    StatusOr<GeneratedBackend> Folded =
        session().finish(std::move(Fresh.value()));
    ASSERT_TRUE(Folded.isOk()) << Target;
    EXPECT_EQ(render(*Folded), render(*Solo)) << Target;
  }

  // Interleave two handles step by step; both must match their solo runs.
  StatusOr<VegaSession::GenerationHandle> A = session().beginGenerate("RISCV");
  StatusOr<VegaSession::GenerationHandle> B = session().beginGenerate("XCORE");
  ASSERT_TRUE(A.isOk() && B.isOk());
  bool MoreA = true, MoreB = true;
  while (MoreA || MoreB) {
    if (MoreA)
      MoreA = session().step(*A);
    if (MoreB)
      MoreB = session().step(*B);
  }
  StatusOr<GeneratedBackend> OutA = session().finish(std::move(A.value()));
  StatusOr<GeneratedBackend> OutB = session().finish(std::move(B.value()));
  ASSERT_TRUE(OutA.isOk() && OutB.isOk());
  StatusOr<GeneratedBackend> SoloA = session().generate("RISCV");
  StatusOr<GeneratedBackend> SoloB = session().generate("XCORE");
  ASSERT_TRUE(SoloA.isOk() && SoloB.isOk());
  EXPECT_EQ(render(*OutA), render(*SoloA));
  EXPECT_EQ(render(*OutB), render(*SoloB));

  EXPECT_EQ(session().beginGenerate("Z80").status().code(),
            StatusCode::NotFound);
}
