//===- tests/SupportTest.cpp - vega_support unit tests -----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/BinaryIO.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"
#include "support/ThreadPool.h"
#include "support/VirtualFileSystem.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

using namespace vega;

TEST(StringUtils, SplitKeepsEmptyPieces) {
  auto Pieces = splitString("a,,b", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "");
  EXPECT_EQ(Pieces[2], "b");
}

TEST(StringUtils, SplitDropsEmptyWhenAsked) {
  auto Pieces = splitString("::a::b::", ':', /*KeepEmpty=*/false);
  ASSERT_EQ(Pieces.size(), 2u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
}

TEST(StringUtils, SplitLinesHandlesCRLFAndTrailingNewline) {
  auto Lines = splitLines("one\r\ntwo\nthree\n");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "one");
  EXPECT_EQ(Lines[1], "two");
  EXPECT_EQ(Lines[2], "three");
}

TEST(StringUtils, TrimRemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(trimString("  a b \t"), "a b");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StringUtils, JoinInterleavesSeparator) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringUtils, ContainsIgnoreCase) {
  EXPECT_TRUE(containsIgnoreCase("OPERAND_PCREL", "pcrel"));
  EXPECT_FALSE(containsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(containsIgnoreCase("anything", ""));
}

TEST(StringUtils, PartialMatchRequiresThreeChars) {
  EXPECT_FALSE(partiallyMatches("ab", "abcdef"));
  EXPECT_TRUE(partiallyMatches("ARM", "ARMELFObjectWriter"));
  EXPECT_TRUE(partiallyMatches("ARMELFObjectWriter", "ARM"));
  EXPECT_FALSE(partiallyMatches("RISCV", "Mips"));
}

TEST(StringUtils, IdentifierWordSplitting) {
  auto Words = splitIdentifierWords("IsPCRel");
  ASSERT_EQ(Words.size(), 3u);
  EXPECT_EQ(Words[0], "is");
  EXPECT_EQ(Words[1], "pc");
  EXPECT_EQ(Words[2], "rel");

  Words = splitIdentifierWords("fixup_riscv_pcrel_hi20");
  ASSERT_EQ(Words.size(), 4u);
  EXPECT_EQ(Words[1], "riscv");
  EXPECT_EQ(Words[3], "hi20");
}

TEST(StringUtils, IdentifierSimilarityBounds) {
  EXPECT_DOUBLE_EQ(identifierSimilarity("getRelocType", "getRelocType"), 1.0);
  EXPECT_GT(identifierSimilarity("getRelocType", "getRelocKind"), 0.4);
  EXPECT_DOUBLE_EQ(identifierSimilarity("abc", ""), 0.0);
}

TEST(StringUtils, SharedStemConnectsPCRelSpellings) {
  // The paper's IsPCRel ↔ OPERAND_PCREL partial match.
  EXPECT_TRUE(sharesSignificantStem("IsPCRel", "OPERAND_PCREL"));
  EXPECT_FALSE(sharesSignificantStem("Kind", "OPERAND_PCREL"));
  EXPECT_TRUE(sharesSignificantStem("ARMELFObjectWriter", "Name_ARM_x", 3));
}

TEST(StringUtils, ReplaceAllReplacesEveryOccurrence) {
  EXPECT_EQ(replaceAll("Mips::fixup_mips", "Mips", "RISCV"),
            "RISCV::fixup_mips");
  EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replaceAll("abc", "", "x"), "abc");
}

TEST(RNG, DeterministicAcrossInstances) {
  RNG A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, BoundedValues) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNG, ShuffleIsAPermutation) {
  RNG R(3);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  auto Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(VirtualFileSystem, AddGetRoundTrip) {
  VirtualFileSystem VFS;
  VFS.addFile("lib/Target/ARM/ARM.td", "def ARM");
  ASSERT_TRUE(VFS.getFile("lib/Target/ARM/ARM.td").has_value());
  EXPECT_EQ(*VFS.getFile("lib/Target/ARM/ARM.td"), "def ARM");
  EXPECT_FALSE(VFS.getFile("lib/Target/ARM/Other.td").has_value());
}

TEST(VirtualFileSystem, NormalizesPaths) {
  VirtualFileSystem VFS;
  VFS.addFile("./a//b/c.h", "x");
  EXPECT_TRUE(VFS.exists("a/b/c.h"));
  EXPECT_TRUE(VFS.exists("/a/b/c.h"));
}

TEST(VirtualFileSystem, DirectoryPrefixQueriesAreExact) {
  VirtualFileSystem VFS;
  VFS.addFile("lib/Target/ARM/ARM.td", "1");
  VFS.addFile("lib/Target/ARM64/ARM64.td", "2");
  auto Files = VFS.filesUnder("lib/Target/ARM");
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(Files[0]->Path, "lib/Target/ARM/ARM.td");
}

TEST(VirtualFileSystem, ExtensionFiltering) {
  VirtualFileSystem VFS;
  VFS.addFile("d/a.td", "");
  VFS.addFile("d/b.h", "");
  VFS.addFile("d/c.td", "");
  EXPECT_EQ(VFS.filesUnderWithExtension("d", ".td").size(), 2u);
  EXPECT_EQ(VFS.filesUnderWithExtension("d", ".h").size(), 1u);
}

TEST(VirtualFileSystem, AppendCreatesOrExtends) {
  VirtualFileSystem VFS;
  VFS.appendToFile("x.txt", "a");
  VFS.appendToFile("x.txt", "b");
  EXPECT_EQ(*VFS.getFile("x.txt"), "ab");
}

TEST(VirtualFileSystem, RemoveFile) {
  VirtualFileSystem VFS;
  VFS.addFile("x", "1");
  EXPECT_TRUE(VFS.removeFile("x"));
  EXPECT_FALSE(VFS.removeFile("x"));
  EXPECT_FALSE(VFS.exists("x"));
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable Table;
  Table.setHeader({"Name", "Value"});
  Table.addRow({"alpha", "1"});
  Table.addRow({"b", "22"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  // Numeric column right-aligned: "22" should line up under " 1".
  EXPECT_NE(Out.find("22"), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(TextTable::formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::formatPercent(0.715), "71.5%");
}

TEST(FileIO, ReplaceLeavesNewBytesAndNoTemporary) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(::testing::TempDir()) / "vega_fileio";
  fs::remove_all(Dir);
  ASSERT_TRUE(fs::create_directories(Dir));
  const std::string Path = (Dir / "artifact.bin").string();
  ASSERT_TRUE(writeFile(Path, "old bytes, longer than the new ones").isOk());
  ASSERT_TRUE(writeFile(Path, "new").isOk());
  StatusOr<std::string> Back = readFile(Path);
  ASSERT_TRUE(Back.isOk()) << Back.status().toString();
  EXPECT_EQ(*Back, "new");
  std::vector<std::string> Left;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Left.push_back(E.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"artifact.bin"});
  // A parent path that is a regular file: nothing can be written there.
  EXPECT_EQ(writeFile(Path + "/child.bin", "x").code(),
            StatusCode::Unavailable);
  EXPECT_EQ(readFile((Dir / "missing.bin").string()).status().code(),
            StatusCode::Unavailable);
  fs::remove_all(Dir);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, SerialFastPathWithOneJob) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1u);
  std::vector<size_t> Order;
  Pool.parallelFor(5, [&](size_t I) { Order.push_back(I); });
  // jobs=1 runs inline on the caller in ascending order — the exact
  // pre-pool serial code path.
  ASSERT_EQ(Order.size(), 5u);
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, LaneIdsStayInRange) {
  ThreadPool Pool(3);
  EXPECT_EQ(ThreadPool::currentLane(), -1);
  std::atomic<bool> Bad{false};
  Pool.parallelFor(64, [&](size_t) {
    int Lane = ThreadPool::currentLane();
    if (Lane < 0 || Lane >= 3)
      Bad = true;
  });
  EXPECT_FALSE(Bad.load());
  EXPECT_EQ(ThreadPool::currentLane(), -1);
}

TEST(ThreadPool, ReduceMatchesSerialFoldBitForBit) {
  // parallelReduce folds partials in ascending index order, so the result
  // must be bit-identical to the plain serial loop regardless of lanes.
  auto Map = [](size_t I) {
    return 1.0f / static_cast<float>(I + 1); // order-sensitive f32 terms
  };
  float Serial = 0.0f;
  for (size_t I = 0; I < 512; ++I)
    Serial += Map(I);
  ThreadPool Pool(4);
  float Parallel = Pool.parallelReduce<float>(
      512, 0.0f, Map, [](float Acc, float V) { return Acc + V; });
  EXPECT_EQ(Serial, Parallel);
}

TEST(ThreadPool, ParallelMapPreservesIndexing) {
  ThreadPool Pool(2);
  std::vector<int> Out =
      Pool.parallelMap<int>(100, [](size_t I) { return static_cast<int>(I * I); });
  ASSERT_EQ(Out.size(), 100u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], static_cast<int>(I * I));
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(32,
                                [&](size_t I) {
                                  if (I == 7)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> Count{0};
  Pool.parallelFor(8, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 8);
}

TEST(ThreadPool, DefaultJobsHonorsEnvOverride) {
  setenv("VEGA_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
  unsetenv("VEGA_JOBS");
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

// ---- Status / StatusOr ----------------------------------------------------

TEST(Status, OkCarriesNoMessageAndExitCodeZero) {
  Status St = Status::ok();
  EXPECT_TRUE(St.isOk());
  EXPECT_EQ(St.toString(), "ok");
  EXPECT_EQ(St.toExitCode(), 0);
}

TEST(Status, CodesMapToDistinctExitCodes) {
  EXPECT_EQ(Status::internal("x").toExitCode(), 1);
  EXPECT_EQ(Status::invalidArgument("x").toExitCode(), 2);
  EXPECT_EQ(Status::notFound("x").toExitCode(), 3);
  EXPECT_EQ(Status::failedPrecondition("x").toExitCode(), 4);
  EXPECT_EQ(Status::dataLoss("x").toExitCode(), 5);
  EXPECT_EQ(Status::unavailable("x").toExitCode(), 6);
  EXPECT_EQ(Status::unimplemented("x").toExitCode(), 7);
}

TEST(Status, ToStringPrefixesCodeName) {
  EXPECT_EQ(Status::dataLoss("checksum mismatch").toString(),
            "data-loss: checksum mismatch");
  EXPECT_EQ(Status::notFound("unknown target 'Z80'").toString(),
            "not-found: unknown target 'Z80'");
}

TEST(StatusOr, ValueAndErrorSides) {
  StatusOr<int> Good = 42;
  ASSERT_TRUE(Good.isOk());
  EXPECT_EQ(*Good, 42);

  StatusOr<int> Bad = Status::notFound("nope");
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::NotFound);
  EXPECT_EQ(Bad.status().message(), "nope");
}

TEST(StatusOr, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> P = std::make_unique<int>(7);
  ASSERT_TRUE(P.isOk());
  std::unique_ptr<int> Owned = std::move(*P);
  EXPECT_EQ(*Owned, 7);
}

// ---- Json -----------------------------------------------------------------

TEST(Json, DumpIsDeterministicAndInsertionOrdered) {
  Json Doc = Json::object();
  Doc.set("b", 1);
  Doc.set("a", "two");
  Json Arr = Json::array();
  Arr.push(true);
  Arr.push(Json());
  Arr.push(1.5);
  Doc.set("list", std::move(Arr));
  EXPECT_EQ(Doc.dump(), "{\"b\":1,\"a\":\"two\",\"list\":[true,null,1.5]}");
}

TEST(Json, ParseRoundTripsCompactDump) {
  const char *Text =
      "{\"name\":\"RISCV\",\"n\":3,\"ok\":true,\"none\":null,"
      "\"xs\":[1,2,3],\"nested\":{\"k\":\"v\"}}";
  StatusOr<Json> Doc = Json::parse(Text);
  ASSERT_TRUE(Doc.isOk());
  EXPECT_EQ(Doc->dump(), Text);
  EXPECT_EQ(Doc->getString("name"), "RISCV");
  EXPECT_EQ(Doc->getNumber("n"), 3.0);
  ASSERT_NE(Doc->get("xs"), nullptr);
  EXPECT_EQ(Doc->get("xs")->size(), 3u);
}

TEST(Json, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(Json::parse("").isOk());
  EXPECT_FALSE(Json::parse("{").isOk());
  EXPECT_FALSE(Json::parse("[1,]").isOk());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").isOk());
  EXPECT_FALSE(Json::parse("nul").isOk());
  EXPECT_EQ(Json::parse("{").status().code(), StatusCode::InvalidArgument);
}

TEST(Json, StringEscapesRoundTrip) {
  Json Doc = Json::object();
  Doc.set("s", "line\none\t\"quoted\" \\ end");
  StatusOr<Json> Back = Json::parse(Doc.dump());
  ASSERT_TRUE(Back.isOk());
  EXPECT_EQ(Back->getString("s"), "line\none\t\"quoted\" \\ end");
}

// ---- BinaryIO -------------------------------------------------------------

TEST(BinaryIO, WriterReaderRoundTrip) {
  BinaryWriter W;
  W.u8(7);
  W.u32(0xDEADBEEFu);
  W.u64(1ULL << 40);
  W.i32(-12345);
  W.f64(3.25);
  W.str("hello");
  BinaryReader R(W.blob());
  uint8_t A = 0;
  uint32_t B = 0;
  uint64_t C = 0;
  int32_t D = 0;
  double E = 0;
  std::string S;
  EXPECT_TRUE(R.u8(A) && R.u32(B) && R.u64(C) && R.i32(D) && R.f64(E) &&
              R.str(S));
  EXPECT_EQ(A, 7u);
  EXPECT_EQ(B, 0xDEADBEEFu);
  EXPECT_EQ(C, 1ULL << 40);
  EXPECT_EQ(D, -12345);
  EXPECT_EQ(E, 3.25);
  EXPECT_EQ(S, "hello");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(BinaryIO, ReaderFailsStickyOnTruncation) {
  BinaryWriter W;
  W.u32(99);
  BinaryReader R(W.blob());
  uint64_t Big = 0;
  EXPECT_FALSE(R.u64(Big)); // only 4 bytes available
  EXPECT_FALSE(R.ok());
  uint8_t Byte = 0;
  EXPECT_FALSE(R.u8(Byte)); // stays failed even though a byte remains
}

TEST(BinaryIO, StringLengthBeyondBufferFails) {
  BinaryWriter W;
  W.u64(1000); // claims 1000 bytes follow
  W.bytes("abc");
  BinaryReader R(W.blob());
  std::string S;
  EXPECT_FALSE(R.str(S));
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIO, Fnv1aIsStableAndOrderSensitive) {
  // The project-wide basis (also used by the corpus/model fingerprints);
  // artifact checksums depend on these exact values staying put.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(fnv1a("a"), fnv1a("a"));
  EXPECT_NE(fnv1a("abc"), fnv1a("acb"));
  EXPECT_NE(fnv1a("abc"), fnv1a("ab"));
}

// ---- ArgParse -------------------------------------------------------------

namespace {
ArgParse cliParser() {
  ArgParse P("tool", "test tool");
  P.addOption("jobs", "N", "lanes");
  P.addOption("session", "file", "artifact");
  P.addFlag("json", "json output");
  P.addCommand("generate", "<target> [epochs]", "emit", 1, 2);
  P.addCommand("targets", "", "list", 0, 0);
  return P;
}
} // namespace

TEST(ArgParse, FlagsAnywhereAroundTheCommand) {
  ArgParse P = cliParser();
  ASSERT_TRUE(P.parse({"--jobs=4", "generate", "RISCV", "--json"}).isOk());
  EXPECT_EQ(P.command(), "generate");
  ASSERT_EQ(P.positionals().size(), 1u);
  EXPECT_EQ(P.positionals()[0], "RISCV");
  EXPECT_TRUE(P.has("json"));
  EXPECT_EQ(P.getInt("jobs", 0), 4);
}

TEST(ArgParse, SeparateValueFormAndDefaults) {
  ArgParse P = cliParser();
  ASSERT_TRUE(P.parse({"generate", "RISCV", "8", "--session", "x.vega"}).isOk());
  EXPECT_EQ(P.get("session"), "x.vega");
  ASSERT_EQ(P.positionals().size(), 2u);
  EXPECT_EQ(P.positionals()[1], "8");
  EXPECT_FALSE(P.has("jobs"));
  EXPECT_EQ(P.getInt("jobs", 9), 9);
}

TEST(ArgParse, ArityAndUnknownsAreInvalidArgument) {
  EXPECT_EQ(cliParser().parse({"generate"}).code(),
            StatusCode::InvalidArgument); // too few positionals
  EXPECT_EQ(cliParser().parse({"generate", "a", "b", "c"}).code(),
            StatusCode::InvalidArgument); // too many
  EXPECT_EQ(cliParser().parse({"--nope", "targets"}).code(),
            StatusCode::InvalidArgument); // unknown flag
  EXPECT_EQ(cliParser().parse({"frobnicate"}).code(),
            StatusCode::InvalidArgument); // unknown command
}

TEST(ArgParse, PassthroughCollectsUnknownFlags) {
  ArgParse P("bench", "bench tool");
  P.addOption("inference-report", "file", "report");
  P.setPassthroughUnknown(true);
  ASSERT_TRUE(P.parse({"--benchmark_filter=BM_Gemm", "--inference-report=r.json",
                       "--benchmark_min_time=0.01"})
                  .isOk());
  EXPECT_EQ(P.get("inference-report"), "r.json");
  ASSERT_EQ(P.passthroughArgs().size(), 2u);
  EXPECT_EQ(P.passthroughArgs()[0], "--benchmark_filter=BM_Gemm");
  EXPECT_EQ(P.passthroughArgs()[1], "--benchmark_min_time=0.01");
}

TEST(ArgParse, UsageListsFlagsAndCommands) {
  std::string U = cliParser().usage();
  EXPECT_NE(U.find("--jobs=<N>"), std::string::npos);
  EXPECT_NE(U.find("generate <target> [epochs]"), std::string::npos);
  EXPECT_NE(U.find("targets"), std::string::npos);
}
