//===- bench/microbench.cpp - google-benchmark microbenchmarks ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Microbenchmarks for the hot kernels behind the figures: lexing, GumTree
/// matching, templatization, Algorithm-1 harvesting, interpretation, the
/// inference GEMM kernels, and CodeBE decoding. These are throughput
/// numbers, not paper results.
///
/// `microbench --inference-report=<file>.json` additionally measures the
/// inference stack end to end (GEMM GFLOP/s, decode tokens/sec with the KV
/// cache and with full recomputation, generateBackend wall time at
/// --jobs=1/4 against the serial full-recompute baseline) and writes the
/// numbers as JSON.
///
/// `microbench --training-report=<file>.json` measures fine-tuning
/// throughput (Trainer examples/sec at --train-jobs=1/4 on a synthetic
/// copy task) plus the jobs-determinism cross-check, as JSON.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "corpus/Corpus.h"
#include "eval/EvalSpecs.h"
#include "feature/FeatureSelector.h"
#include "gumtree/Matcher.h"
#include "interp/Interpreter.h"
#include "lexer/Lexer.h"
#include "minicc/Benchmarks.h"
#include "model/Autograd.h"
#include "model/Trainer.h"
#include "sim/Simulator.h"
#include "support/ArgParse.h"
#include "support/BinaryIO.h"
#include "support/RNG.h"
#include "templatize/FunctionTemplate.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>

using namespace vega;

namespace {

const BackendCorpus &corpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

const BackendFunction &armReloc() {
  return *corpus().backend("ARM")->find("getRelocType");
}

void BM_LexGetRelocType(benchmark::State &State) {
  const std::string &Src = armReloc().Source;
  for (auto _ : State)
    benchmark::DoNotOptimize(Lexer::tokenize(Src));
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Src.size()));
}
BENCHMARK(BM_LexGetRelocType);

void BM_ParseGetRelocType(benchmark::State &State) {
  const std::string &Src = armReloc().Source;
  for (auto _ : State)
    benchmark::DoNotOptimize(preprocessFunctionSource(Src));
}
BENCHMARK(BM_ParseGetRelocType);

void BM_GumTreeMatch(benchmark::State &State) {
  const FunctionAST &A = armReloc().AST;
  const FunctionAST &B = corpus().backend("Mips")->find("getRelocType")->AST;
  for (auto _ : State)
    benchmark::DoNotOptimize(matchFunctions(A, B));
}
BENCHMARK(BM_GumTreeMatch);

void BM_TemplatizeRelocGroup(benchmark::State &State) {
  static std::vector<FunctionGroup> Groups = corpus().trainingGroups();
  const FunctionGroup *Reloc = nullptr;
  for (const FunctionGroup &G : Groups)
    if (G.InterfaceName == "getRelocType")
      Reloc = &G;
  for (auto _ : State)
    benchmark::DoNotOptimize(buildFunctionTemplate(*Reloc));
}
BENCHMARK(BM_TemplatizeRelocGroup);

void BM_HarvestFixups(benchmark::State &State) {
  static FeatureSelector Selector = [] {
    std::vector<std::string> Names;
    for (const TargetTraits &T : corpus().targets().targets())
      Names.push_back(T.Name);
    return FeatureSelector(corpus().vfs(), Names);
  }();
  for (auto _ : State)
    benchmark::DoNotOptimize(Selector.harvestValues("MCFixupKind", "RISCV"));
}
BENCHMARK(BM_HarvestFixups);

void BM_InterpretGetRelocType(benchmark::State &State) {
  const FunctionAST &Fn = armReloc().AST;
  const TargetTraits *T = corpus().targets().find("ARM");
  std::vector<Environment> Envs = buildTestEnvironments("getRelocType", *T);
  Interpreter Interp;
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Interp.run(Fn, Envs[I % Envs.size()]));
    ++I;
  }
}
BENCHMARK(BM_InterpretGetRelocType);

void BM_CompileBenchmarkO3(benchmark::State &State) {
  const TargetTraits *T = corpus().targets().find("RISCV");
  BackendHooks Hooks = hooksFromTraits(*T);
  IRModule Module = buildBenchmark("502.gcc_r");
  for (auto _ : State)
    benchmark::DoNotOptimize(
        compileAndRun(Module, *T, Hooks, OptLevel::O3));
}
BENCHMARK(BM_CompileBenchmarkO3);

// ---- Inference kernels --------------------------------------------------

/// GEMM shapes from the decoder hot path: (dst rows × DModel) · (DModel ×
/// FFDim), the largest matmul per decode step at the default config.
constexpr int GemmM = 48, GemmK = 64, GemmN = 192;

std::vector<float> randomMatrix(size_t N, uint64_t Seed) {
  RNG Rng(Seed);
  std::vector<float> M(N);
  for (float &V : M)
    V = static_cast<float>(Rng.nextGaussian());
  return M;
}

/// The pre-blocking inner loop (what matmul's forward used to run), kept as
/// the reference point for the kernel speedup.
void naiveGemm(const float *A, const float *B, float *C, int M, int K,
               int N) {
  for (int I = 0; I < M; ++I)
    for (int P = 0; P < K; ++P) {
      float AV = A[I * K + P];
      if (AV == 0.0f)
        continue;
      for (int J = 0; J < N; ++J)
        C[I * N + J] += AV * B[P * N + J];
    }
}

void BM_GemmNaive(benchmark::State &State) {
  std::vector<float> A = randomMatrix(GemmM * GemmK, 1);
  std::vector<float> B = randomMatrix(GemmK * GemmN, 2);
  std::vector<float> C(GemmM * GemmN, 0.0f);
  for (auto _ : State) {
    naiveGemm(A.data(), B.data(), C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(C.data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * GemmM * GemmK * GemmN * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmNaive);

void BM_GemmBlocked(benchmark::State &State) {
  std::vector<float> A = randomMatrix(GemmM * GemmK, 1);
  std::vector<float> B = randomMatrix(GemmK * GemmN, 2);
  std::vector<float> C(GemmM * GemmN, 0.0f);
  for (auto _ : State) {
    detail::gemmAccum(A.data(), B.data(), C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(C.data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * GemmM * GemmK * GemmN * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmBlocked);

void BM_GemmNTFp32(benchmark::State &State) {
  std::vector<float> A = randomMatrix(GemmM * GemmK, 1);
  std::vector<float> B = randomMatrix(GemmN * GemmK, 2);
  std::vector<float> C(GemmM * GemmN, 0.0f);
  for (auto _ : State) {
    detail::gemmNT(A.data(), B.data(), C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(C.data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * GemmM * GemmK * GemmN * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmNTFp32);

/// A synthetic decode workload: an untrained (but deterministically seeded)
/// CodeBE plus a 40-step decode plan that pins one admissible token per
/// position, so every generate() emits exactly 40 tokens regardless of the
/// random weights.
struct DecodeFixture {
  Vocab V;
  std::unique_ptr<CodeBE> Model;
  std::vector<int> Src;
  CodeBE::DecodePlan Plan;
  int Tokens = 0;

  DecodeFixture() {
    std::vector<int> Words;
    for (int I = 0; I < 40; ++I)
      Words.push_back(V.addToken("tok" + std::to_string(I)));
    CodeBEConfig C;
    C.MaxSrcLen = 16;
    C.MaxDstLen = 48;
    Model = std::make_unique<CodeBE>(V, C);
    Src = {V.clsId(), Words[3], Words[7], Words[11]};
    Plan.Steps.push_back({V.csId(20)});
    for (int I = 0; I < 39; ++I)
      Plan.Steps.push_back({Words[static_cast<size_t>(I)]});
    Tokens = static_cast<int>(Plan.Steps.size());
  }

  static DecodeFixture &instance() {
    static DecodeFixture F;
    return F;
  }
};

void BM_DecodeFullRecompute(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(F.Src, nullptr, &F.Plan));
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  State.SetItemsProcessed(State.iterations() * F.Tokens);
}
BENCHMARK(BM_DecodeFullRecompute);

void BM_DecodeKVCache(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(F.Src, nullptr, &F.Plan));
  State.SetItemsProcessed(State.iterations() * F.Tokens);
}
BENCHMARK(BM_DecodeKVCache);

// ---- Training throughput ------------------------------------------------

/// A synthetic fine-tuning workload: a deterministically seeded copy-task
/// corpus large enough to keep every lane busy. Each measurement trains a
/// fresh same-seed model, so jobs=1 and jobs=4 runs are directly
/// comparable (and, per the Trainer determinism contract, bit-identical).
struct TrainFixture {
  Vocab V;
  CodeBEConfig C;
  std::vector<TrainPair> Data;

  TrainFixture() {
    std::vector<std::string> Words;
    for (int I = 0; I < 12; ++I) {
      Words.push_back("w" + std::to_string(I));
      V.addToken(Words.back());
    }
    C.Epochs = 1;
    C.MaxSrcLen = 8;
    C.MaxDstLen = 6;
    RNG Rng(17);
    for (int I = 0; I < 96; ++I) {
      int A = static_cast<int>(Rng.nextBelow(12));
      int B = static_cast<int>(Rng.nextBelow(12));
      TrainPair P;
      P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
               V.idOf(Words[static_cast<size_t>(B)])};
      P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
               V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
      Data.push_back(P);
    }
  }

  static TrainFixture &instance() {
    static TrainFixture F;
    return F;
  }

  /// One full train() at \p Jobs on a fresh model. Returns the engine's
  /// own examples/sec figure; \p WeightsOut (when non-null) receives the
  /// trained weights for the determinism cross-check.
  double run(int Jobs, std::string *WeightsOut = nullptr) {
    CodeBE Model(V, C);
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.Jobs = Jobs;
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    if (!Result.isOk())
      return 0.0;
    if (WeightsOut)
      *WeightsOut = Model.saveWeights();
    return Result->ExamplesPerSec;
  }
};

void BM_TrainEpoch(benchmark::State &State) {
  TrainFixture &F = TrainFixture::instance();
  const int Jobs = static_cast<int>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.run(Jobs));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(F.Data.size()));
}
BENCHMARK(BM_TrainEpoch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// ---- --inference-report=<file>.json -------------------------------------

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// GFLOP/s of \p Run over at least ~0.2 s of repetitions.
template <typename Fn> double measureGflops(double FlopsPerCall, Fn Run) {
  Run(); // warm-up
  int Reps = 1;
  for (;;) {
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I)
      Run();
    double S = secondsSince(T0);
    if (S >= 1.0)
      return FlopsPerCall * Reps / S * 1e-9;
    Reps *= 4;
  }
}

/// Decode throughput (tokens/sec) of the fixture in \p Mode.
double measureDecodeTokensPerSec(CodeBE::DecodeMode Mode) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(Mode);
  F.Model->generate(F.Src, nullptr, &F.Plan); // warm-up
  int Reps = 1;
  double Result = 0.0;
  for (;;) {
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I)
      benchmark::DoNotOptimize(F.Model->generate(F.Src, nullptr, &F.Plan));
    double S = secondsSince(T0);
    if (S >= 2.0) {
      Result = static_cast<double>(F.Tokens) * Reps / S;
      break;
    }
    Reps *= 2;
  }
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  return Result;
}

/// One end-to-end Stage-3 wall time on the shared trained system.
double timeGenerateBackend(VegaSystem &Sys, CodeBE::DecodeMode Mode,
                           int Jobs) {
  Sys.model()->setDecodeMode(Mode);
  Sys.setJobs(Jobs);
  auto T0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(Sys.generateBackend("RISCV"));
  return secondsSince(T0);
}

int writeInferenceReport(const std::string &Path) {
  std::fprintf(stderr, "measuring GEMM kernels...\n");
  std::vector<float> A = randomMatrix(GemmM * GemmK, 1);
  std::vector<float> B = randomMatrix(GemmK * GemmN, 2);
  std::vector<float> C(GemmM * GemmN, 0.0f);
  const double Flops = 2.0 * GemmM * GemmK * GemmN;
  double NaiveGflops = measureGflops(Flops, [&] {
    naiveGemm(A.data(), B.data(), C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(C.data());
  });
  double BlockedGflops = measureGflops(Flops, [&] {
    detail::gemmAccum(A.data(), B.data(), C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(C.data());
  });

  std::fprintf(stderr, "measuring decode throughput...\n");
  double FullTps = measureDecodeTokensPerSec(CodeBE::DecodeMode::FullRecompute);
  double KVTps = measureDecodeTokensPerSec(CodeBE::DecodeMode::KVCache);

  std::fprintf(stderr, "measuring end-to-end generateBackend...\n");
  VegaSystem &Sys = bench::system();
  // Baseline = what Stage 3 did before this engine existed: serial decode
  // with full prefix recomputation (the blocked kernels are the same code
  // in both paths, so the end-to-end ratio isolates KV cache + pool).
  // The three configurations are timed round-robin and each keeps its
  // minimum: interleaving spreads slow machine phases across all three
  // instead of landing one phase on a single configuration, and the
  // minimum is the least noise-contaminated estimate of the true cost.
  double BaselineSec = 0.0, Jobs1Sec = 0.0, Jobs4Sec = 0.0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    double B = timeGenerateBackend(Sys, CodeBE::DecodeMode::FullRecompute, 1);
    double J1 = timeGenerateBackend(Sys, CodeBE::DecodeMode::KVCache, 1);
    double J4 = timeGenerateBackend(Sys, CodeBE::DecodeMode::KVCache, 4);
    if (Rep == 0 || B < BaselineSec)
      BaselineSec = B;
    if (Rep == 0 || J1 < Jobs1Sec)
      Jobs1Sec = J1;
    if (Rep == 0 || J4 < Jobs4Sec)
      Jobs4Sec = J4;
  }

  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n"
      "  \"schema\": \"vega-inference-bench-3\",\n"
      "  \"gemm\": {\n"
      "    \"m\": %d, \"k\": %d, \"n\": %d,\n"
      "    \"naive_gflops\": %.4f,\n"
      "    \"blocked_gflops\": %.4f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"decode\": {\n"
      "    \"tokens\": %d,\n"
      "    \"full_recompute_tokens_per_sec\": %.2f,\n"
      "    \"kv_cache_tokens_per_sec\": %.2f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"generate_backend\": {\n"
      "    \"target\": \"RISCV\",\n"
      "    \"baseline_serial_full_recompute_sec\": %.4f,\n"
      "    \"jobs1_sec\": %.4f,\n"
      "    \"jobs4_sec\": %.4f,\n"
      "    \"speedup_jobs1_vs_baseline\": %.3f,\n"
      "    \"speedup_jobs4_vs_baseline\": %.3f\n"
      "  }\n"
      "}\n",
      GemmM, GemmK, GemmN, NaiveGflops, BlockedGflops,
      BlockedGflops / NaiveGflops, DecodeFixture::instance().Tokens, FullTps,
      KVTps, KVTps / FullTps, BaselineSec, Jobs1Sec, Jobs4Sec,
      BaselineSec / Jobs1Sec, BaselineSec / Jobs4Sec);

  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  Out << Buf;
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return 0;
}

// ---- --training-report=<file>.json --------------------------------------

int writeTrainingReport(const std::string &Path) {
  TrainFixture &F = TrainFixture::instance();

  std::fprintf(stderr, "measuring train throughput...\n");
  // Round-robin with per-configuration maxima, mirroring the inference
  // report's minimum-of-interleaved-reps policy (a rate wants the max
  // where a latency wants the min). The first rep also captures weights
  // for the determinism cross-check.
  std::string Weights1, Weights4;
  double Jobs1Rate = 0.0, Jobs4Rate = 0.0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double R1 = F.run(1, Rep == 0 ? &Weights1 : nullptr);
    double R4 = F.run(4, Rep == 0 ? &Weights4 : nullptr);
    Jobs1Rate = std::max(Jobs1Rate, R1);
    Jobs4Rate = std::max(Jobs4Rate, R4);
  }
  const bool WeightsIdentical =
      !Weights1.empty() && Weights1 == Weights4 &&
      fnv1a(Weights1) == fnv1a(Weights4);

  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "{\n"
                "  \"schema\": \"vega-training-bench-1\",\n"
                "  \"train\": {\n"
                "    \"examples\": %zu,\n"
                "    \"epochs\": %d,\n"
                "    \"batch_size\": %d,\n"
                "    \"jobs1_examples_per_sec\": %.2f,\n"
                "    \"jobs4_examples_per_sec\": %.2f,\n"
                "    \"speedup_jobs4_vs_jobs1\": %.3f,\n"
                "    \"weights_identical_jobs1_vs_jobs4\": %s\n"
                "  }\n"
                "}\n",
                F.Data.size(), F.C.Epochs, F.C.BatchSize, Jobs1Rate,
                Jobs4Rate, Jobs4Rate / Jobs1Rate,
                WeightsIdentical ? "true" : "false");

  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  Out << Buf;
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  vega::ArgParse Parser("microbench",
                        "google-benchmark micro-suite for the VEGA kernels");
  Parser.addOption("inference-report", "file.json",
                   "also measure end-to-end decode latency and write a report");
  Parser.addOption("training-report", "file.json",
                   "also measure train() examples/sec at jobs 1/4 and write "
                   "a report");
  Parser.setPassthroughUnknown(true); // --benchmark_* flags stay untouched
  if (vega::Status St = Parser.parse(argc, argv); !St.isOk()) {
    std::fprintf(stderr, "microbench: %s\n%s", St.toString().c_str(),
                 Parser.usage().c_str());
    return St.toExitCode();
  }
  std::string ReportPath = Parser.get("inference-report");
  std::string TrainingReportPath = Parser.get("training-report");

  std::vector<std::string> Stored;
  Stored.push_back(argv[0]);
  for (const std::string &A : Parser.passthroughArgs())
    Stored.push_back(A);
  std::vector<char *> Args;
  for (std::string &A : Stored)
    Args.push_back(A.data());
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!ReportPath.empty())
    if (int Rc = writeInferenceReport(ReportPath))
      return Rc;
  if (!TrainingReportPath.empty())
    return writeTrainingReport(TrainingReportPath);
  return 0;
}
