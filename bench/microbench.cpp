//===- bench/microbench.cpp - google-benchmark microbenchmarks ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Microbenchmarks for the hot kernels behind the figures: lexing, GumTree
/// matching, templatization, Algorithm-1 harvesting, interpretation, the
/// inference GEMM kernels, and CodeBE encoding and decoding. These are
/// throughput numbers, not paper results.
///
/// `microbench --inference-report=<file>.json` additionally measures the
/// inference stack end to end (GEMM GFLOP/s against the naive loop and at
/// the shapes the workloads run, decode tokens/sec with the KV cache and
/// with full recomputation, generateBackend wall time at --jobs=1/4 against
/// the serial full-recompute baseline, and two passes over every corpus
/// target with the encoder memo's hit ratio) and writes the numbers as JSON.
///
/// Every decode benchmark cycles through more distinct sources than the
/// encoder memo holds, and every generateBackend time starts from an empty
/// memo, so they time the model rather than memo hits; only the
/// `encode_memo` section measures the memo.
///
/// `microbench --training-report=<file>.json` measures fine-tuning
/// throughput (Trainer examples/sec at --train-jobs=1/4 on a synthetic
/// copy task) plus the jobs-determinism cross-check, as JSON.
///
/// Both reports carry a `host` block (bench::hostInfo) saying where they
/// were measured, including the GEMM kernel variant the loader picked.
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
#include "obs/Metrics.h"
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

/// The 48-row block the report's naive-vs-kernel comparison uses: (dst rows
/// × DModel) · (DModel × FFDim), the largest matmul of a full-length
/// decoder pass at the default config.
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

using GemmKernel = void (*)(const float *, const float *, float *, int, int,
                            int);

/// One kernel and the shape a workload calls it with.
struct GemmCase {
  const char *Kernel;
  GemmKernel Fn;
  int M, K, N;
  const char *Use;
};

/// The shapes the workloads run: the one-row decode step (gemmAccum for the
/// FF block, gemmNT for the vocabulary projection), the 48-row block of a
/// full pass, and the two backward kernels of that block in training.
const GemmCase GemmCases[] = {
    {"gemmAccum", detail::gemmAccum, 1, 64, 192, "decode-step FF"},
    {"gemmNT", detail::gemmNT, 1, 64, 4096, "decode-step vocab projection"},
    {"gemmAccum", detail::gemmAccum, GemmM, GemmK, GemmN, "48-row FF block"},
    {"gemmNT", detail::gemmNT, GemmM, GemmK, GemmN, "48-row A·Bᵀ block"},
    {"gemmNTAccum", detail::gemmNTAccum, GemmM, GemmN, GemmK,
     "FF block backward dA"},
    {"gemmTNAccum", detail::gemmTNAccum, GemmM, GemmK, GemmN,
     "FF block backward dB"},
};

/// Seeded operands large enough for any of the four kernels at M, K, N
/// (B is K×N, N×K or M×N; C is M×N or K×N).
struct GemmOperands {
  std::vector<float> A, B, C;
  GemmOperands(int M, int K, int N)
      : A(randomMatrix(static_cast<size_t>(M) * K, 1)),
        B(randomMatrix(static_cast<size_t>(std::max(K, M)) * N, 2)),
        C(static_cast<size_t>(std::max(M, K)) * N, 0.0f) {}
};

void BM_GemmNaive(benchmark::State &State) {
  GemmOperands Ops(GemmM, GemmK, GemmN);
  for (auto _ : State) {
    naiveGemm(Ops.A.data(), Ops.B.data(), Ops.C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(Ops.C.data());
    benchmark::ClobberMemory();
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * GemmM * GemmK * GemmN * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmNaive);

void BM_Gemm(benchmark::State &State, const GemmCase &Case) {
  GemmOperands Ops(Case.M, Case.K, Case.N);
  for (auto _ : State) {
    Case.Fn(Ops.A.data(), Ops.B.data(), Ops.C.data(), Case.M, Case.K, Case.N);
    benchmark::DoNotOptimize(Ops.C.data());
    benchmark::ClobberMemory();
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * Case.M * Case.K * Case.N * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK_CAPTURE(BM_Gemm, accum_1x64x192, GemmCases[0]);
BENCHMARK_CAPTURE(BM_Gemm, nt_1x64x4096, GemmCases[1]);
BENCHMARK_CAPTURE(BM_Gemm, accum_48x64x192, GemmCases[2]);
BENCHMARK_CAPTURE(BM_Gemm, nt_48x64x192, GemmCases[3]);
BENCHMARK_CAPTURE(BM_Gemm, ntaccum_48x192x64, GemmCases[4]);
BENCHMARK_CAPTURE(BM_Gemm, tnaccum_48x64x192, GemmCases[5]);

/// How many distinct sources a decode benchmark cycles through: more than
/// the encoder memo's 2 MiB ring holds at DModel 64 (about 2,000 sources
/// of 4 tokens, 500 of 16), so every decode runs the encoder.
constexpr size_t RotatedSources = 4096;

/// \p Count distinct sources of \p Len >= 4 tokens: [CLS], then words whose
/// first three spell the source's index in base Words.size().
std::vector<std::vector<int>> distinctSources(int ClsId,
                                              const std::vector<int> &Words,
                                              size_t Len, size_t Count) {
  std::vector<std::vector<int>> Srcs;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<int> Src = {ClsId};
    size_t Code = I;
    while (Src.size() < Len) {
      Src.push_back(Words[(Code + Src.size() * 7) % Words.size()]);
      Code /= Words.size();
    }
    Srcs.push_back(std::move(Src));
  }
  return Srcs;
}

/// A synthetic decode workload: an untrained (but deterministically seeded)
/// CodeBE plus a 40-step decode plan that pins one admissible token per
/// position, so every generate() emits exactly 40 tokens regardless of the
/// random weights. Stage3Plan has Stage 3's shape instead: the confidence
/// buckets, two pinned skeleton tokens, one placeholder choosing among six
/// candidates (one biased), then a pinned tail — 9 tokens, none of them
/// [EOS]. OnePin pins a single confidence bucket. Sources up to 48 tokens
/// encode untruncated; the decode benchmarks cycle through Srcs.
struct DecodeFixture {
  Vocab V;
  std::vector<int> Words;
  std::unique_ptr<CodeBE> Model;
  std::vector<std::vector<int>> Srcs; ///< RotatedSources of 4 tokens
  size_t Next = 0;
  CodeBE::DecodePlan Plan;
  int Tokens = 0;
  CodeBE::DecodePlan Stage3Plan;
  CodeBE::DecodePlan OnePin;

  DecodeFixture() {
    for (int I = 0; I < 40; ++I)
      Words.push_back(V.addToken("tok" + std::to_string(I)));
    CodeBEConfig C;
    C.MaxSrcLen = 48;
    C.MaxDstLen = 48;
    Model = std::make_unique<CodeBE>(V, C);
    Srcs = distinctSources(V.clsId(), Words, 4, RotatedSources);
    Plan.Steps.push_back({V.csId(20)});
    for (int I = 0; I < 39; ++I)
      Plan.Steps.push_back({Words[static_cast<size_t>(I)]});
    Tokens = static_cast<int>(Plan.Steps.size());

    Stage3Plan.Steps.emplace_back();
    for (int B = 0; B < Vocab::NumCsBuckets; ++B)
      Stage3Plan.Steps.back().push_back(V.csId(B));
    Stage3Plan.Steps.push_back({Words[20]});
    Stage3Plan.Steps.push_back({Words[21]});
    Stage3Plan.Steps.push_back(
        {Words[3], Words[7], Words[11], Words[12], Words[13], Words[14]});
    for (int I = 22; I < 27; ++I)
      Stage3Plan.Steps.push_back({Words[static_cast<size_t>(I)]});
    Stage3Plan.Bias.resize(Stage3Plan.Steps.size());
    Stage3Plan.Bias[3][Words[12]] = 1.5f;

    OnePin.Steps.push_back({V.csId(20)});
  }

  static DecodeFixture &instance() {
    static DecodeFixture F;
    return F;
  }

  /// The next source of the rotation.
  const std::vector<int> &src() { return Srcs[Next++ % Srcs.size()]; }
};

void BM_DecodeFullRecompute(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(F.src(), nullptr, &F.Plan));
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  State.SetItemsProcessed(State.iterations() * F.Tokens);
}
BENCHMARK(BM_DecodeFullRecompute);

void BM_DecodeKVCache(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(F.src(), nullptr, &F.Plan));
  State.SetItemsProcessed(State.iterations() * F.Tokens);
}
BENCHMARK(BM_DecodeKVCache);

/// The Stage-3 decode as generation runs it: no probabilities, so only the
/// admissible columns are scored and the pinned tail runs no decoder pass.
void BM_DecodeStage3Plan(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(F.src(), nullptr, &F.Stage3Plan,
                                               /*WithProbs=*/false));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(F.Stage3Plan.Steps.size()));
}
BENCHMARK(BM_DecodeStage3Plan);

/// One Stage-3 row's encoder work: a decode under a one-position pinned
/// plan runs the encoder over a source of Arg tokens and projects the
/// cross-attention keys and values, but no decoder pass (nothing follows
/// the pin). 16, 28 and 41 tokens bracket the sources Stage 3 encodes.
void BM_EncodeSource(benchmark::State &State) {
  DecodeFixture &F = DecodeFixture::instance();
  F.Model->setDecodeMode(CodeBE::DecodeMode::KVCache);
  const std::vector<std::vector<int>> Srcs =
      distinctSources(F.V.clsId(), F.Words,
                      static_cast<size_t>(State.range(0)), RotatedSources);
  size_t I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Model->generate(Srcs[I++ % Srcs.size()],
                                               nullptr, &F.OnePin,
                                               /*WithProbs=*/false));
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EncodeSource)->Arg(16)->Arg(28)->Arg(41);

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
  F.Model->generate(F.src(), nullptr, &F.Plan); // warm-up
  int Reps = 1;
  double Result = 0.0;
  for (;;) {
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I)
      benchmark::DoNotOptimize(F.Model->generate(F.src(), nullptr, &F.Plan));
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

/// Empties the encoder memo through the weights path (a round trip of the
/// model's own weights) and rebuilds the inference cache that it also
/// marks stale, so the next timed generation starts cold.
void emptyEncodeMemo(VegaSystem &Sys) {
  CodeBE &Model = *Sys.model();
  if (!Model.loadWeights(Model.saveWeights()))
    std::fprintf(stderr, "warning: weight round trip failed\n");
  Model.prepareGenerate();
}

/// One end-to-end Stage-3 wall time on the shared trained system, from an
/// empty encoder memo.
double timeGenerateBackend(VegaSystem &Sys, CodeBE::DecodeMode Mode,
                           int Jobs) {
  Sys.model()->setDecodeMode(Mode);
  Sys.setJobs(Jobs);
  emptyEncodeMemo(Sys);
  auto T0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(Sys.generateBackend("RISCV"));
  return secondsSince(T0);
}

/// One pass over every corpus target at --jobs=1: its wall time and the
/// share of its encodes that the encoder memo served.
struct MemoPass {
  double Seconds = 0.0;
  double HitRatio = 0.0;
};

MemoPass timeAllTargets(VegaSystem &Sys) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::instance();
  const uint64_t H0 = Metrics.counterValue("model.encode_memo_hits");
  const uint64_t M0 = Metrics.counterValue("model.encode_memo_misses");
  auto T0 = std::chrono::steady_clock::now();
  for (const TargetTraits &T : Sys.corpus().targets().targets())
    benchmark::DoNotOptimize(Sys.generateBackend(T.Name));
  MemoPass P;
  P.Seconds = secondsSince(T0);
  const double Hits = static_cast<double>(
      Metrics.counterValue("model.encode_memo_hits") - H0);
  const double Misses = static_cast<double>(
      Metrics.counterValue("model.encode_memo_misses") - M0);
  P.HitRatio = Hits + Misses > 0.0 ? Hits / (Hits + Misses) : 0.0;
  return P;
}

/// Writes \p Doc to \p Path; returns the process exit code.
int writeReport(const std::string &Path, const Json &Doc) {
  std::ofstream Out(Path);
  if (!Out || !(Out << Doc.dump(2) << '\n')) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return 0;
}

int writeInferenceReport(const std::string &Path) {
  std::fprintf(stderr, "measuring GEMM kernels...\n");
  GemmOperands Ops(GemmM, GemmK, GemmN);
  const double Flops = 2.0 * GemmM * GemmK * GemmN;
  double NaiveGflops = measureGflops(Flops, [&] {
    naiveGemm(Ops.A.data(), Ops.B.data(), Ops.C.data(), GemmM, GemmK, GemmN);
    benchmark::DoNotOptimize(Ops.C.data());
  });
  double KernelGflops = measureGflops(Flops, [&] {
    detail::gemmAccum(Ops.A.data(), Ops.B.data(), Ops.C.data(), GemmM, GemmK,
                      GemmN);
    benchmark::DoNotOptimize(Ops.C.data());
  });
  Json Kernels = Json::array();
  for (const GemmCase &Case : GemmCases) {
    GemmOperands CaseOps(Case.M, Case.K, Case.N);
    Json K = Json::object();
    K.set("kernel", Case.Kernel);
    K.set("use", Case.Use);
    K.set("m", Case.M);
    K.set("k", Case.K);
    K.set("n", Case.N);
    K.set("gflops", measureGflops(2.0 * Case.M * Case.K * Case.N, [&] {
            Case.Fn(CaseOps.A.data(), CaseOps.B.data(), CaseOps.C.data(),
                    Case.M, Case.K, Case.N);
            benchmark::DoNotOptimize(CaseOps.C.data());
          }));
    Kernels.push(std::move(K));
  }

  std::fprintf(stderr, "measuring decode throughput...\n");
  double FullTps = measureDecodeTokensPerSec(CodeBE::DecodeMode::FullRecompute);
  double KVTps = measureDecodeTokensPerSec(CodeBE::DecodeMode::KVCache);

  std::fprintf(stderr, "measuring end-to-end generateBackend...\n");
  VegaSystem &Sys = bench::system();
  // Baseline = what Stage 3 did before this engine existed: serial decode
  // with full prefix recomputation (the GEMM kernels are the same code in
  // both paths, so the end-to-end ratio isolates KV cache + pool).
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

  std::fprintf(stderr, "measuring the encoder memo over every target...\n");
  // The counters the hit ratio reads count only while metrics are on.
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::instance();
  const bool MetricsWereOn = Metrics.enabled();
  Metrics.setEnabled(true);
  Sys.model()->setDecodeMode(CodeBE::DecodeMode::KVCache);
  Sys.setJobs(1);
  emptyEncodeMemo(Sys);
  const MemoPass First = timeAllTargets(Sys);
  const MemoPass Second = timeAllTargets(Sys);
  Metrics.setEnabled(MetricsWereOn);

  Json Doc = Json::object();
  Doc.set("schema", "vega-inference-bench-5");
  Doc.set("host", bench::hostInfo());
  Json Gemm = Json::object();
  Gemm.set("m", GemmM);
  Gemm.set("k", GemmK);
  Gemm.set("n", GemmN);
  Gemm.set("naive_gflops", NaiveGflops);
  Gemm.set("kernel_gflops", KernelGflops);
  Gemm.set("speedup", KernelGflops / NaiveGflops);
  Doc.set("gemm", std::move(Gemm));
  Doc.set("kernels", std::move(Kernels));
  Json Decode = Json::object();
  Decode.set("tokens", DecodeFixture::instance().Tokens);
  Decode.set("full_recompute_tokens_per_sec", FullTps);
  Decode.set("kv_cache_tokens_per_sec", KVTps);
  Decode.set("speedup", KVTps / FullTps);
  Doc.set("decode", std::move(Decode));
  Json Gen = Json::object();
  Gen.set("target", "RISCV");
  Gen.set("epochs", bench::defaultEpochs());
  Gen.set("baseline_serial_full_recompute_sec", BaselineSec);
  Gen.set("jobs1_sec", Jobs1Sec);
  Gen.set("jobs4_sec", Jobs4Sec);
  Gen.set("speedup_jobs1_vs_baseline", BaselineSec / Jobs1Sec);
  Gen.set("speedup_jobs4_vs_baseline", BaselineSec / Jobs4Sec);
  Doc.set("generate_backend", std::move(Gen));
  Json Memo = Json::object();
  Memo.set("targets",
           static_cast<uint64_t>(Sys.corpus().targets().targets().size()));
  Memo.set("jobs", 1);
  Memo.set("first_pass_sec", First.Seconds);
  Memo.set("first_pass_hit_ratio", First.HitRatio);
  Memo.set("second_pass_sec", Second.Seconds);
  Memo.set("second_pass_hit_ratio", Second.HitRatio);
  Doc.set("encode_memo", std::move(Memo));
  return writeReport(Path, Doc);
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

  Json Doc = Json::object();
  Doc.set("schema", "vega-training-bench-2");
  Doc.set("host", bench::hostInfo());
  Json Train = Json::object();
  Train.set("examples", static_cast<uint64_t>(F.Data.size()));
  Train.set("epochs", F.C.Epochs);
  Train.set("batch_size", F.C.BatchSize);
  Train.set("jobs1_examples_per_sec", Jobs1Rate);
  Train.set("jobs4_examples_per_sec", Jobs4Rate);
  Train.set("speedup_jobs4_vs_jobs1", Jobs4Rate / Jobs1Rate);
  Train.set("weights_identical_jobs1_vs_jobs4", WeightsIdentical);
  Doc.set("train", std::move(Train));
  return writeReport(Path, Doc);
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
