//===- tests/ModelTest.cpp - vega_model unit tests ------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/Autograd.h"
#include "model/CodeBE.h"
#include "model/Trainer.h"
#include "model/Vocab.h"
#include "obs/Metrics.h"
#include "support/BinaryIO.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

using namespace vega;

namespace {

/// Finite-difference gradient check: perturb each parameter entry and
/// compare the numeric derivative with the autograd one.
void checkGradient(const std::function<TensorPtr()> &Loss,
                   const TensorPtr &Param, float Tolerance = 2e-2f) {
  Param->ensureGrad();
  Param->zeroGrad(); // clear accumulation from earlier checks
  TensorPtr L = Loss();
  backward(L);
  std::vector<float> Analytic = Param->Grad;
  const float Eps = 1e-3f;
  for (size_t I = 0; I < std::min<size_t>(Param->Data.size(), 8); ++I) {
    float Saved = Param->Data[I];
    Param->Data[I] = Saved + Eps;
    float Up = Loss()->Data[0];
    Param->Data[I] = Saved - Eps;
    float Down = Loss()->Data[0];
    Param->Data[I] = Saved;
    float Numeric = (Up - Down) / (2 * Eps);
    EXPECT_NEAR(Analytic[I], Numeric,
                Tolerance * std::max(1.0f, std::fabs(Numeric)))
        << "entry " << I;
    Param->zeroGrad();
  }
}

} // namespace

TEST(Autograd, MatmulForward) {
  TensorPtr A = makeTensor(2, 3), B = makeTensor(3, 2);
  for (int I = 0; I < 6; ++I) {
    A->Data[static_cast<size_t>(I)] = static_cast<float>(I + 1);
    B->Data[static_cast<size_t>(I)] = static_cast<float>(I % 3);
  }
  TensorPtr C = matmul(A, B);
  // A = [1 2 3; 4 5 6], B = [0 1; 2 0; 1 2] → C = [7 7; 16 16].
  EXPECT_FLOAT_EQ(C->at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(C->at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(C->at(1, 0), 16.0f);
  EXPECT_FLOAT_EQ(C->at(1, 1), 16.0f);
}

TEST(Autograd, MatmulGradient) {
  TensorPtr A = makeParam(3, 4, 0.5f, 1);
  TensorPtr B = makeParam(4, 2, 0.5f, 2);
  std::vector<int> Targets = {1, 0, 1};
  auto Loss = [&] { return crossEntropy(matmul(A, B), Targets); };
  checkGradient(Loss, A);
  checkGradient(Loss, B);
}

TEST(Autograd, MatmulNTGradient) {
  TensorPtr A = makeParam(2, 4, 0.5f, 3);
  TensorPtr B = makeParam(5, 4, 0.5f, 4);
  std::vector<int> Targets = {3, 0};
  auto Loss = [&] { return crossEntropy(matmulNT(A, B), Targets); };
  checkGradient(Loss, A);
  checkGradient(Loss, B);
}

TEST(Autograd, LayerNormGradient) {
  TensorPtr X = makeParam(2, 6, 1.0f, 5);
  TensorPtr G = makeParam(1, 6, 0.5f, 6);
  TensorPtr Bt = makeParam(1, 6, 0.5f, 7);
  TensorPtr W = makeParam(6, 3, 0.5f, 8);
  std::vector<int> Targets = {0, 2};
  auto Loss = [&] {
    return crossEntropy(matmul(layerNorm(X, G, Bt), W), Targets);
  };
  checkGradient(Loss, X);
  checkGradient(Loss, G);
  checkGradient(Loss, Bt);
}

TEST(Autograd, SoftmaxGradient) {
  TensorPtr X = makeParam(2, 5, 1.0f, 9);
  TensorPtr W = makeParam(5, 3, 0.5f, 10);
  std::vector<int> Targets = {1, 2};
  auto Loss = [&] {
    return crossEntropy(matmul(softmaxRows(X), W), Targets);
  };
  checkGradient(Loss, X);
}

TEST(Autograd, GatherAndSliceGradients) {
  TensorPtr E = makeParam(6, 4, 0.8f, 11);
  std::vector<int> Ids = {2, 0, 2};
  TensorPtr W = makeParam(2, 3, 0.5f, 12);
  std::vector<int> Targets = {0, 1, 2};
  auto Loss = [&] {
    TensorPtr G = gatherRows(E, Ids);
    TensorPtr S = sliceCols(G, 1, 2);
    return crossEntropy(matmul(S, W), Targets);
  };
  checkGradient(Loss, E);
}

TEST(Autograd, ReluAndScaleGradients) {
  TensorPtr X = makeParam(3, 4, 1.0f, 13);
  TensorPtr W = makeParam(4, 2, 0.5f, 14);
  std::vector<int> Targets = {0, 1, 0};
  auto Loss = [&] {
    return crossEntropy(matmul(scale(relu(X), 1.5f), W), Targets);
  };
  checkGradient(Loss, X);
}

TEST(Autograd, CopyScatterGradient) {
  TensorPtr A = makeParam(2, 3, 0.7f, 15);
  std::vector<int> SrcIds = {4, 1, 4};
  std::vector<int> Targets = {4, 1};
  auto Loss = [&] {
    return crossEntropy(copyScatter(softmaxRows(A), SrcIds, 6), Targets);
  };
  checkGradient(Loss, A);
}

TEST(Autograd, SparseMixGradient) {
  TensorPtr E = makeParam(5, 4, 0.6f, 16);
  std::vector<std::vector<int>> Lists = {{0, 1}, {2}, {}};
  TensorPtr W = makeParam(4, 2, 0.5f, 17);
  std::vector<int> Targets = {0, 1, 0};
  auto Loss = [&] {
    return crossEntropy(matmul(sparseMix(E, Lists), W), Targets);
  };
  checkGradient(Loss, E);
}

TEST(Autograd, AdamReducesLoss) {
  TensorPtr W = makeParam(4, 3, 0.5f, 18);
  TensorPtr X = makeTensor(2, 4);
  // Well-separated inputs so 50 Adam steps suffice.
  X->at(0, 0) = 1.0f;
  X->at(0, 1) = -0.5f;
  X->at(1, 2) = 1.0f;
  X->at(1, 3) = -0.5f;
  std::vector<int> Targets = {2, 0};
  AdamOptimizer Opt({W}, 0.05f);
  float First = 0.0f, Last = 0.0f;
  for (int Step = 0; Step < 50; ++Step) {
    TensorPtr Loss = crossEntropy(matmul(X, W), Targets);
    if (Step == 0)
      First = Loss->Data[0];
    Last = Loss->Data[0];
    backward(Loss);
    Opt.step();
  }
  EXPECT_LT(Last, First * 0.2f);
}

TEST(Autograd, NoGradOpsRecordNoTape) {
  // Under a NoGradGuard every op returns a plain value: no parents, no
  // backward closure, RequiresGrad == false, and the same bits as the
  // taped op.
  TensorPtr A = makeParam(3, 4, 0.5f, 31), A2 = makeParam(3, 4, 0.5f, 32);
  TensorPtr B = makeParam(4, 4, 0.5f, 33), Row = makeParam(1, 4, 0.5f, 34);
  TensorPtr S = makeParam(1, 1, 0.5f, 35), Gamma = makeParam(1, 4, 0.5f, 36);
  TensorPtr Beta = makeParam(1, 4, 0.5f, 37);
  const std::pair<const char *, std::function<TensorPtr()>> Ops[] = {
      {"matmul", [&] { return matmul(A, B); }},
      {"matmulNT", [&] { return matmulNT(A, B); }},
      {"add", [&] { return add(A, A2); }},
      {"addRow", [&] { return addRow(A, Row); }},
      {"scale", [&] { return scale(A, 0.5f); }},
      {"scaleByScalar", [&] { return scaleByScalar(A, S); }},
      {"relu", [&] { return relu(A); }},
      {"softmaxRows", [&] { return softmaxRows(A); }},
      {"layerNorm", [&] { return layerNorm(A, Gamma, Beta); }},
      {"gatherRows", [&] { return gatherRows(B, {2, 0, 2}); }},
      {"sliceCols", [&] { return sliceCols(A, 1, 2); }},
      {"concatCols", [&] { return concatCols({A, A2}); }},
      {"copyScatter", [&] { return copyScatter(A, {3, 1, 3, 0}, 6); }},
      {"sparseMix", [&] { return sparseMix(B, {{0, 1}, {}, {3}}); }},
      {"crossEntropy", [&] { return crossEntropy(A, {0, 3, 1}); }},
  };
  for (const auto &[Name, Op] : Ops) {
    TensorPtr Taped = Op();
    EXPECT_TRUE(Taped->RequiresGrad) << Name;
    EXPECT_FALSE(Taped->Parents.empty()) << Name;
    EXPECT_TRUE(Taped->Backward) << Name;
    TensorPtr Plain;
    {
      NoGradGuard Guard;
      Plain = Op();
    }
    EXPECT_FALSE(Plain->RequiresGrad) << Name;
    EXPECT_TRUE(Plain->Parents.empty()) << Name;
    EXPECT_FALSE(Plain->Backward) << Name;
    ASSERT_EQ(Plain->Data.size(), Taped->Data.size()) << Name;
    EXPECT_EQ(0, std::memcmp(Plain->Data.data(), Taped->Data.data(),
                             Plain->Data.size() * sizeof(float)))
        << Name;
  }
}

// ---- GEMM kernels vs naive loops, byte for byte ----

namespace {

// The naive loops the detail::gemm* kernels must reproduce bit for bit.
// Each product is its own statement, so no compiler contracts it into a
// fused multiply-add.

void refGemmAccum(const float *A, const float *B, float *C, int M, int K,
                  int N) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J) {
      float Acc = C[I * N + J];
      for (int P = 0; P < K; ++P) {
        if (A[I * K + P] == 0.0f)
          continue;
        const float Prod = A[I * K + P] * B[P * N + J];
        Acc += Prod;
      }
      C[I * N + J] = Acc;
    }
}

void refGemmNTInto(const float *A, const float *B, float *C, int M, int K,
                   int N, bool AddToC) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P) {
        const float Prod = A[I * K + P] * B[J * K + P];
        Acc += Prod;
      }
      C[I * N + J] = AddToC ? C[I * N + J] + Acc : Acc;
    }
}

void refGemmNT(const float *A, const float *B, float *C, int M, int K,
               int N) {
  refGemmNTInto(A, B, C, M, K, N, /*AddToC=*/false);
}

void refGemmNTAccum(const float *A, const float *B, float *C, int M, int K,
                    int N) {
  refGemmNTInto(A, B, C, M, K, N, /*AddToC=*/true);
}

void refGemmTNAccum(const float *A, const float *G, float *C, int M, int K,
                    int N) {
  for (int R = 0; R < K; ++R)
    for (int J = 0; J < N; ++J) {
      float Acc = C[R * N + J];
      for (int I = 0; I < M; ++I) {
        if (A[I * K + R] == 0.0f)
          continue;
        const float Prod = A[I * K + R] * G[I * N + J];
        Acc += Prod;
      }
      C[R * N + J] = Acc;
    }
}

using GemmFn = void (*)(const float *, const float *, float *, int, int, int);

/// A seeded Rows×Cols operand with isolated zeros and -0.0f entries; with
/// \p ZeroBlocks also whole zero 4-blocks along each row.
std::vector<float> kernelOperand(int Rows, int Cols, uint64_t Seed,
                                 bool ZeroBlocks) {
  RNG Rng(Seed);
  std::vector<float> V(static_cast<size_t>(Rows) * Cols);
  for (float &X : V) {
    X = static_cast<float>(Rng.nextDouble(-2.0, 2.0));
    double U = Rng.nextDouble();
    if (U < 0.05)
      X = 0.0f;
    else if (U < 0.08)
      X = -0.0f;
  }
  if (ZeroBlocks)
    for (int R = 0; R < Rows; ++R)
      for (int P = 0; P + 4 <= Cols; P += 4)
        if (Rng.nextBool(0.1))
          std::fill_n(V.begin() + static_cast<size_t>(R) * Cols + P, 4, 0.0f);
  return V;
}

/// Runs \p Kernel and \p Ref over every test shape on copies of the same
/// operands (B is BRows×BCols, C is CRows×CCols, both as functions of M, K,
/// N) and expects byte-identical outputs. C starts non-zero, so the
/// accumulating kernels are checked from a live C and gemmNT must
/// overwrite every element.
template <typename BShape, typename CShape>
void expectKernelMatchesReference(const char *Name, GemmFn Kernel, GemmFn Ref,
                                  BShape BDims, CShape CDims) {
  const int Ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 25, 48};
  const int Ks[] = {1, 3, 8, 16, 17, 64, 65};
  const int Ns[] = {1, 7, 8, 9, 16, 17, 31, 32, 33, 64, 192, 257};
  int Mismatches = 0;
  for (int M : Ms)
    for (int K : Ks)
      for (int N : Ns) {
        const uint64_t Seed = static_cast<uint64_t>(M) * 1000003u +
                              static_cast<uint64_t>(K) * 1009u +
                              static_cast<uint64_t>(N);
        auto [BR, BC] = BDims(M, K, N);
        auto [CR, CC] = CDims(M, K, N);
        std::vector<float> A = kernelOperand(M, K, Seed, /*ZeroBlocks=*/true);
        std::vector<float> B = kernelOperand(BR, BC, Seed + 1, false);
        std::vector<float> Want = kernelOperand(CR, CC, Seed + 2, false);
        std::vector<float> Got = Want;
        Kernel(A.data(), B.data(), Got.data(), M, K, N);
        Ref(A.data(), B.data(), Want.data(), M, K, N);
        if (std::memcmp(Got.data(), Want.data(),
                        Want.size() * sizeof(float)) != 0 &&
            ++Mismatches <= 5) {
          ADD_FAILURE() << Name << " differs from the naive loop at M=" << M
                        << " K=" << K << " N=" << N;
        }
      }
  EXPECT_EQ(Mismatches, 0) << Name;
}

} // namespace

TEST(Kernels, GemmAccumMatchesNaiveLoop) {
  expectKernelMatchesReference(
      "gemmAccum", detail::gemmAccum, refGemmAccum,
      [](int, int K, int N) { return std::pair(K, N); },
      [](int M, int, int N) { return std::pair(M, N); });
}

TEST(Kernels, GemmNTMatchesNaiveLoop) {
  expectKernelMatchesReference(
      "gemmNT", detail::gemmNT, refGemmNT,
      [](int, int K, int N) { return std::pair(N, K); },
      [](int M, int, int N) { return std::pair(M, N); });
}

TEST(Kernels, GemmNTAccumMatchesNaiveLoop) {
  expectKernelMatchesReference(
      "gemmNTAccum", detail::gemmNTAccum, refGemmNTAccum,
      [](int, int K, int N) { return std::pair(N, K); },
      [](int M, int, int N) { return std::pair(M, N); });
}

TEST(Kernels, GemmTNAccumMatchesNaiveLoop) {
  expectKernelMatchesReference(
      "gemmTNAccum", detail::gemmTNAccum, refGemmTNAccum,
      [](int M, int, int N) { return std::pair(M, N); },
      [](int, int K, int N) { return std::pair(K, N); });
}

TEST(Kernels, ZeroSkipNeverMultipliesInf) {
  // gemmAccum and gemmTNAccum skip the step of a zero A entry, so an inf
  // on the other side of it cannot turn into NaN. gemmNT and gemmNTAccum
  // skip nothing: the same 0·inf is NaN, exactly as in the naive loop.
  const float Inf = std::numeric_limits<float>::infinity();
  auto NoNaN = [](const std::vector<float> &V) {
    return std::none_of(V.begin(), V.end(),
                        [](float X) { return std::isnan(X); });
  };
  auto SameBytes = [](const std::vector<float> &X,
                      const std::vector<float> &Y) {
    return X.size() == Y.size() &&
           std::memcmp(X.data(), Y.data(), X.size() * sizeof(float)) == 0;
  };
  for (int M : {1, 5, 9})
    for (int K : {5, 17})
      for (int N : {9, 64, 70}) {
        SCOPED_TRACE(::testing::Message()
                     << "M=" << M << " K=" << K << " N=" << N);
        const uint64_t Seed = static_cast<uint64_t>(M * 100 + K * 10 + N);
        // A's column 2 cycles through +0, -0 and a non-zero value; every
        // other entry is non-zero.
        std::vector<float> A(static_cast<size_t>(M) * K);
        for (size_t I = 0; I < A.size(); ++I)
          A[I] = 0.25f + static_cast<float>(I % 7) * 0.125f;
        for (int I = 0; I < M; ++I)
          A[static_cast<size_t>(I) * K + 2] =
              I % 3 == 0 ? 0.0f : (I % 3 == 1 ? -0.0f : 0.5f);

        // gemmAccum: row 2 of B is inf, met by column 2 of A.
        std::vector<float> B = kernelOperand(K, N, Seed, false);
        std::fill_n(B.begin() + 2 * N, N, Inf);
        std::vector<float> Got = kernelOperand(M, N, Seed + 1, false);
        std::vector<float> Want = Got;
        detail::gemmAccum(A.data(), B.data(), Got.data(), M, K, N);
        refGemmAccum(A.data(), B.data(), Want.data(), M, K, N);
        EXPECT_TRUE(NoNaN(Got)) << "gemmAccum formed 0*inf";
        EXPECT_TRUE(SameBytes(Got, Want)) << "gemmAccum";
        for (int I = 0; I < M; ++I) {
          if (I % 3 == 2) // the rows whose A[i][2] is not a zero
            continue;
          for (int J = 0; J < N; ++J)
            EXPECT_TRUE(std::isfinite(Got[static_cast<size_t>(I) * N + J]));
        }

        // gemmTNAccum: row 0 of G is inf; row 0 of A is a zero in every
        // even column, so the even rows of C skip it.
        std::vector<float> A0 = A;
        for (int R = 0; R < K; ++R)
          A0[static_cast<size_t>(R)] =
              R % 2 == 0 ? (R % 4 == 0 ? 0.0f : -0.0f) : 0.75f;
        std::vector<float> G = kernelOperand(M, N, Seed + 2, false);
        std::fill_n(G.begin(), N, Inf);
        Got = kernelOperand(K, N, Seed + 3, false);
        Want = Got;
        detail::gemmTNAccum(A0.data(), G.data(), Got.data(), M, K, N);
        refGemmTNAccum(A0.data(), G.data(), Want.data(), M, K, N);
        EXPECT_TRUE(NoNaN(Got)) << "gemmTNAccum formed 0*inf";
        EXPECT_TRUE(SameBytes(Got, Want)) << "gemmTNAccum";
        for (int R = 0; R < K; R += 2)
          for (int J = 0; J < N; ++J)
            EXPECT_TRUE(std::isfinite(Got[static_cast<size_t>(R) * N + J]));

        // gemmNT / gemmNTAccum: row 2 of B is inf against A's column 2.
        std::vector<float> BT = kernelOperand(N, K, Seed + 4, false);
        for (int P = 0; P < K; ++P)
          BT[2 * static_cast<size_t>(K) + P] = Inf;
        for (GemmFn Fn : {detail::gemmNT, detail::gemmNTAccum}) {
          GemmFn Ref = Fn == detail::gemmNT ? refGemmNT : refGemmNTAccum;
          Got = kernelOperand(M, N, Seed + 5, false);
          Want = Got;
          Fn(A.data(), BT.data(), Got.data(), M, K, N);
          Ref(A.data(), BT.data(), Want.data(), M, K, N);
          EXPECT_TRUE(std::isnan(Got[2])) << "row 0 meets 0*inf";
          EXPECT_TRUE(SameBytes(Got, Want));
        }
      }
}

TEST(Kernels, AttendRowMatchesAttentionOps) {
  // attendRow reads a window split into segments in place; it must give
  // the bytes of the ops the decode step ran over the assembled window, per
  // head: matmulNT -> scale -> softmaxRows -> matmul, then concatCols. Every
  // window length 1-48 is split into segments of varied sizes (the prefix
  // nodes a beam forks), and some key rows are scaled up so that the
  // softmax weights of the others underflow to exactly 0.
  struct Shape {
    int D, Heads;
  };
  const Shape Shapes[] = {{64, 4}, {24, 2}, {8, 1}, {20, 1}, {36, 3}};
  int Mismatches = 0, Underflows = 0;
  for (const Shape &Sh : Shapes)
    for (int Len = 1; Len <= 48; ++Len) {
      const int D = Sh.D, Dk = D / Sh.Heads;
      const uint64_t Seed = static_cast<uint64_t>(Len) * 1009u +
                            static_cast<uint64_t>(D) * 31u + Sh.Heads;
      TensorPtr Q = makeTensor(1, D), K = makeTensor(Len, D),
                V = makeTensor(Len, D);
      Q->Data = kernelOperand(1, D, Seed, false);
      K->Data = kernelOperand(Len, D, Seed + 1, false);
      V->Data = kernelOperand(Len, D, Seed + 2, false);
      RNG Rng(Seed + 3);
      for (int J = 0; J < Len; ++J)
        if (Rng.nextBool(0.2))
          for (int C = 0; C < D; ++C)
            K->at(J, C) *= 60.0f;
      const float Scale = 1.0f / std::sqrt(static_cast<float>(Dk));

      std::vector<TensorPtr> Heads;
      for (int H = 0; H < Sh.Heads; ++H) {
        TensorPtr A = softmaxRows(
            scale(matmulNT(sliceCols(Q, H * Dk, Dk), sliceCols(K, H * Dk, Dk)),
                  Scale));
        Underflows += static_cast<int>(
            std::count(A->Data.begin(), A->Data.end(), 0.0f));
        Heads.push_back(matmul(A, sliceCols(V, H * Dk, Dk)));
      }
      TensorPtr Want = concatCols(Heads);

      // Each segment in its own buffer, as prefix nodes are.
      std::vector<std::vector<float>> KBufs, VBufs;
      std::vector<detail::KVSegment> Segs;
      for (int Row = 0; Row < Len;) {
        const int Rows = std::min(Len - Row, 1 + static_cast<int>(
                                                    Rng.nextBelow(11)));
        KBufs.emplace_back(K->Data.begin() + Row * D,
                           K->Data.begin() + (Row + Rows) * D);
        VBufs.emplace_back(V->Data.begin() + Row * D,
                           V->Data.begin() + (Row + Rows) * D);
        Row += Rows;
      }
      for (size_t S = 0; S < KBufs.size(); ++S)
        Segs.push_back({KBufs[S].data(), VBufs[S].data(),
                        static_cast<int>(KBufs[S].size()) / D});
      std::vector<float> Got(static_cast<size_t>(D), 1.0f);
      detail::attendRow(Q->Data.data(), Segs.data(),
                        static_cast<int>(Segs.size()), D, Sh.Heads, Scale,
                        Got.data());
      if (std::memcmp(Got.data(), Want->Data.data(), Got.size() * 4) != 0 &&
          ++Mismatches <= 5)
        ADD_FAILURE() << "attendRow differs at D=" << D
                      << " heads=" << Sh.Heads << " len=" << Len << " in "
                      << Segs.size() << " segments";
    }
  EXPECT_EQ(Mismatches, 0);
  EXPECT_GT(Underflows, 0) << "no softmax weight underflowed to 0";
}

// ---- Forward ops vs the scalar loops they replaced, byte for byte ----

namespace {

// The scalar forward bodies the vectorized kernels must reproduce bit for
// bit. As in the GEMM references, a product that feeds an add is its own
// statement, so no compiler contracts it into a fused multiply-add.

std::vector<float> refAdd(const Tensor &A, const Tensor &B) {
  std::vector<float> Out(A.size());
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = A.Data[I] + B.Data[I];
  return Out;
}

std::vector<float> refAddRow(const Tensor &A, const Tensor &B) {
  std::vector<float> Out(A.size());
  for (int I = 0; I < A.Rows; ++I)
    for (int J = 0; J < A.Cols; ++J)
      Out[static_cast<size_t>(I) * A.Cols + J] =
          A.at(I, J) + B.Data[static_cast<size_t>(J)];
  return Out;
}

std::vector<float> refScale(const Tensor &A, float Factor) {
  std::vector<float> Out(A.size());
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = A.Data[I] * Factor;
  return Out;
}

std::vector<float> refRelu(const Tensor &A) {
  std::vector<float> Out(A.size());
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = A.Data[I] > 0.0f ? A.Data[I] : 0.0f;
  return Out;
}

std::vector<float> refSoftmaxRows(const Tensor &A, const Tensor *Mask) {
  std::vector<float> Out(A.size());
  auto O = [&](int I, int J) -> float & {
    return Out[static_cast<size_t>(I) * A.Cols + J];
  };
  for (int I = 0; I < A.Rows; ++I) {
    float Max = -1e30f;
    for (int J = 0; J < A.Cols; ++J) {
      float V = A.at(I, J) + (Mask ? Mask->at(I, J) : 0.0f);
      Max = std::max(Max, V);
    }
    float Sum = 0.0f;
    for (int J = 0; J < A.Cols; ++J) {
      float V = A.at(I, J) + (Mask ? Mask->at(I, J) : 0.0f);
      float E = std::exp(V - Max);
      O(I, J) = E;
      Sum += E;
    }
    for (int J = 0; J < A.Cols; ++J)
      O(I, J) /= Sum;
  }
  return Out;
}

std::vector<float> refLayerNorm(const Tensor &X, const Tensor &Gamma,
                                const Tensor &Beta) {
  std::vector<float> Out(X.size());
  const int C = X.Cols;
  for (int I = 0; I < X.Rows; ++I) {
    float Mu = 0.0f;
    for (int J = 0; J < C; ++J)
      Mu += X.at(I, J);
    Mu /= C;
    float Var = 0.0f;
    for (int J = 0; J < C; ++J) {
      float D = X.at(I, J) - Mu;
      const float Sq = D * D;
      Var += Sq;
    }
    Var /= C;
    float Inv = 1.0f / std::sqrt(Var + 1e-5f);
    for (int J = 0; J < C; ++J) {
      const float Scaled =
          (X.at(I, J) - Mu) * Inv * Gamma.Data[static_cast<size_t>(J)];
      Out[static_cast<size_t>(I) * C + J] =
          Scaled + Beta.Data[static_cast<size_t>(J)];
    }
  }
  return Out;
}

std::vector<float> refGatherRows(const Tensor &E, const std::vector<int> &Ids) {
  std::vector<float> Out(Ids.size() * static_cast<size_t>(E.Cols));
  for (size_t I = 0; I < Ids.size(); ++I)
    for (int J = 0; J < E.Cols; ++J)
      Out[I * E.Cols + J] = E.at(Ids[I], J);
  return Out;
}

std::vector<float> refSliceCols(const Tensor &A, int Start, int Count) {
  std::vector<float> Out(static_cast<size_t>(A.Rows) * Count);
  for (int I = 0; I < A.Rows; ++I)
    for (int J = 0; J < Count; ++J)
      Out[static_cast<size_t>(I) * Count + J] = A.at(I, Start + J);
  return Out;
}

std::vector<float> refConcatCols(const std::vector<TensorPtr> &Parts) {
  int Rows = Parts.front()->Rows, Cols = 0;
  for (const TensorPtr &P : Parts)
    Cols += P->Cols;
  std::vector<float> Out(static_cast<size_t>(Rows) * Cols);
  int Offset = 0;
  for (const TensorPtr &P : Parts) {
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < P->Cols; ++J)
        Out[static_cast<size_t>(I) * Cols + Offset + J] = P->at(I, J);
    Offset += P->Cols;
  }
  return Out;
}

std::vector<float> refSparseMix(const Tensor &E,
                                const std::vector<std::vector<int>> &Lists) {
  std::vector<float> Out(Lists.size() * static_cast<size_t>(E.Cols), 0.0f);
  for (size_t I = 0; I < Lists.size(); ++I) {
    if (Lists[I].empty())
      continue;
    float Inv = 1.0f / static_cast<float>(Lists[I].size());
    for (int P : Lists[I])
      for (int J = 0; J < E.Cols; ++J) {
        const float Piece = E.at(P, J) * Inv;
        Out[I * E.Cols + J] += Piece;
      }
  }
  return Out;
}

/// A seeded Rows×Cols operand (a leaf that requires grad when \p Taped):
/// values in [-2, 2) with ±0.0f and denormals mixed in, and each of
/// \p Specials at about 3% of the entries.
TensorPtr forwardOperand(int Rows, int Cols, uint64_t Seed, bool Taped,
                         const std::vector<float> &Specials) {
  TensorPtr T = makeTensor(Rows, Cols, Taped);
  RNG Rng(Seed);
  for (float &X : T->Data) {
    const double U = Rng.nextDouble();
    if (U < 0.04)
      X = 0.0f;
    else if (U < 0.08)
      X = -0.0f;
    else if (U < 0.12)
      X = static_cast<float>(Rng.nextDouble(-1e-38, 1e-38));
    else if (!Specials.empty() && U < 0.12 + 0.03 * Specials.size())
      X = Specials[Rng.nextBelow(Specials.size())];
    else
      X = static_cast<float>(Rng.nextDouble(-2.0, 2.0));
  }
  return T;
}

} // namespace

TEST(Kernels, ForwardOpsMatchScalarLoops) {
  // Every op is checked at row counts around the layerNorm four-row blocks
  // and column counts around the 8-wide vector tails, on a tape and under
  // a NoGradGuard. The elementwise ops, the row copies and sparseMix also
  // see NaN and ±inf. softmaxRows sees -inf (exp(-inf) is 0) and, in its
  // masked run, a causal -1e9 mask; layerNorm sees finite rows only.
  // Operands carry one NaN payload, so no result depends on which operand
  // of a commutative op the compiler loads first.
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> AllSpecials = {NaN, Inf, -Inf};
  const int RowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 28, 41, 48};
  const int ColCounts[] = {1, 7, 8, 9, 15, 16, 17, 28, 64, 65, 192, 257};
  int Mismatches = 0;
  auto Check = [&](const char *Op, const TensorPtr &Got,
                   const std::vector<float> &Want, int R, int C,
                   bool Taped) {
    EXPECT_EQ(Got->RequiresGrad, Taped) << Op;
    if (Got->Data.size() != Want.size() ||
        std::memcmp(Got->Data.data(), Want.data(),
                    Want.size() * sizeof(float)) != 0) {
      if (++Mismatches <= 5)
        ADD_FAILURE() << Op << " differs from the scalar loop at rows=" << R
                      << " cols=" << C << (Taped ? " on a tape" : " no-grad");
    }
  };
  auto RunAll = [&](bool Taped) {
    for (int R : RowCounts)
      for (int C : ColCounts) {
        const uint64_t Seed = static_cast<uint64_t>(R) * 1000003u +
                              static_cast<uint64_t>(C) * 1009u;
        TensorPtr A = forwardOperand(R, C, Seed, Taped, AllSpecials);
        TensorPtr B = forwardOperand(R, C, Seed + 1, Taped, AllSpecials);
        TensorPtr Row = forwardOperand(1, C, Seed + 2, Taped, AllSpecials);
        Check("add", add(A, B), refAdd(*A, *B), R, C, Taped);
        Check("addRow", addRow(A, Row), refAddRow(*A, *Row), R, C, Taped);
        Check("scale", scale(A, -1.7f), refScale(*A, -1.7f), R, C, Taped);
        TensorPtr S = makeTensor(1, 1, Taped);
        S->Data[0] = 0.3f;
        Check("scaleByScalar", scaleByScalar(A, S), refScale(*A, 0.3f), R, C,
              Taped);
        Check("relu", relu(A), refRelu(*A), R, C, Taped);

        TensorPtr Scores = forwardOperand(R, C, Seed + 4, Taped, {-Inf});
        Tensor Causal(R, C, /*RequiresGrad=*/false);
        for (int I = 0; I < R; ++I)
          for (int J = I + 1; J < C; ++J)
            Causal.at(I, J) = -1e9f;
        Check("softmaxRows", softmaxRows(Scores),
              refSoftmaxRows(*Scores, nullptr), R, C, Taped);
        Check("softmaxRows+mask", softmaxRows(Scores, &Causal),
              refSoftmaxRows(*Scores, &Causal), R, C, Taped);

        TensorPtr X = forwardOperand(R, C, Seed + 5, Taped, {});
        TensorPtr Gamma = forwardOperand(1, C, Seed + 6, Taped, {});
        TensorPtr Beta = forwardOperand(1, C, Seed + 7, Taped, {});
        Check("layerNorm", layerNorm(X, Gamma, Beta),
              refLayerNorm(*X, *Gamma, *Beta), R, C, Taped);

        std::vector<int> Ids(static_cast<size_t>(R));
        for (int I = 0; I < R; ++I)
          Ids[static_cast<size_t>(I)] = (I * 7 + 3) % R;
        Check("gatherRows", gatherRows(A, Ids), refGatherRows(*A, Ids), R, C,
              Taped);
        const int Start = C / 4, Count = C - Start - C / 8;
        Check("sliceCols", sliceCols(A, Start, Count),
              refSliceCols(*A, Start, Count), R, C, Taped);
        TensorPtr Narrow = forwardOperand(R, C % 5 + 1, Seed + 8, Taped,
                                          AllSpecials);
        const std::vector<TensorPtr> Parts = {A, Narrow, B};
        Check("concatCols", concatCols(Parts), refConcatCols(Parts), R, C,
              Taped);

        // A seeded NaN plus an inf − inf NaN in one chain would leave the
        // payload to operand order, so the mixed table has infinities only.
        TensorPtr Table = forwardOperand(R, C, Seed + 9, Taped, {Inf, -Inf});
        std::vector<std::vector<int>> Lists(static_cast<size_t>(R));
        for (int I = 0; I < R; ++I)
          for (int K = 0; K < I % 4; ++K)
            Lists[static_cast<size_t>(I)].push_back((I * 5 + K * 3) % R);
        Check("sparseMix", sparseMix(Table, Lists),
              refSparseMix(*Table, Lists), R, C, Taped);
      }
  };
  RunAll(/*Taped=*/true);
  {
    NoGradGuard Guard;
    RunAll(/*Taped=*/false);
  }
  EXPECT_EQ(Mismatches, 0);
}

TEST(Vocab, SpecialTokensExist) {
  Vocab V;
  EXPECT_EQ(V.textOf(V.padId()), "[PAD]");
  EXPECT_EQ(V.textOf(V.eosId()), "[EOS]");
  EXPECT_TRUE(V.isCsToken(V.csId(0)));
  EXPECT_TRUE(V.isCsToken(V.csId(Vocab::NumCsBuckets - 1)));
  EXPECT_FALSE(V.isCsToken(V.eosId()));
}

TEST(Vocab, CsBucketsRoundTrip) {
  Vocab V;
  EXPECT_EQ(Vocab::csBucket(0.0), 0);
  EXPECT_EQ(Vocab::csBucket(1.0), Vocab::NumCsBuckets - 1);
  EXPECT_NEAR(V.csValueOf(V.csId(Vocab::csBucket(0.8))), 0.8, 0.03);
  EXPECT_EQ(Vocab::csBucket(1.5), Vocab::NumCsBuckets - 1); // clamped
  EXPECT_EQ(Vocab::csBucket(-0.5), 0);
}

TEST(Vocab, TokensGetPieces) {
  Vocab V;
  int Id = V.addToken("fixup_riscv_pcrel_hi20");
  const auto &Pieces = V.pieceLists()[static_cast<size_t>(Id)];
  EXPECT_EQ(Pieces.size(), 4u); // fixup, riscv, pcrel, hi20
  // Shared pieces across tokens.
  int Id2 = V.addToken("fixup_riscv_branch");
  const auto &Pieces2 = V.pieceLists()[static_cast<size_t>(Id2)];
  EXPECT_EQ(Pieces[0], Pieces2[0]); // "fixup"
  EXPECT_EQ(Pieces[1], Pieces2[1]); // "riscv"
}

TEST(Vocab, UnknownMapsToUnk) {
  Vocab V;
  EXPECT_EQ(V.idOf("never_added"), V.unkId());
  EXPECT_FALSE(V.contains("never_added"));
}

TEST(Vocab, SerializeRoundTrip) {
  Vocab V;
  V.addToken("alpha");
  V.addToken("beta_gamma");
  Vocab V2 = Vocab::deserialize(V.serialize());
  EXPECT_EQ(V2.size(), V.size());
  EXPECT_EQ(V2.idOf("alpha"), V.idOf("alpha"));
  EXPECT_EQ(V2.idOf("beta_gamma"), V.idOf("beta_gamma"));
}

namespace {

/// Fine-tunes \p Model on \p Data with the schedule its config names.
void trainOnConfig(CodeBE &Model, const std::vector<TrainPair> &Data) {
  model::Trainer Engine(Model, model::TrainOptions::fromConfig(Model.config()));
  ASSERT_TRUE(Engine.run(Data).isOk());
}

} // namespace

TEST(CodeBE, LearnsACopyTask) {
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 25;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(11);
  for (int I = 0; I < 150; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  trainOnConfig(Model, Data);
  double EM = Model.exactMatch({Data.begin(), Data.begin() + 40});
  EXPECT_GT(EM, 0.9);
}

TEST(CodeBE, KVCacheDecodeMatchesFullRecompute) {
  // The incremental decoder must be bit-identical to re-running the full
  // decoder every step: same tokens AND same chosen probabilities, compared
  // with exact floating-point equality (no tolerance).
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("kv" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 6;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(17);
  for (int I = 0; I < 120; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  trainOnConfig(Model, Data);

  RNG Pick(23);
  for (int Case = 0; Case < 20; ++Case) {
    std::vector<int> Src = {
        V.clsId(), V.idOf(Words[Pick.nextBelow(12)]),
        V.idOf(Words[Pick.nextBelow(12)])};
    Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
    CodeBE::Decoded Full = Model.generate(Src);
    Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
    CodeBE::Decoded Inc = Model.generate(Src);
    EXPECT_EQ(Full.Tokens, Inc.Tokens) << "case " << Case;
    ASSERT_EQ(Full.Probs.size(), Inc.Probs.size()) << "case " << Case;
    for (size_t I = 0; I < Full.Probs.size(); ++I)
      EXPECT_EQ(Full.Probs[I], Inc.Probs[I])
          << "case " << Case << " position " << I;
  }

  // Constrained decoding takes the same paths through both modes.
  std::vector<uint8_t> Allowed(static_cast<size_t>(V.size()), 0);
  for (int I = 0; I < 6; ++I)
    Allowed[static_cast<size_t>(V.idOf(Words[static_cast<size_t>(I)]))] = 1;
  std::vector<int> Src = {V.clsId(), V.idOf(Words[2]), V.idOf(Words[5])};
  Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  CodeBE::Decoded Full = Model.generate(Src, &Allowed);
  Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
  CodeBE::Decoded Inc = Model.generate(Src, &Allowed);
  EXPECT_EQ(Full.Tokens, Inc.Tokens);
  ASSERT_EQ(Full.Probs.size(), Inc.Probs.size());
  for (size_t I = 0; I < Full.Probs.size(); ++I)
    EXPECT_EQ(Full.Probs[I], Inc.Probs[I]) << "position " << I;
}

TEST(CodeBE, BeamWidthOneMatchesGreedyAndRanksDescend) {
  // decodeBeam is the pass@k backbone of the repair engine: width 1 must
  // reproduce the greedy decode exactly (same tie-break rule), repeated
  // calls must be bit-identical (no RNG anywhere), and candidates must come
  // back ranked by score.
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("bm" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 6;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(29);
  for (int I = 0; I < 120; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  trainOnConfig(Model, Data);

  RNG Pick(31);
  for (int Case = 0; Case < 10; ++Case) {
    std::vector<int> Src = {V.clsId(), V.idOf(Words[Pick.nextBelow(12)]),
                            V.idOf(Words[Pick.nextBelow(12)])};
    CodeBE::Decoded Greedy = Model.generate(Src);
    std::vector<CodeBE::BeamHypothesis> One = Model.decodeBeam(Src, 1);
    ASSERT_FALSE(One.empty()) << "case " << Case;
    EXPECT_EQ(One[0].Tokens, Greedy.Tokens) << "case " << Case;

    std::vector<CodeBE::BeamHypothesis> Four = Model.decodeBeam(Src, 4);
    std::vector<CodeBE::BeamHypothesis> FourAgain = Model.decodeBeam(Src, 4);
    ASSERT_EQ(Four.size(), FourAgain.size()) << "case " << Case;
    EXPECT_LE(Four.size(), 4u);
    for (size_t I = 0; I < Four.size(); ++I) {
      EXPECT_EQ(Four[I].Tokens, FourAgain[I].Tokens) << "case " << Case;
      EXPECT_EQ(Four[I].Score, FourAgain[I].Score) << "case " << Case;
      if (I > 0) {
        EXPECT_LE(Four[I].Score, Four[I - 1].Score)
            << "case " << Case << " rank " << I;
      }
    }
    // Candidates are distinct statements, not duplicates.
    for (size_t I = 0; I < Four.size(); ++I)
      for (size_t J = I + 1; J < Four.size(); ++J)
        EXPECT_NE(Four[I].Tokens, Four[J].Tokens)
            << "case " << Case << " ranks " << I << "/" << J;
  }
}

TEST(CodeBE, BeamGoldenHashes) {
  // The safety net for beam refactors, as Pipeline.GoldenBackendHashes is
  // for greedy Stage 3: every hypothesis decodeBeam returns, its tokens and
  // the bits of its score, is pinned by one FNV-1a hash per width. A seeded
  // untrained model needs no fixture. Width 8 keeps eight rows live, so the
  // vocabulary projection also runs its packed M >= 8 path.
  Vocab V;
  std::vector<int> Words;
  for (int I = 0; I < 40; ++I)
    Words.push_back(V.addToken("tok" + std::to_string(I)));
  CodeBEConfig C;
  C.MaxSrcLen = 48;
  C.MaxDstLen = 48;
  CodeBE Model(V, C);
  auto W = [&](int I) { return Words[static_cast<size_t>(I)]; };
  std::vector<int> Buckets;
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Buckets.push_back(V.csId(B));

  // Stage 3's shape: the buckets, two pins, a biased six-candidate
  // placeholder, a pinned tail.
  CodeBE::DecodePlan Stage3;
  Stage3.Steps = {Buckets, {W(20)}, {W(21)},
                  {W(3), W(7), W(11), W(12), W(13), W(14)}};
  for (int I = 22; I < 27; ++I)
    Stage3.Steps.push_back({W(I)});
  Stage3.Bias.resize(Stage3.Steps.size());
  Stage3.Bias[3][W(12)] = 1.5f;
  // Unconstrained steps under the Allowed mask, [EOS] inside a set, and a
  // second biased six-candidate step.
  CodeBE::DecodePlan Mixed;
  Mixed.Steps = {Buckets,
                 {W(5)},
                 {},
                 {V.eosId(), W(8), W(30)},
                 {W(1), W(2), W(9), W(17), W(33), W(39)},
                 {},
                 {W(4)}};
  Mixed.Bias.resize(Mixed.Steps.size());
  Mixed.Bias[3][W(30)] = 0.25f;
  Mixed.Bias[4][W(9)] = 0.75f;
  std::vector<uint8_t> Allowed(V.size(), 0);
  for (int I : {2, 6, 9, 14, 30, 31})
    Allowed[static_cast<size_t>(W(I))] = 1;

  // The last source is longer than MaxSrcLen.
  std::vector<std::vector<int>> Srcs = {{V.clsId(), W(1), W(9), W(7)},
                                        {V.clsId(), W(7), W(7), W(30), W(2)}};
  std::vector<int> Long = {V.clsId()}, Longer = {V.clsId()};
  for (int I = 0; I < 15; ++I)
    Long.push_back(W((I * 7 + 3) % 40));
  for (int I = 0; I < 60; ++I)
    Longer.push_back(W((I * 11 + 5) % 40));
  Srcs.push_back(Long);
  Srcs.push_back(Longer);
  ASSERT_GT(static_cast<int>(Longer.size()), C.MaxSrcLen);

  struct Golden {
    int Width;
    uint64_t Hash;
  };
  const Golden Want[] = {{1, 0x306c01babeef5b6aULL}, {2, 0x76147265d0e33bb0ULL},
                         {3, 0x6ee1a53b5922f8b3ULL}, {4, 0x3f31abdb14d549ecULL},
                         {5, 0x2c15fe33acdf9281ULL}, {8, 0xf67d09387ae45d17ULL}};
  for (const Golden &G : Want) {
    std::string Bytes;
    auto Put = [&Bytes](const auto &X) {
      Bytes.append(reinterpret_cast<const char *>(&X), sizeof(X));
    };
    for (const std::vector<int> &Src : Srcs)
      for (const CodeBE::DecodePlan *P :
           std::initializer_list<const CodeBE::DecodePlan *>{&Stage3, &Mixed,
                                                             nullptr}) {
        std::vector<CodeBE::BeamHypothesis> Hyps =
            Model.decodeBeam(Src, G.Width, &Allowed, P);
        Put(static_cast<uint64_t>(Hyps.size()));
        for (const CodeBE::BeamHypothesis &H : Hyps) {
          Put(static_cast<uint64_t>(H.Tokens.size()));
          for (int T : H.Tokens)
            Put(static_cast<int32_t>(T));
          uint64_t Bits = 0;
          std::memcpy(&Bits, &H.Score, sizeof(Bits));
          Put(Bits);
        }
      }
    EXPECT_EQ(fnv1a(Bytes), G.Hash) << "width " << G.Width << " hash 0x"
                                    << std::hex << fnv1a(Bytes);
  }
}

TEST(CodeBE, ConstrainedDecodingRestrictsOutput) {
  Vocab V;
  int A = V.addToken("aaa"), B = V.addToken("bbb");
  CodeBEConfig C;
  C.Epochs = 1;
  C.MaxDstLen = 4;
  CodeBE Model(V, C);
  std::vector<uint8_t> Allowed(V.size(), 0);
  Allowed[static_cast<size_t>(B)] = 1;
  CodeBE::Decoded Out = Model.generate({V.clsId(), A}, &Allowed);
  for (int Id : Out.Tokens)
    EXPECT_TRUE(Id == B || V.isCsToken(Id))
        << "disallowed token " << V.textOf(Id);
}

TEST(CodeBE, SaveLoadRoundTrip) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  C.Epochs = 1;
  CodeBE M1(V, C);
  std::string Blob = M1.saveWeights();
  CodeBE M2(V, C);
  ASSERT_TRUE(M2.loadWeights(Blob));
  CodeBE::Decoded D1 = M1.generate({V.clsId()});
  CodeBE::Decoded D2 = M2.generate({V.clsId()});
  EXPECT_EQ(D1.Tokens, D2.Tokens);

  // Mismatched config must refuse.
  CodeBEConfig C2 = C;
  C2.DModel = 32;
  CodeBE M3(V, C2);
  EXPECT_FALSE(M3.loadWeights(Blob));
}

TEST(Autograd, GradSinkReductionIsScheduleInvariant) {
  // Shared leaves used by every example tape, as parameters are in
  // training: the per-example sink buffers folded in ascending example
  // order must produce the same bits no matter how many lanes ran.
  TensorPtr E = makeParam(6, 4, 0.5f, 7);
  TensorPtr W = makeParam(4, 3, 0.5f, 8);
  const size_t Examples = 8;
  std::vector<std::vector<int>> Ids(Examples), Targets(Examples);
  RNG Rng(99);
  for (size_t I = 0; I < Examples; ++I)
    for (int T = 0; T < 3; ++T) {
      Ids[I].push_back(static_cast<int>(Rng.nextBelow(6)));
      Targets[I].push_back(static_cast<int>(Rng.nextBelow(3)));
    }

  auto RunWith = [&](int Jobs) {
    ThreadPool Pool(Jobs);
    std::vector<TensorPtr> Tracked = {E, W};
    std::vector<GradSink> Sinks(Examples);
    for (GradSink &S : Sinks)
      S.track(Tracked);
    Pool.parallelFor(Examples, [&](size_t I) {
      GradSink::Scope Active(Sinks[I]);
      Sinks[I].zero();
      TensorPtr Logits = matmul(gatherRows(E, Ids[I]), W);
      backward(crossEntropy(Logits, Targets[I]));
    });
    std::vector<std::vector<float>> Reduced;
    for (size_t P = 0; P < Tracked.size(); ++P) {
      std::vector<float> Acc(Tracked[P]->Data.size(), 0.0f);
      for (size_t S = 0; S < Examples; ++S) {
        const std::vector<float> &Buf = Sinks[S].bufferAt(P);
        for (size_t K = 0; K < Acc.size(); ++K)
          Acc[K] += Buf[K];
      }
      Reduced.push_back(std::move(Acc));
    }
    return Reduced;
  };

  std::vector<std::vector<float>> Serial = RunWith(1);
  std::vector<std::vector<float>> Parallel = RunWith(4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t P = 0; P < Serial.size(); ++P) {
    ASSERT_EQ(Serial[P].size(), Parallel[P].size());
    EXPECT_EQ(0, std::memcmp(Serial[P].data(), Parallel[P].data(),
                             Serial[P].size() * sizeof(float)))
        << "reduced gradient " << P << " differs between jobs=1 and jobs=4";
    // The gradients are real (the tapes actually ran).
    float Sum = 0.0f;
    for (float G : Serial[P])
      Sum += std::fabs(G);
    EXPECT_GT(Sum, 0.0f);
  }
}

TEST(Trainer, JobsDoNotChangeTrainedWeights) {
  // Full train() at jobs=1 vs jobs=4 from identical seeds must produce
  // byte-identical weights — and therefore identical WGTS checksums in a
  // session checkpoint, which stores fnv1a(saveWeights()).
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 3;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  std::vector<TrainPair> Data;
  RNG Rng(11);
  for (int I = 0; I < 60; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }

  auto TrainWith = [&](int Jobs) {
    CodeBE Model(V, C);
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.Jobs = Jobs;
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_TRUE(Result.isOk());
    if (Result.isOk()) {
      EXPECT_EQ(Result->JobsUsed, Jobs);
      EXPECT_EQ(Result->EpochsRun, C.Epochs);
      EXPECT_EQ(Result->ExamplesSeen, Data.size() * 3);
      EXPECT_EQ(Result->EpochMeanLoss.size(), 3u);
      EXPECT_GT(Result->ExamplesPerSec, 0.0);
    }
    return Model.saveWeights();
  };

  std::string Weights1 = TrainWith(1);
  std::string Weights4 = TrainWith(4);
  ASSERT_EQ(Weights1.size(), Weights4.size());
  EXPECT_TRUE(Weights1 == Weights4)
      << "trained weights differ between jobs=1 and jobs=4";
  EXPECT_EQ(fnv1a(Weights1), fnv1a(Weights4));
}

TEST(Trainer, UnitExampleWeightsMatchUnweightedBytes) {
  // ExampleWeights of all 1.0 must be a no-op: byte-identical trained
  // weights versus the unweighted schedule, so the flywheel's weighted
  // corpus degenerates cleanly when every pair carries the default weight.
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 8; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 2;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  std::vector<TrainPair> Data;
  RNG Rng(7);
  for (int I = 0; I < 24; ++I) {
    int A = static_cast<int>(Rng.nextBelow(8));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }

  auto TrainWith = [&](std::vector<float> Weights) {
    CodeBE Model(V, C);
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.ExampleWeights = std::move(Weights);
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_TRUE(Result.isOk());
    return Model.saveWeights();
  };

  std::string Plain = TrainWith({});
  std::string Unit = TrainWith(std::vector<float>(Data.size(), 1.0f));
  EXPECT_TRUE(Plain == Unit)
      << "all-1.0 example weights changed the trained weights";

  // Down-weighting must actually change the optimization trajectory.
  std::vector<float> Skewed(Data.size(), 1.0f);
  Skewed.front() = 0.25f;
  EXPECT_FALSE(Plain == TrainWith(std::move(Skewed)));
}

TEST(Trainer, ExampleWeightsValidated) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  CodeBE Model(V, C);
  TrainPair P;
  P.Src = {V.clsId(), V.idOf("x")};
  P.Dst = {V.csId(20), V.idOf("x"), V.eosId()};
  std::vector<TrainPair> Data(4, P);

  auto CodeFor = [&](std::vector<float> Weights) {
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.ExampleWeights = std::move(Weights);
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_FALSE(Result.isOk());
    return Result.isOk() ? StatusCode::Ok : Result.status().code();
  };

  // Size mismatch is typed, not silently truncated or padded.
  EXPECT_EQ(CodeFor(std::vector<float>(3, 1.0f)),
            StatusCode::InvalidArgument);
  // Negative and non-finite weights are rejected by validate().
  EXPECT_EQ(CodeFor({1.0f, -0.5f, 1.0f, 1.0f}), StatusCode::InvalidArgument);
  EXPECT_EQ(CodeFor({1.0f, std::nanf(""), 1.0f, 1.0f}),
            StatusCode::InvalidArgument);
}

TEST(Trainer, InvalidOptionsSurfaceTypedStatus) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  CodeBE Model(V, C);

  auto CodeFor = [&](const model::TrainOptions &Opts) {
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run({});
    EXPECT_FALSE(Result.isOk());
    return Result.isOk() ? StatusCode::Ok : Result.status().code();
  };

  model::TrainOptions Bad = model::TrainOptions::fromConfig(C);
  Bad.BatchSize = 0;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.Epochs = -1;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.LearningRate = 0.0f;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.LearningRate = std::nanf("");
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  // Valid options succeed even on an empty dataset.
  model::Trainer Engine(Model, model::TrainOptions::fromConfig(C));
  StatusOr<model::TrainResult> Ok = Engine.run({});
  ASSERT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok->ExamplesSeen, 0u);
}

namespace {

/// A small trained copy-task model shared by the decode-path tests
/// (training is the expensive part; the tests only decode).
struct SharedDecodeModel {
  Vocab V;
  std::vector<std::string> Words;
  std::unique_ptr<CodeBE> Model;

  SharedDecodeModel() {
    for (int I = 0; I < 12; ++I) {
      Words.push_back("qp" + std::to_string(I));
      V.addToken(Words.back());
    }
    CodeBEConfig C;
    C.Epochs = 6;
    C.MaxSrcLen = 8;
    C.MaxDstLen = 8;
    C.LearningRate = 2e-3f;
    std::vector<TrainPair> Data;
    RNG Rng(41);
    for (int I = 0; I < 120; ++I) {
      int A = static_cast<int>(Rng.nextBelow(12));
      int B = static_cast<int>(Rng.nextBelow(12));
      TrainPair P;
      P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
               V.idOf(Words[static_cast<size_t>(B)])};
      P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
               V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
      Data.push_back(P);
    }
    Model = std::make_unique<CodeBE>(V, C);
    trainOnConfig(*Model, Data);
  }

  static SharedDecodeModel &instance() {
    static SharedDecodeModel M;
    return M;
  }
};

} // namespace

TEST(CodeBE, PinnedStepSkipPreservesGreedyOutput) {
  // A decode without probabilities skips the logits of every step its plan
  // pins to one token; a decode with probabilities runs the full argmax at
  // every step. Both must choose the same tokens, with and without a plan.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  CodeBE::DecodePlan Plan;
  Plan.Steps.push_back({V.csId(20)});
  Plan.Steps.push_back({V.idOf(M.Words[4])});
  Plan.Steps.push_back({V.idOf(M.Words[1]), V.idOf(M.Words[2])});
  Plan.Steps.push_back({V.idOf(M.Words[7])});
  // An out-of-range pin ends the decode exactly where the argmax would.
  CodeBE::DecodePlan OutOfRange = Plan;
  OutOfRange.Steps[3] = {static_cast<int>(V.size()) + 5};

  RNG Pick(59);
  for (int Case = 0; Case < 8; ++Case) {
    std::vector<int> Src = {V.clsId(), V.idOf(M.Words[Pick.nextBelow(12)]),
                            V.idOf(M.Words[Pick.nextBelow(12)])};
    for (const CodeBE::DecodePlan *P :
         std::initializer_list<const CodeBE::DecodePlan *>{nullptr, &Plan,
                                                           &OutOfRange}) {
      CodeBE::Decoded Skip = Model.generate(Src, nullptr, P, false);
      CodeBE::Decoded Full = Model.generate(Src, nullptr, P, true);
      EXPECT_EQ(Skip.Tokens, Full.Tokens) << "case " << Case;
      EXPECT_TRUE(Skip.Probs.empty()) << "case " << Case;
      EXPECT_EQ(Full.Probs.size(), Full.Tokens.size()) << "case " << Case;
    }
  }
}

namespace {

/// How much counters \p A and \p B grow while \p Run runs with metrics on.
std::pair<uint64_t, uint64_t> counterGrowth(const char *A, const char *B,
                                            const std::function<void()> &Run) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::instance();
  const bool WasEnabled = Metrics.enabled();
  Metrics.setEnabled(true);
  const uint64_t A0 = Metrics.counterValue(A), B0 = Metrics.counterValue(B);
  Run();
  std::pair<uint64_t, uint64_t> Growth = {Metrics.counterValue(A) - A0,
                                          Metrics.counterValue(B) - B0};
  Metrics.setEnabled(WasEnabled);
  return Growth;
}

/// Decoder passes and 1×V logit rows one generate() call runs, read from
/// the model.decoder_passes and model.vocab_projections counters.
struct DecodeWork {
  uint64_t Passes = 0, Projections = 0;
};

DecodeWork workOf(const std::function<void()> &Decode) {
  auto [Passes, Projections] = counterGrowth(
      "model.decoder_passes", "model.vocab_projections", Decode);
  return {Passes, Projections};
}

} // namespace

TEST(CodeBE, Stage3PlanDecodeComputesOnlyWhatTheChoiceReads) {
  // Stage 3 decodes without probabilities under plans that pin the skeleton
  // and leave the confidence bucket and the placeholders free. Such a decode
  // runs no decoder pass after the plan's last free position and scores
  // only the admissible columns at multi-id steps. It must choose exactly
  // the tokens of a WithProbs decode and of the FullRecompute reference.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };
  const int MaxDst = Model.config().MaxDstLen;
  std::vector<int> Buckets;
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Buckets.push_back(V.csId(B));

  // Free positions 0 (the 21 buckets) and 2 (biased candidates); the pinned
  // tail after position 2 runs past MaxDstLen.
  CodeBE::DecodePlan Tail;
  Tail.Steps = {Buckets, {W(4)}, {W(1), W(2), W(9)}};
  Tail.Bias.resize(Tail.Steps.size());
  Tail.Bias[2][W(9)] = 0.5f;
  for (int I = 0; I < MaxDst; ++I)
    Tail.Steps.push_back({W(I)});
  ASSERT_GT(static_cast<int>(Tail.Steps.size()), MaxDst);

  // A bias that lifts a candidate above every raw logit, an out-of-range id
  // inside a set, an empty (unconstrained) step under the Allowed mask, and
  // [EOS] as a candidate.
  CodeBE::DecodePlan Mixed;
  Mixed.Steps = {Buckets,
                 {static_cast<int>(V.size()) + 3, W(3), W(5), W(10)},
                 {},
                 {W(6)},
                 {V.eosId(), W(8), W(11)},
                 {W(2)}};
  Mixed.Bias.resize(Mixed.Steps.size());
  Mixed.Bias[1][W(10)] = 1000.0f;
  Mixed.Bias[4][W(8)] = 0.25f;

  // [EOS] pinned mid-plan, before the last free position and after it.
  CodeBE::DecodePlan EosBeforeFree;
  EosBeforeFree.Steps = {Buckets, {W(5)}, {V.eosId()}, {W(1), W(7)}, {W(0)}};
  CodeBE::DecodePlan EosInTail;
  EosInTail.Steps = {Buckets, {W(3), W(4)}, {W(6)}, {V.eosId()}, {W(0)}};
  // The last free position is an empty step: it counts as free.
  CodeBE::DecodePlan EmptyLast;
  EmptyLast.Steps = {Buckets, {W(4)}, {}, {W(7)}, {W(0)}};

  std::vector<uint8_t> Allowed(V.size(), 0);
  for (int I : {2, 6, 9})
    Allowed[static_cast<size_t>(W(I))] = 1;

  // Candidates inside and outside the source, and repeated source tokens
  // whose copy mass sums over two positions.
  std::vector<std::vector<int>> Srcs = {{V.clsId(), W(1), W(9)},
                                        {V.clsId(), W(7), W(7)},
                                        {V.clsId(), W(2), W(5), W(2)},
                                        {V.clsId(), W(0), W(11)},
                                        {V.clsId(), W(10), W(3), W(10)}};
  RNG Pick(67);
  for (int I = 0; I < 4; ++I)
    Srcs.push_back({V.clsId(), W(static_cast<int>(Pick.nextBelow(12))),
                    W(static_cast<int>(Pick.nextBelow(12)))});

  for (size_t SI = 0; SI < Srcs.size(); ++SI) {
    const std::vector<int> &Src = Srcs[SI];
    for (const CodeBE::DecodePlan *P :
         {&Tail, &Mixed, &EosBeforeFree, &EosInTail, &EmptyLast}) {
      CodeBE::Decoded Lean, Full, Ref;
      DecodeWork LeanWork =
          workOf([&] { Lean = Model.generate(Src, &Allowed, P, false); });
      DecodeWork FullWork =
          workOf([&] { Full = Model.generate(Src, &Allowed, P, true); });
      Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
      Ref = Model.generate(Src, &Allowed, P, false);
      Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
      EXPECT_EQ(Lean.Tokens, Full.Tokens) << "source " << SI;
      EXPECT_EQ(Lean.Tokens, Ref.Tokens) << "source " << SI;
      EXPECT_TRUE(Lean.Probs.empty()) << "source " << SI;
      // With probabilities every position runs one pass and one projection.
      EXPECT_EQ(FullWork.Passes, FullWork.Projections) << "source " << SI;
      EXPECT_GE(FullWork.Passes, Full.Tokens.size()) << "source " << SI;
      if (P == &Tail) {
        // Last free position 2: passes at 0..2 only, and no 1×V row.
        EXPECT_EQ(Lean.Tokens.size(), static_cast<size_t>(MaxDst))
            << "source " << SI;
        EXPECT_EQ(LeanWork.Passes, 3u) << "source " << SI;
        EXPECT_EQ(LeanWork.Projections, 0u) << "source " << SI;
        EXPECT_EQ(FullWork.Passes, static_cast<uint64_t>(MaxDst))
            << "source " << SI;
      }
      if (P == &EosInTail) {
        EXPECT_EQ(Lean.Tokens.size(), 3u) << "source " << SI;
      }
      if (P == &Mixed) {
        ASSERT_GE(Lean.Tokens.size(), 2u) << "source " << SI;
        EXPECT_EQ(Lean.Tokens[1], W(10)) << "source " << SI;
        // The empty step is the only full-vocabulary one.
        EXPECT_EQ(LeanWork.Projections, 1u) << "source " << SI;
      }
      if (P == &EmptyLast) {
        EXPECT_EQ(LeanWork.Passes, 3u) << "source " << SI;
        EXPECT_EQ(LeanWork.Projections, 1u) << "source " << SI;
      }
    }
  }
}

TEST(CodeBE, AdmissibleColumnLogitsMatchTheRowBytes) {
  // The column path must reproduce each logit bit for bit, not just the
  // argmax. Bisect the bias on the second of two candidates to the exact
  // float where a WithProbs decode (full 1×V row) switches to it; a decode
  // without probabilities (columns only) must switch at the same float.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };

  struct Case {
    std::vector<int> Src;
    int A, B;
  };
  // B repeated in the source (copy mass from two and three positions,
  // presence still 1.0), B absent from it, and A absent while B is present.
  std::vector<Case> Cases = {{{V.clsId(), W(3), W(8), W(8)}, W(3), W(8)},
                             {{V.clsId(), W(8), W(3), W(8), W(1), W(8)},
                              W(3),
                              W(8)},
                             {{V.clsId(), W(3), W(8), W(8)}, W(3), W(5)},
                             {{V.clsId(), W(6), W(1), W(6)}, W(2), W(6)},
                             {{V.clsId(), W(11), W(4)}, W(4), W(11)}};
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const Case &C = Cases[CI];
    CodeBE::DecodePlan Plan;
    Plan.Steps = {{C.A, C.B}};
    Plan.Bias.resize(1);
    auto Choice = [&](float Bias, bool WithProbs) {
      Plan.Bias[0][C.B] = Bias;
      CodeBE::Decoded Out = Model.generate(C.Src, nullptr, &Plan, WithProbs);
      return Out.Tokens.empty() ? -1 : Out.Tokens[0];
    };
    float Lo = -1000.0f, Hi = 1000.0f; // A wins at Lo, B wins at Hi
    ASSERT_EQ(Choice(Lo, true), C.A) << "case " << CI;
    ASSERT_EQ(Choice(Hi, true), C.B) << "case " << CI;
    for (int Iter = 0; Iter < 400 && std::nextafter(Lo, Hi) != Hi; ++Iter) {
      float Mid = Lo + (Hi - Lo) / 2.0f;
      if (Mid <= Lo || Mid >= Hi)
        Mid = std::nextafter(Lo, Hi);
      (Choice(Mid, true) == C.A ? Lo : Hi) = Mid;
    }
    ASSERT_EQ(std::nextafter(Lo, Hi), Hi) << "case " << CI;
    EXPECT_EQ(Choice(Lo, false), C.A) << "case " << CI << " bias " << Lo;
    EXPECT_EQ(Choice(Hi, false), C.B) << "case " << CI << " bias " << Hi;
  }
}

TEST(CodeBE, SharedPrefixImmutableUnderConcurrentDecode) {
  // Four threads decode the same sources concurrently; every result must
  // match the serial decode. Mutable shared decode state would corrupt one
  // thread's KV rows with another's tail.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  std::vector<std::vector<int>> Srcs;
  RNG Pick(61);
  for (int I = 0; I < 16; ++I)
    Srcs.push_back({V.clsId(), V.idOf(M.Words[Pick.nextBelow(12)]),
                    V.idOf(M.Words[Pick.nextBelow(12)])});

  CodeBE::DecodePlan Plan;
  Plan.Steps.push_back({V.csId(20)});
  for (int I = 0; I < 5; ++I)
    Plan.Steps.push_back({V.idOf(M.Words[static_cast<size_t>(I * 2)])});

  std::vector<std::vector<int>> Want;
  for (const std::vector<int> &S : Srcs)
    Want.push_back(Model.generate(S, nullptr, &Plan, false).Tokens);

  std::vector<std::vector<int>> Got(Srcs.size());
  ThreadPool Pool(4);
  Pool.parallelFor(Srcs.size(), [&](size_t I) {
    Got[I] = Model.generate(Srcs[I], nullptr, &Plan, false).Tokens;
  });
  for (size_t I = 0; I < Srcs.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << "lane " << I;
}

TEST(CodeBE, ConcurrentBeamsMatchSerial) {
  // Four pool lanes decode overlapping beams over shared sources: each
  // lock-step pass reads its hypotheses' prefix chains in place while other
  // lanes fork and seal their own. Every result must equal the serial one.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };
  std::vector<int> Buckets;
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Buckets.push_back(V.csId(B));
  CodeBE::DecodePlan Plan;
  Plan.Steps = {Buckets, {W(4)}, {W(1), W(2), W(9), W(11)}, {}, {W(7)}};

  std::vector<std::vector<int>> Srcs;
  RNG Pick(79);
  for (int I = 0; I < 12; ++I)
    Srcs.push_back({V.clsId(), W(static_cast<int>(Pick.nextBelow(12))),
                    W(static_cast<int>(Pick.nextBelow(12)))});
  const int Widths[] = {2, 4, 5};
  auto Decode = [&](size_t I) {
    const CodeBE::DecodePlan *P = I % 2 ? &Plan : nullptr;
    return Model.decodeBeam(Srcs[I % Srcs.size()], Widths[I % 3], nullptr, P);
  };

  const size_t Jobs = 48; // every source four times, under two plans
  std::vector<std::vector<CodeBE::BeamHypothesis>> Want;
  for (size_t I = 0; I < Jobs; ++I)
    Want.push_back(Decode(I));
  std::vector<std::vector<CodeBE::BeamHypothesis>> Got(Jobs);
  ThreadPool Pool(4);
  Pool.parallelFor(Jobs, [&](size_t I) { Got[I] = Decode(I); });
  for (size_t I = 0; I < Jobs; ++I) {
    ASSERT_FALSE(Want[I].empty()) << "beam " << I;
    ASSERT_EQ(Got[I].size(), Want[I].size()) << "beam " << I;
    for (size_t R = 0; R < Want[I].size(); ++R) {
      EXPECT_EQ(Got[I][R].Tokens, Want[I][R].Tokens) << "beam " << I;
      EXPECT_EQ(Got[I][R].Score, Want[I][R].Score) << "beam " << I;
    }
  }
}

namespace {

/// Encoder-memo hits and misses of the decodes \p Decode runs, read from
/// the model.encode_memo_hits and model.encode_memo_misses counters.
struct MemoCounts {
  uint64_t Hits = 0, Misses = 0;
};

MemoCounts memoCountsOf(const std::function<void()> &Decode) {
  auto [Hits, Misses] = counterGrowth("model.encode_memo_hits",
                                      "model.encode_memo_misses", Decode);
  return {Hits, Misses};
}

/// A new model holding \p Weights, so its memo starts empty.
std::unique_ptr<CodeBE> modelWith(const Vocab &V, const CodeBEConfig &C,
                                  const std::string &Weights) {
  auto Model = std::make_unique<CodeBE>(V, C);
  EXPECT_TRUE(Model->loadWeights(Weights));
  return Model;
}

void expectSameDecode(const CodeBE::Decoded &A, const CodeBE::Decoded &B,
                      const std::string &What) {
  EXPECT_EQ(A.Tokens, B.Tokens) << What;
  ASSERT_EQ(A.Probs.size(), B.Probs.size()) << What;
  for (size_t I = 0; I < A.Probs.size(); ++I)
    EXPECT_EQ(A.Probs[I], B.Probs[I]) << What << " position " << I;
}

void expectSameBeam(const std::vector<CodeBE::BeamHypothesis> &A,
                    const std::vector<CodeBE::BeamHypothesis> &B,
                    const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Tokens, B[I].Tokens) << What << " rank " << I;
    EXPECT_EQ(A[I].Score, B[I].Score) << What << " rank " << I;
  }
}

} // namespace

TEST(CodeBE, EncodeMemoHitMatchesMissBytes) {
  // A memo hit hands the decode the floats the encoder computed for the
  // same ids, so the second decode of a source (a hit) must reproduce the
  // first (a miss), a freshly built model with the same weights, and the
  // memo-free FullRecompute reference: tokens, probabilities and beam
  // scores, compared exactly.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  const Vocab &V = M.V;
  const CodeBEConfig &C = M.Model->config();
  const std::string Weights = M.Model->saveWeights();
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };
  std::vector<int> Buckets;
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Buckets.push_back(V.csId(B));
  // Stage 3's shape: the buckets, a pin, a multi-id step, a pinned tail.
  CodeBE::DecodePlan Plan;
  Plan.Steps = {Buckets, {W(4)}, {W(1), W(2), W(9)}, {W(7)}};

  // The last source is longer than MaxSrcLen: its key is the clipped ids.
  std::vector<std::vector<int>> Srcs = {
      {V.clsId(), W(1), W(9)},
      {V.clsId(), W(7), W(7)},
      {V.clsId(), W(2), W(5), W(2)},
      {V.clsId(), W(10), W(3), W(10), W(0), W(11), W(6), W(8), W(4), W(5)}};
  auto Ref = modelWith(V, C, Weights);
  Ref->setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  for (size_t SI = 0; SI < Srcs.size(); ++SI) {
    const std::vector<int> &Src = Srcs[SI];
    for (const CodeBE::DecodePlan *P :
         std::initializer_list<const CodeBE::DecodePlan *>{nullptr, &Plan}) {
      const std::string What = "source " + std::to_string(SI) +
                               (P ? " with plan" : " without plan");
      // The FullRecompute reference runs the encoder itself and never
      // touches the memo.
      CodeBE::Decoded RefProbs, RefLean;
      MemoCounts RefCounts = memoCountsOf([&] {
        RefProbs = Ref->generate(Src, nullptr, P, true);
        RefLean = Ref->generate(Src, nullptr, P, false);
      });
      EXPECT_EQ(RefCounts.Hits + RefCounts.Misses, 0u) << What;

      for (bool WithProbs : {true, false}) {
        auto Model = modelWith(V, C, Weights);
        CodeBE::Decoded Miss, Hit;
        MemoCounts First = memoCountsOf(
            [&] { Miss = Model->generate(Src, nullptr, P, WithProbs); });
        MemoCounts Second = memoCountsOf(
            [&] { Hit = Model->generate(Src, nullptr, P, WithProbs); });
        const std::string Case = What + (WithProbs ? " probs" : " lean");
        EXPECT_EQ(First.Misses, 1u) << Case;
        EXPECT_EQ(First.Hits, 0u) << Case;
        EXPECT_EQ(Second.Hits, 1u) << Case;
        EXPECT_EQ(Second.Misses, 0u) << Case;
        expectSameDecode(Hit, Miss, Case + " hit vs miss");
        expectSameDecode(Hit, WithProbs ? RefProbs : RefLean,
                         Case + " hit vs FullRecompute");
        expectSameDecode(
            Hit, modelWith(V, C, Weights)->generate(Src, nullptr, P, WithProbs),
            Case + " hit vs fresh model");
      }

      auto Model = modelWith(V, C, Weights);
      std::vector<CodeBE::BeamHypothesis> Miss, Hit;
      MemoCounts First =
          memoCountsOf([&] { Miss = Model->decodeBeam(Src, 4, nullptr, P); });
      MemoCounts Second =
          memoCountsOf([&] { Hit = Model->decodeBeam(Src, 4, nullptr, P); });
      EXPECT_EQ(First.Misses, 1u) << What << " beam";
      EXPECT_EQ(Second.Hits, 1u) << What << " beam";
      EXPECT_EQ(Second.Misses, 0u) << What << " beam";
      ASSERT_FALSE(Hit.empty()) << What << " beam";
      expectSameBeam(Hit, Miss, What + " beam hit vs miss");
      expectSameBeam(Hit,
                     modelWith(V, C, Weights)->decodeBeam(Src, 4, nullptr, P),
                     What + " beam hit vs fresh model");
    }
  }

  // 1,000 distinct sources of one length in 8,192 index slots: some share
  // a slot, so lookups meet the entry of another source. Those must miss,
  // never hand one source the memory of another.
  std::vector<std::vector<int>> Many;
  for (int I = 0; I < 1000; ++I)
    Many.push_back({V.clsId(), W(I % 12), W(I / 12 % 12), W(I / 144)});
  auto Model = modelWith(V, C, Weights);
  for (const std::vector<int> &Src : Many)
    Model->generate(Src);
  std::vector<CodeBE::Decoded> Again;
  MemoCounts Counts = memoCountsOf([&] {
    for (const std::vector<int> &Src : Many)
      Again.push_back(Model->generate(Src));
  });
  EXPECT_GT(Counts.Misses, 0u) << "no two sources shared a slot";
  EXPECT_GT(Counts.Hits, Counts.Misses);
  for (size_t I = 0; I < Many.size(); ++I)
    expectSameDecode(Again[I], Ref->generate(Many[I]),
                     "slot-sharing source " + std::to_string(I));
}

TEST(CodeBE, EncodeMemoForgetsWhenWeightsChange) {
  // The memo holds encoder output computed under the weights of the moment.
  // A training epoch and a loadWeights, also one that fails part-way, must
  // empty it: otherwise a flywheel round (fine-tune, then generate again)
  // would decode over stale memory. Each decode after a change must miss
  // and equal a fresh model that holds the new weights.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  const Vocab &V = M.V;
  const CodeBEConfig &C = M.Model->config();
  const std::string Trained = M.Model->saveWeights();
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };
  const std::vector<int> Src = {V.clsId(), W(3), W(8)};
  auto Model = modelWith(V, C, Trained);

  auto ExpectFreshDecode = [&](const std::string &What) {
    CodeBE::Decoded After;
    MemoCounts Counts = memoCountsOf([&] { After = Model->generate(Src); });
    EXPECT_EQ(Counts.Misses, 1u) << What;
    EXPECT_EQ(Counts.Hits, 0u) << What;
    expectSameDecode(After,
                     modelWith(V, C, Model->saveWeights())->generate(Src),
                     What + " vs fresh model");
    return After;
  };

  // One more training epoch.
  CodeBE::Decoded Before = Model->generate(Src);
  std::vector<TrainPair> Data;
  RNG Rng(43);
  for (int I = 0; I < 16; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    Data.push_back(
        {{V.clsId(), W(A), W(B)}, {V.csId(20), W(B), W(A), V.eosId()}});
  }
  model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
  Opts.Epochs = 1;
  ASSERT_TRUE(model::Trainer(*Model, Opts).run(Data).isOk());
  CodeBE::Decoded Tuned = ExpectFreshDecode("after an epoch");
  // A stale hit would have returned the old probabilities.
  EXPECT_NE(Tuned.Probs, Before.Probs);

  // loadWeights of other weights.
  Model->generate(Src); // the memo holds Src again
  CodeBE Untrained(V, C);
  ASSERT_TRUE(Model->loadWeights(Untrained.saveWeights()));
  CodeBE::Decoded Loaded = ExpectFreshDecode("after loadWeights");
  expectSameDecode(Loaded, Untrained.generate(Src), "loaded vs source model");
  EXPECT_NE(Loaded.Probs, Tuned.Probs);

  // A load that fails part-way has already overwritten the leading
  // parameters.
  Model->generate(Src);
  EXPECT_FALSE(Model->loadWeights(Trained.substr(0, Trained.size() / 2)));
  CodeBE::Decoded Partial = ExpectFreshDecode("after a failed loadWeights");
  EXPECT_NE(Partial.Probs, Loaded.Probs);
}

TEST(CodeBE, EncodeMemoEvictsAtTheRegionEdge) {
  // The memo is a ring of about 2 MiB in one mapped region; ASan does not
  // check inside a mapping, so this test is the bounds check. The sources
  // cycle through lengths up to MaxSrcLen (one more is clipped to it), so
  // two passes wrap the ring twice and end laps in tails no entry fits.
  // Decodes that hit, that miss after an eviction, and that follow a
  // second-chance move must all equal the FullRecompute bytes.
  Vocab V;
  std::vector<int> Words;
  for (int I = 0; I < 40; ++I)
    Words.push_back(V.addToken("ev" + std::to_string(I)));
  CodeBEConfig C;
  C.MaxSrcLen = 128;
  C.MaxDstLen = 3;
  CodeBE Model(V, C);
  CodeBE Ref(V, C); // the same seeded weights
  Ref.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  std::vector<int> Buckets;
  for (int B = 0; B < Vocab::NumCsBuckets; ++B)
    Buckets.push_back(V.csId(B));
  // Two unconstrained steps: the probabilities read every memory float
  // through the cross attention and the copy head.
  CodeBE::DecodePlan Plan;
  Plan.Steps = {Buckets, {}, {}};

  const int Lengths[] = {128, 41, 16, 97, 5, 135};
  RNG Fill(71);
  auto SourceOf = [&](int I) {
    // The first two ids after [CLS] spell I, so the sources are distinct.
    std::vector<int> Src = {V.clsId(), Words[static_cast<size_t>(I % 40)],
                            Words[static_cast<size_t>(I / 40)]};
    while (static_cast<int>(Src.size()) < Lengths[I % 6])
      Src.push_back(Words[Fill.nextBelow(40)]);
    return Src;
  };
  std::vector<std::vector<int>> Srcs;
  for (int I = 0; I < 300; ++I)
    Srcs.push_back(SourceOf(I));

  auto Decode = [&](int I, uint64_t WantHits, const std::string &What) {
    const std::vector<int> &Src = Srcs[static_cast<size_t>(I)];
    CodeBE::Decoded Got;
    MemoCounts Counts =
        memoCountsOf([&] { Got = Model.generate(Src, nullptr, &Plan); });
    EXPECT_EQ(Counts.Hits, WantHits) << What << " source " << I;
    EXPECT_EQ(Counts.Hits + Counts.Misses, 1u) << What << " source " << I;
    expectSameDecode(Got, Ref.generate(Src, nullptr, &Plan),
                     What + " source " + std::to_string(I));
  };

  // 240 distinct sources, about 4.3 MB of entries: all miss.
  for (int I = 0; I < 240; ++I)
    Decode(I, 0, "first pass");
  // Source 130 is live in the older half of the ring: the hit moves it to
  // the head. 60 new sources then overwrite its old place and 131's.
  Decode(130, 1, "older-half hit");
  for (int I = 240; I < 300; ++I)
    Decode(I, 0, "new source");
  Decode(130, 1, "moved entry");
  Decode(131, 0, "evicted neighbour");
  // The newest entries hit; the first ones were evicted long ago.
  for (int I = 288; I < 300; ++I)
    Decode(I, 1, "recent");
  for (int I = 0; I < 24; ++I)
    Decode(I, 0, "evicted");

  // A source longer than MaxSrcLen hits the entry of its clipped ids.
  const std::vector<int> &Recent = Srcs[294]; // 128 ids
  ASSERT_EQ(Recent.size(), 128u);
  std::vector<int> Longer = Recent;
  Longer.insert(Longer.end(), {Words[1], Words[2], Words[3]});
  CodeBE::Decoded Got;
  MemoCounts Counts =
      memoCountsOf([&] { Got = Model.generate(Longer, nullptr, &Plan); });
  EXPECT_EQ(Counts.Hits, 1u);
  expectSameDecode(Got, Ref.generate(Longer, nullptr, &Plan),
                   "clipped longer source");
}

TEST(CodeBE, EncodeMemoConcurrentDecodes) {
  // Four threads decode overlapping source sets on one model, so lookups,
  // copy-outs and inserts of the same keys race; every result must equal
  // the serial decode on a model of the same weights.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  const Vocab &V = M.V;
  const CodeBEConfig &C = M.Model->config();
  const std::string Weights = M.Model->saveWeights();

  std::vector<std::vector<int>> Srcs;
  RNG Pick(73);
  for (int I = 0; I < 24; ++I)
    Srcs.push_back({V.clsId(), V.idOf(M.Words[Pick.nextBelow(12)]),
                    V.idOf(M.Words[Pick.nextBelow(12)]),
                    V.idOf(M.Words[Pick.nextBelow(12)])});

  auto Serial = modelWith(V, C, Weights);
  std::vector<CodeBE::Decoded> Want;
  std::vector<std::vector<CodeBE::BeamHypothesis>> WantBeam;
  for (const std::vector<int> &S : Srcs) {
    Want.push_back(Serial->generate(S));
    WantBeam.push_back(Serial->decodeBeam(S, 2));
  }

  // Lane L decodes sources L*6 .. L*6+11 (mod 24), twice: every source is
  // decoded by two lanes, four times in all.
  const size_t Lanes = 4, PerLane = 12;
  auto Shared = modelWith(V, C, Weights);
  std::vector<std::vector<CodeBE::Decoded>> Got(Lanes);
  std::vector<std::vector<std::vector<CodeBE::BeamHypothesis>>> GotBeam(Lanes);
  MemoCounts Counts = memoCountsOf([&] {
    ThreadPool Pool(static_cast<int>(Lanes));
    Pool.parallelFor(Lanes, [&](size_t L) {
      for (int Round = 0; Round < 2; ++Round)
        for (size_t K = 0; K < PerLane; ++K) {
          const std::vector<int> &S = Srcs[(L * 6 + K) % Srcs.size()];
          Got[L].push_back(Shared->generate(S));
          GotBeam[L].push_back(Shared->decodeBeam(S, 2));
        }
    });
  });
  for (size_t L = 0; L < Lanes; ++L)
    for (size_t I = 0; I < Got[L].size(); ++I) {
      const size_t S = (L * 6 + I % PerLane) % Srcs.size();
      const std::string What =
          "lane " + std::to_string(L) + " decode " + std::to_string(I);
      expectSameDecode(Got[L][I], Want[S], What);
      expectSameBeam(GotBeam[L][I], WantBeam[S], What + " beam");
    }
  EXPECT_EQ(Counts.Hits + Counts.Misses, 2 * Lanes * 2 * PerLane);
  EXPECT_GE(Counts.Hits, Counts.Misses);
}
