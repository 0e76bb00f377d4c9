//===- model/Autograd.cpp - Tape-based reverse-mode autodiff ----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/Autograd.h"

#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

using namespace vega;

namespace {

/// The sink receiving gradient writes for tracked tensors on this thread.
thread_local GradSink *ActiveSink = nullptr;

} // namespace

float *Tensor::gradData() {
  if (ActiveSink)
    if (float *Buf = ActiveSink->bufferFor(this))
      return Buf;
  ensureGrad();
  return Grad.data();
}

void GradSink::track(const std::vector<TensorPtr> &Tensors) {
  Tracked.clear();
  Index.clear();
  Tracked.reserve(Tensors.size());
  Index.reserve(Tensors.size());
  Buffers.resize(Tensors.size());
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const Tensor *T = Tensors[I].get();
    Tracked.push_back(T);
    Index.emplace(T, I);
    // Reuse the allocation when the slot held an equal-sized buffer (the
    // steady state across batches); zeroing happens in zero().
    if (Buffers[I].size() != T->Data.size())
      Buffers[I].assign(T->Data.size(), 0.0f);
  }
}

void GradSink::zero() {
  for (std::vector<float> &B : Buffers)
    std::fill(B.begin(), B.end(), 0.0f);
}

float *GradSink::bufferFor(const Tensor *T) {
  auto It = Index.find(T);
  return It == Index.end() ? nullptr : Buffers[It->second].data();
}

GradSink::Scope::Scope(GradSink &S) : Prev(ActiveSink) { ActiveSink = &S; }
GradSink::Scope::~Scope() { ActiveSink = Prev; }

bool GradSink::activeFor(const Tensor *T) {
  return ActiveSink && ActiveSink->bufferFor(T);
}

TensorPtr vega::makeTensor(int Rows, int Cols, bool RequiresGrad) {
  return std::make_shared<Tensor>(Rows, Cols, RequiresGrad);
}

TensorPtr vega::makeParam(int Rows, int Cols, float Scale, uint64_t Seed) {
  TensorPtr T = makeTensor(Rows, Cols, /*RequiresGrad=*/true);
  RNG Rng(Seed);
  for (float &V : T->Data)
    V = static_cast<float>(Rng.nextDouble(-Scale, Scale));
  return T;
}

namespace {

thread_local int NoGradDepth = 0;

TensorPtr makeResult(int Rows, int Cols, const TensorPtr *First,
                     const TensorPtr *Last) {
  // Under a NoGradGuard the result is a plain value: no parent links (so
  // intermediates die with their last reference) and RequiresGrad=false
  // (so the op skips allocating its backward closure).
  if (NoGradDepth > 0)
    return makeTensor(Rows, Cols, /*RequiresGrad=*/false);
  bool NeedsGrad = false;
  for (const TensorPtr *P = First; P != Last; ++P)
    if ((*P)->RequiresGrad || (*P)->Backward)
      NeedsGrad = true;
  // Grad buffers stay unallocated here; backward() materializes them for
  // the tapes it actually walks, so inference never pays for them.
  TensorPtr Out = makeTensor(Rows, Cols, NeedsGrad);
  Out->Parents.assign(First, Last);
  return Out;
}

TensorPtr makeResult(int Rows, int Cols,
                     std::initializer_list<TensorPtr> Parents) {
  return makeResult(Rows, Cols, Parents.begin(), Parents.end());
}

} // namespace

NoGradGuard::NoGradGuard() { ++NoGradDepth; }
NoGradGuard::~NoGradGuard() { --NoGradDepth; }
bool NoGradGuard::active() { return NoGradDepth > 0; }

// ---- GEMM kernels --------------------------------------------------------
//
// The kernels vectorize across independent output columns, eight at a time,
// and never across the inner (reduction) index: every element of C still
// runs its own chain c = fl(c + fl(a·b)) in ascending inner index, exactly
// as the naive triple loop does. The product is always rounded before the
// add (no FMA: a fused multiply-add rounds once and would change every
// output), so any column split, row blocking or instruction set gives the
// same bytes. Column and inner-index remainders run the same chains, in
// scalar code or in spare vector lanes whose results are never stored.
//
// One source builds two variants: an AVX2 one (without FMA) and an x86-64
// baseline one, where each 8-wide vector op lowers to two SSE ops. The
// dynamic loader picks one once, through the target_clones ifunc resolver.
// ThreadSanitizer builds get the baseline variant only: GCC's ifunc
// resolvers run before the TSan runtime is up and crash the process at
// start-up.

namespace {

using V8 = float __attribute__((vector_size(32)));
// Unaligned views used for every vector load and store.
using V8u = float __attribute__((vector_size(32), aligned(4), may_alias));
using V4u = float __attribute__((vector_size(16), aligned(4), may_alias));

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define VEGA_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VEGA_KERNEL_CLONES
#endif

// The helpers below are force-inlined into each variant and take or return
// vectors only through pointers and references, never by value, so the
// baseline variant has no AVX-dependent ABI.

[[gnu::always_inline]] inline const V8u *vec8(const float *P) {
  return reinterpret_cast<const V8u *>(P);
}
[[gnu::always_inline]] inline V8u *vec8(float *P) {
  return reinterpret_cast<V8u *>(P);
}
[[gnu::always_inline]] inline const V4u *vec4(const float *P) {
  return reinterpret_cast<const V4u *>(P);
}

/// In-lane 4×4 transpose of Z0..Z3 into T[0..3] (both 128-bit lanes at once).
[[gnu::always_inline]] inline void
transposeLanes(const V8 &Z0, const V8 &Z1, const V8 &Z2, const V8 &Z3,
               V8 *T) {
  V8 S0 = __builtin_shufflevector(Z0, Z1, 0, 8, 1, 9, 4, 12, 5, 13);
  V8 S1 = __builtin_shufflevector(Z0, Z1, 2, 10, 3, 11, 6, 14, 7, 15);
  V8 S2 = __builtin_shufflevector(Z2, Z3, 0, 8, 1, 9, 4, 12, 5, 13);
  V8 S3 = __builtin_shufflevector(Z2, Z3, 2, 10, 3, 11, 6, 14, 7, 15);
  T[0] = __builtin_shufflevector(S0, S2, 0, 1, 8, 9, 4, 5, 12, 13);
  T[1] = __builtin_shufflevector(S0, S2, 2, 3, 10, 11, 6, 7, 14, 15);
  T[2] = __builtin_shufflevector(S1, S3, 0, 1, 8, 9, 4, 5, 12, 13);
  T[3] = __builtin_shufflevector(S1, S3, 2, 3, 10, 11, 6, 7, 14, 15);
}

/// Transposes the 8×8 tile at \p B (row stride \p Stride) in registers:
/// T[p][j] = B[j·Stride + p].
[[gnu::always_inline]] inline void transposeTile(const float *B,
                                                 size_t Stride, V8 (&T)[8]) {
  // Lane 0 of X[j]/Y[j] holds row j, lane 1 holds row j+4.
  V8 X[4], Y[4];
#pragma GCC unroll 4
  for (int J = 0; J < 4; ++J) {
    const float *Lo = B + J * Stride, *Hi = Lo + 4 * Stride;
    X[J] = __builtin_shufflevector(*vec4(Lo), *vec4(Hi), 0, 1, 2, 3, 4, 5, 6,
                                   7);
    Y[J] = __builtin_shufflevector(*vec4(Lo + 4), *vec4(Hi + 4), 0, 1, 2, 3,
                                   4, 5, 6, 7);
  }
  transposeLanes(X[0], X[1], X[2], X[3], T);
  transposeLanes(Y[0], Y[1], Y[2], Y[3], T + 4);
}

/// How a tile's chains start and end: from C and stored back (the C += A·B
/// kernels), or from +0.0f and then stored (gemmNT) or added to C once
/// (gemmNTAccum).
enum class Chain { FromC, FromZero, FromZeroAddToC };

/// Runs the chains of an RM×(8·NV) block of C (row stride \p CStride):
///   c[r][j] = fl(c[r][j] + fl(a(r, p) · B[p·BStride + j]))  for p < K,
/// with a(r, p) = A[r·ARow + p·AInner]. With SkipZeros a zero a(r, p) skips
/// its step for row r, so no 0·x product is ever formed (x may be inf).
template <int RM, int NV, bool SkipZeros, Chain Mode>
[[gnu::always_inline]] inline void
chainTile(const float *A, size_t ARow, size_t AInner, const float *B,
          size_t BStride, int K, float *C, size_t CStride) {
  V8 Acc[RM][NV];
#pragma GCC unroll 8
  for (int R = 0; R < RM; ++R)
#pragma GCC unroll 8
    for (int V = 0; V < NV; ++V)
      Acc[R][V] = Mode == Chain::FromC ? *vec8(C + R * CStride + 8 * V) : V8{};
  for (int P = 0; P < K; ++P) {
    const float *BP = B + static_cast<size_t>(P) * BStride;
#pragma GCC unroll 8
    for (int R = 0; R < RM; ++R) {
      float AV = A[R * ARow + static_cast<size_t>(P) * AInner];
      if (SkipZeros && AV == 0.0f)
        continue;
#pragma GCC unroll 8
      for (int V = 0; V < NV; ++V)
        Acc[R][V] += AV * *vec8(BP + 8 * V);
    }
  }
#pragma GCC unroll 8
  for (int R = 0; R < RM; ++R)
#pragma GCC unroll 8
    for (int V = 0; V < NV; ++V) {
      float *Out = C + R * CStride + 8 * V;
      *vec8(Out) = Mode == Chain::FromZeroAddToC ? *vec8(Out) + Acc[R][V]
                                                  : Acc[R][V];
    }
}

/// C += A·B over the skip-aware chains, one row of C at a time: C is M×N,
/// B is K×N and a(r, p) = A[r·ARow + p·AInner]. Shared by gemmAccum
/// (A row-major) and gemmTNAccum (A read transposed).
[[gnu::always_inline]] inline void accumRows(const float *A, size_t ARow,
                                             size_t AInner, const float *B,
                                             float *C, int M, int K, int N) {
  const size_t NS = static_cast<size_t>(N);
  for (int I = 0; I < M; ++I) {
    const float *AI = A + static_cast<size_t>(I) * ARow;
    float *CI = C + static_cast<size_t>(I) * NS;
    int J = 0;
    for (; J + 64 <= N; J += 64)
      chainTile<1, 8, true, Chain::FromC>(AI, 0, AInner, B + J, NS, K, CI + J,
                                          0);
    for (; J + 16 <= N; J += 16)
      chainTile<1, 2, true, Chain::FromC>(AI, 0, AInner, B + J, NS, K, CI + J,
                                          0);
    for (; J + 8 <= N; J += 8)
      chainTile<1, 1, true, Chain::FromC>(AI, 0, AInner, B + J, NS, K, CI + J,
                                          0);
    if (J == N)
      continue;
    for (int P = 0; P < K; ++P) {
      float AV = AI[static_cast<size_t>(P) * AInner];
      if (AV == 0.0f)
        continue;
      const float *BP = B + static_cast<size_t>(P) * NS;
      for (int T = J; T < N; ++T)
        CI[T] += AV * BP[T];
    }
  }
}

/// The chains of C[r][0..8·NB) for the RM rows of A (row stride \p ARow)
/// and of C (row stride \p CRow), with B (row stride \p BS) transposed 8×8
/// in registers as the chains consume it: each tile once for all RM rows.
template <int RM, int NB, bool AddToC>
[[gnu::always_inline]] inline void
transposedTile(const float *A, size_t ARow, const float *B, size_t BS, int K,
               float *C, size_t CRow) {
  V8 Acc[RM][NB] = {};
  int P = 0;
  for (; P + 8 <= K; P += 8)
#pragma GCC unroll 2
    for (int Blk = 0; Blk < NB; ++Blk) {
      V8 T[8];
      transposeTile(B + Blk * 8 * BS + P, BS, T);
#pragma GCC unroll 8
      for (int Q = 0; Q < 8; ++Q)
#pragma GCC unroll 8
        for (int R = 0; R < RM; ++R)
          Acc[R][Blk] += A[R * ARow + P + Q] * T[Q];
    }
  for (; P < K; ++P)
#pragma GCC unroll 2
    for (int Blk = 0; Blk < NB; ++Blk) {
      const float *BP = B + Blk * 8 * BS + P;
      V8 Col = {BP[0],      BP[BS],     BP[2 * BS], BP[3 * BS],
                BP[4 * BS], BP[5 * BS], BP[6 * BS], BP[7 * BS]};
#pragma GCC unroll 8
      for (int R = 0; R < RM; ++R)
        Acc[R][Blk] += A[R * ARow + P] * Col;
    }
#pragma GCC unroll 8
  for (int R = 0; R < RM; ++R)
#pragma GCC unroll 2
    for (int Blk = 0; Blk < NB; ++Blk) {
      float *Out = C + R * CRow + 8 * Blk;
      *vec8(Out) = AddToC ? *vec8(Out) + Acc[R][Blk] : Acc[R][Blk];
    }
}

/// C = A·Bᵀ (or C += A·Bᵀ) for the RM rows of A (row stride \p ARow) and
/// of C (row stride \p CRow) against the N rows of B (row stride \p BS):
/// 8×8 tiles of B transposed in registers, NB column blocks at a time, and
/// the last N % 8 columns in scalar chains.
template <int RM, int NB, bool AddToC>
[[gnu::always_inline]] inline void fewRowsNT(const float *A, size_t ARow,
                                             const float *B, size_t BS,
                                             float *C, size_t CRow, int K,
                                             int N) {
  const int NFull = N - N % 8;
  int J = 0;
  for (; J + 8 * NB <= NFull; J += 8 * NB)
    transposedTile<RM, NB, AddToC>(A, ARow, B + J * BS, BS, K, C + J, CRow);
  for (; J < NFull; J += 8)
    transposedTile<RM, 1, AddToC>(A, ARow, B + J * BS, BS, K, C + J, CRow);
  for (int R = 0; R < RM; ++R)
    for (J = NFull; J < N; ++J) {
      const float *AR = A + R * ARow, *BJ = B + J * BS;
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P)
        Acc += AR[P] * BJ[P];
      float &Out = C[R * CRow + J];
      Out = AddToC ? Out + Acc : Acc;
    }
}

/// Per-thread gemmNT scratch: the packed K×8 panel and, for the last
/// N % 8 columns, their 8-wide output rows.
thread_local std::vector<float> NTPanel, NTTailC;

/// Streams the packed K×8 \p Panel through every row block of A (row
/// stride \p KS): Out[i][0..8) for i < M, row stride \p OutStride.
template <Chain Mode>
[[gnu::always_inline]] inline void panelRows(const float *A, size_t KS,
                                             int M, int K, const float *Panel,
                                             float *Out, size_t OutStride) {
  int I = 0;
  for (; I + 8 <= M; I += 8)
    chainTile<8, 1, false, Mode>(A + I * KS, KS, 1, Panel, 8, K,
                                 Out + I * OutStride, OutStride);
  for (; I + 4 <= M; I += 4)
    chainTile<4, 1, false, Mode>(A + I * KS, KS, 1, Panel, 8, K,
                                 Out + I * OutStride, OutStride);
  for (; I < M; ++I)
    chainTile<1, 1, false, Mode>(A + I * KS, KS, 1, Panel, 8, K,
                                 Out + I * OutStride, OutStride);
}

/// C = A·Bᵀ (or C += A·Bᵀ with AddToC); every chain starts at +0.0f.
template <bool AddToC>
[[gnu::always_inline]] inline void gemmNTImpl(const float *A, const float *B,
                                              float *C, int M, int K, int N) {
  constexpr Chain Mode = AddToC ? Chain::FromZeroAddToC : Chain::FromZero;
  const size_t KS = static_cast<size_t>(K), NS = static_cast<size_t>(N);
  const int NFull = N - N % 8, Rem = N - NFull;
  if (M >= 8) {
    // Packed panel: each 8-row strip of B is transposed once into a K×8
    // panel and reused by every row of A.
    NTPanel.resize(8 * KS);
    float *Panel = NTPanel.data();
    for (int J = 0; J < NFull; J += 8) {
      const float *BJ = B + J * KS;
      int P = 0;
      for (; P + 8 <= K; P += 8) {
        V8 T[8];
        transposeTile(BJ + P, KS, T);
#pragma GCC unroll 8
        for (int Q = 0; Q < 8; ++Q)
          *vec8(Panel + (P + Q) * 8) = T[Q];
      }
      for (; P < K; ++P)
        for (int Q = 0; Q < 8; ++Q)
          Panel[P * 8 + Q] = BJ[Q * KS + P];
      panelRows<Mode>(A, KS, M, K, Panel, C + J, NS);
    }
    if (Rem > 0) {
      // The last N % 8 columns run as one more panel whose spare lanes are
      // zero; those lanes' chains are never stored.
      for (int P = 0; P < K; ++P)
        for (int Q = 0; Q < 8; ++Q)
          Panel[P * 8 + Q] = Q < Rem ? B[(NFull + Q) * KS + P] : 0.0f;
      NTTailC.resize(static_cast<size_t>(M) * 8);
      panelRows<Chain::FromZero>(A, KS, M, K, Panel, NTTailC.data(), 8);
      for (int I = 0; I < M; ++I)
        for (int Q = 0; Q < Rem; ++Q) {
          float &Out = C[I * NS + NFull + Q];
          const float Acc = NTTailC[I * 8 + Q];
          Out = AddToC ? Out + Acc : Acc;
        }
    }
    return;
  }
  // Few rows (M = 1 is the decode step, 2–7 a beam step's live hypotheses
  // or a short statement in training): packing would cost more than it
  // saves, so each 8×8 tile of B is transposed in registers once and feeds
  // the chains of every row. One row takes two column blocks at a time for
  // two independent chains.
  switch (M) {
  case 1:
    return fewRowsNT<1, 2, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 2:
    return fewRowsNT<2, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 3:
    return fewRowsNT<3, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 4:
    return fewRowsNT<4, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 5:
    return fewRowsNT<5, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 6:
    return fewRowsNT<6, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  case 7:
    return fewRowsNT<7, 1, AddToC>(A, KS, B, KS, C, NS, K, N);
  }
}

} // namespace

VEGA_KERNEL_CLONES
void vega::detail::gemmAccum(const float *A, const float *B, float *C, int M,
                             int K, int N) {
  accumRows(A, static_cast<size_t>(K), 1, B, C, M, K, N);
}

VEGA_KERNEL_CLONES
void vega::detail::gemmNT(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  gemmNTImpl<false>(A, B, C, M, K, N);
}

VEGA_KERNEL_CLONES
void vega::detail::gemmNTAccum(const float *A, const float *B, float *C,
                               int M, int K, int N) {
  gemmNTImpl<true>(A, B, C, M, K, N);
}

VEGA_KERNEL_CLONES
void vega::detail::gemmTNAccum(const float *A, const float *G, float *C,
                               int M, int K, int N) {
  // C (K×N) row r takes its chain over the rows i of A and G, reading
  // a(r, i) = A[i·K + r].
  accumRows(A, 1, static_cast<size_t>(K), G, C, K, M, N);
}

namespace {

/// Per-thread attendRow scratch: one head's scores, then its weights.
thread_local std::vector<float> AttnWeights;

/// Out[0..8·NV) = Σ_j W[j]·V_j[0..8·NV) over the window's rows, one chain
/// per element from +0.0f in ascending row order, a zero weight skipping
/// its row (gemmAccum's chain).
template <int NV>
[[gnu::always_inline]] inline void
weightedRows(const float *W, const detail::KVSegment *Segs, int NumSegs,
             size_t DS, size_t Col, float *Out) {
  V8 Acc[NV] = {};
  for (int S = 0; S < NumSegs; ++S) {
    const float *V = Segs[S].V + Col;
    for (int J = 0; J < Segs[S].Rows; ++J) {
      const float A = *W++;
      if (A == 0.0f)
        continue;
#pragma GCC unroll 2
      for (int X = 0; X < NV; ++X)
        Acc[X] += A * *vec8(V + J * DS + 8 * X);
    }
  }
#pragma GCC unroll 2
  for (int X = 0; X < NV; ++X)
    *vec8(Out + 8 * X) = Acc[X];
}

} // namespace

VEGA_KERNEL_CLONES
void vega::detail::attendRow(const float *Q, const KVSegment *Segs,
                             int NumSegs, int D, int Heads, float Scale,
                             float *Out) {
  const int Dk = D / Heads;
  const size_t DS = static_cast<size_t>(D);
  int Len = 0;
  for (int S = 0; S < NumSegs; ++S)
    Len += Segs[S].Rows;
  AttnWeights.resize(static_cast<size_t>(Len));
  float *W = AttnWeights.data();
  for (int H = 0; H < Heads; ++H) {
    const size_t Col = static_cast<size_t>(H) * Dk;
    // Scores: gemmNT's one-row chains, eight keys of a segment at a time.
    float *WS = W;
    for (int S = 0; S < NumSegs; ++S) {
      fewRowsNT<1, 2, false>(Q + Col, 0, Segs[S].K + Col, DS, WS, 0, Dk,
                             Segs[S].Rows);
      WS += Segs[S].Rows;
    }
    // scale, then softmaxRows without a mask.
    float Max = -1e30f;
    for (int J = 0; J < Len; ++J) {
      const float Scaled = W[J] * Scale;
      W[J] = Scaled + 0.0f;
      Max = std::max(Max, W[J]);
    }
    float Sum = 0.0f;
    for (int J = 0; J < Len; ++J) {
      const float E = std::exp(W[J] - Max);
      W[J] = E;
      Sum += E;
    }
    for (int J = 0; J < Len; ++J)
      W[J] /= Sum;
    // The weighted value rows, 16 and then 8 columns at a time.
    float *OH = Out + Col;
    int T = 0;
    for (; T + 16 <= Dk; T += 16)
      weightedRows<2>(W, Segs, NumSegs, DS, Col + T, OH + T);
    for (; T + 8 <= Dk; T += 8)
      weightedRows<1>(W, Segs, NumSegs, DS, Col + T, OH + T);
    for (; T < Dk; ++T) {
      float Acc = 0.0f;
      const float *WJ = W;
      for (int S = 0; S < NumSegs; ++S)
        for (int J = 0; J < Segs[S].Rows; ++J) {
          const float A = *WJ++;
          if (A == 0.0f)
            continue;
          Acc += A * Segs[S].V[J * DS + Col + T];
        }
      OH[T] = Acc;
    }
  }
}

const char *vega::detail::gemmVariant() {
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
  // The target_clones resolver makes the same check once, at load time.
  return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
  return "default";
#endif
}

// ---- Forward kernels of the other ops ------------------------------------
//
// The same idiom and the same rule as the GEMM kernels: vectorize across
// independent elements and rows, eight at a time, and never reorder a chain.
// Every output element runs the float operations the scalar loop ran, in the
// same order:
// - add, addRow, scale, scaleByScalar and relu do one IEEE operation per
//   element, so any vector width gives the same bytes. relu is the select
//   a > 0 ? a : 0, so NaN and -0.0f still map to +0.0f.
// - softmaxRows vectorizes the mask add (a + 0.0f without a mask) and the
//   final true division by the row sum. The max scan and the exp/sum chain
//   stay scalar in ascending column order: a vector exp would not reproduce
//   libm's expf bytes.
// - layerNorm keeps each row's mean and variance as one ascending chain from
//   0.0f, four rows' chains interleaved, and vectorizes the normalise step.
// - sparseMix vectorizes across columns and adds the pieces in list order.
// gatherRows, sliceCols and concatCols are row copies and need no kernel.
// The kernels write into the op's fresh output tensor and allocate nothing.

namespace {

/// Mean and 1/sqrt(var + 1e-5) of the NR rows at \p X (row stride \p C).
/// Each row's sum and sum of squares is one chain from 0.0f in ascending
/// column order; the NR rows' chains are independent and interleave, so
/// they are bound by throughput instead of add latency. Every NR runs the
/// same per-row operations, so a row's bytes do not depend on which rows
/// share its block.
template <int NR>
[[gnu::always_inline]] inline void rowMoments(const float *X, int C,
                                              float *Mean, float *InvStd) {
  const size_t CS = static_cast<size_t>(C);
  float Mu[NR], Var[NR];
#pragma GCC unroll 4
  for (int R = 0; R < NR; ++R)
    Mu[R] = 0.0f;
  for (int J = 0; J < C; ++J)
#pragma GCC unroll 4
    for (int R = 0; R < NR; ++R)
      Mu[R] += X[R * CS + J];
#pragma GCC unroll 4
  for (int R = 0; R < NR; ++R) {
    Mu[R] /= C;
    Var[R] = 0.0f;
  }
  for (int J = 0; J < C; ++J)
#pragma GCC unroll 4
    for (int R = 0; R < NR; ++R) {
      const float D = X[R * CS + J] - Mu[R];
      Var[R] += D * D;
    }
#pragma GCC unroll 4
  for (int R = 0; R < NR; ++R) {
    Var[R] /= C;
    Mean[R] = Mu[R];
    InvStd[R] = 1.0f / std::sqrt(Var[R] + 1e-5f);
  }
}

} // namespace

// Only this file calls the forward kernels, so they have internal linkage;
// they sit in vega::detail beside the GEMM kernels, where CI's object check
// finds every kernel and its .avx2 clone.
namespace vega::detail {
namespace {

/// Out[r][c] = A[r][c] + B[c] over a Rows×Cols block: addRow, and add as
/// one row spanning both tensors.
VEGA_KERNEL_CLONES
void addRowsForward(const float *A, const float *B, float *Out, size_t Rows,
                    size_t Cols) {
  for (size_t R = 0; R < Rows; ++R) {
    const float *AR = A + R * Cols;
    float *OR = Out + R * Cols;
    size_t J = 0;
    for (; J + 8 <= Cols; J += 8)
      *vec8(OR + J) = *vec8(AR + J) + *vec8(B + J);
    for (; J < Cols; ++J)
      OR[J] = AR[J] + B[J];
  }
}

/// Out[i] = A[i] · Factor: scale and scaleByScalar.
VEGA_KERNEL_CLONES
void scaleForward(const float *A, float Factor, float *Out, size_t N) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    *vec8(Out + I) = *vec8(A + I) * Factor;
  for (; I < N; ++I)
    Out[I] = A[I] * Factor;
}

/// Out[i] = A[i] > 0 ? A[i] : 0.
VEGA_KERNEL_CLONES
void reluForward(const float *A, float *Out, size_t N) {
  const V8 Zero = {};
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    const V8 X = *vec8(A + I);
    *vec8(Out + I) = X > Zero ? X : Zero;
  }
  for (; I < N; ++I)
    Out[I] = A[I] > 0.0f ? A[I] : 0.0f;
}

/// Row-wise softmax of A + Mask (A + 0.0f when \p Mask is null). The
/// masked scores are staged in the output row.
VEGA_KERNEL_CLONES
void softmaxForward(const float *A, const float *Mask, float *Out, int Rows,
                    int Cols) {
  const size_t C = static_cast<size_t>(Cols);
  for (int I = 0; I < Rows; ++I) {
    const float *AI = A + I * C;
    float *OI = Out + I * C;
    size_t J = 0;
    if (Mask) {
      const float *MI = Mask + I * C;
      for (; J + 8 <= C; J += 8)
        *vec8(OI + J) = *vec8(AI + J) + *vec8(MI + J);
      for (; J < C; ++J)
        OI[J] = AI[J] + MI[J];
    } else {
      const V8 Zero = {};
      for (; J + 8 <= C; J += 8)
        *vec8(OI + J) = *vec8(AI + J) + Zero;
      for (; J < C; ++J)
        OI[J] = AI[J] + 0.0f;
    }
    float Max = -1e30f;
    for (J = 0; J < C; ++J)
      Max = std::max(Max, OI[J]);
    float Sum = 0.0f;
    for (J = 0; J < C; ++J) {
      const float E = std::exp(OI[J] - Max);
      OI[J] = E;
      Sum += E;
    }
    for (J = 0; J + 8 <= C; J += 8)
      *vec8(OI + J) = *vec8(OI + J) / Sum;
    for (; J < C; ++J)
      OI[J] /= Sum;
  }
}

/// Row-wise layer norm: Out = ((x − μ)·inv)·γ + β, with each row's μ and
/// inv also written to \p Mean and \p InvStd for the backward pass.
VEGA_KERNEL_CLONES
void layerNormForward(const float *X, const float *Gamma, const float *Beta,
                      float *Out, float *Mean, float *InvStd, int Rows,
                      int Cols) {
  const size_t C = static_cast<size_t>(Cols);
  int I = 0;
  for (; I + 4 <= Rows; I += 4)
    rowMoments<4>(X + I * C, Cols, Mean + I, InvStd + I);
  for (; I < Rows; ++I)
    rowMoments<1>(X + I * C, Cols, Mean + I, InvStd + I);
  for (I = 0; I < Rows; ++I) {
    const float *XI = X + I * C;
    float *OI = Out + I * C;
    const float Mu = Mean[I], Inv = InvStd[I];
    size_t J = 0;
    for (; J + 8 <= C; J += 8)
      *vec8(OI + J) =
          (*vec8(XI + J) - Mu) * Inv * *vec8(Gamma + J) + *vec8(Beta + J);
    for (; J < C; ++J)
      OI[J] = (XI[J] - Mu) * Inv * Gamma[J] + Beta[J];
  }
}

/// Out[i] += mean over Lists[i] of E's rows (row width \p Cols), the
/// pieces added in list order; Out holds zeros on entry.
VEGA_KERNEL_CLONES
void sparseMixForward(const float *E, int Cols,
                      const std::vector<std::vector<int>> &Lists,
                      float *Out) {
  const size_t C = static_cast<size_t>(Cols);
  for (size_t I = 0; I < Lists.size(); ++I) {
    if (Lists[I].empty())
      continue;
    const float Inv = 1.0f / static_cast<float>(Lists[I].size());
    float *OI = Out + I * C;
    for (int P : Lists[I]) {
      const float *EP = E + static_cast<size_t>(P) * C;
      size_t J = 0;
      for (; J + 8 <= C; J += 8)
        *vec8(OI + J) += *vec8(EP + J) * Inv;
      for (; J < C; ++J)
        OI[J] += EP[J] * Inv;
    }
  }
}

} // namespace
} // namespace vega::detail

TensorPtr vega::matmul(const TensorPtr &A, const TensorPtr &B) {
  assert(A->Cols == B->Rows && "matmul shape mismatch");
  TensorPtr Out = makeResult(A->Rows, B->Cols, {A, B});
  const int M = A->Rows, K = A->Cols, N = B->Cols;
  detail::gemmAccum(A->Data.data(), B->Data.data(), Out->Data.data(), M, K,
                    N);
  Tensor *AP = A.get(), *BP = B.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, BP, OP, M, K, N] {
      // dA = dO · Bᵀ ; dB = Aᵀ · dO
      const float *OG = OP->gradData();
      detail::gemmNTAccum(OG, BP->Data.data(), AP->gradData(), M, N, K);
      detail::gemmTNAccum(AP->Data.data(), OG, BP->gradData(), M, K, N);
    };
  return Out;
}

TensorPtr vega::matmulNT(const TensorPtr &A, const TensorPtr &B) {
  assert(A->Cols == B->Cols && "matmulNT shape mismatch");
  TensorPtr Out = makeResult(A->Rows, B->Rows, {A, B});
  const int M = A->Rows, K = A->Cols, N = B->Rows;
  detail::gemmNT(A->Data.data(), B->Data.data(), Out->Data.data(), M, K, N);
  Tensor *AP = A.get(), *BP = B.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, BP, OP, M, K, N] {
      // dA = dO · B (dO's zero entries skipped, as the scalar loop did);
      // dB = dOᵀ · A with the same skip.
      const float *OG = OP->gradData();
      detail::gemmAccum(OG, BP->Data.data(), AP->gradData(), M, N, K);
      detail::gemmTNAccum(OG, AP->Data.data(), BP->gradData(), M, N, K);
    };
  return Out;
}

TensorPtr vega::add(const TensorPtr &A, const TensorPtr &B) {
  assert(A->Rows == B->Rows && A->Cols == B->Cols && "add shape mismatch");
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A, B});
  detail::addRowsForward(A->Data.data(), B->Data.data(), Out->Data.data(), 1,
                         Out->Data.size());
  Tensor *AP = A.get(), *BP = B.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, BP, OP] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData(), *BG = BP->gradData();
      for (size_t I = 0; I < OP->Data.size(); ++I) {
        AG[I] += OG[I];
        BG[I] += OG[I];
      }
    };
  return Out;
}

TensorPtr vega::addRow(const TensorPtr &A, const TensorPtr &B) {
  assert(B->Rows == 1 && B->Cols == A->Cols && "addRow shape mismatch");
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A, B});
  detail::addRowsForward(A->Data.data(), B->Data.data(), Out->Data.data(),
                         static_cast<size_t>(A->Rows),
                         static_cast<size_t>(A->Cols));
  Tensor *AP = A.get(), *BP = B.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, BP, OP] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData(), *BG = BP->gradData();
      for (int I = 0; I < OP->Rows; ++I)
        for (int J = 0; J < OP->Cols; ++J) {
          float G = OG[static_cast<size_t>(I) * OP->Cols + J];
          AG[static_cast<size_t>(I) * OP->Cols + J] += G;
          BG[static_cast<size_t>(J)] += G;
        }
    };
  return Out;
}

TensorPtr vega::scale(const TensorPtr &A, float Factor) {
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A});
  detail::scaleForward(A->Data.data(), Factor, Out->Data.data(),
                       A->Data.size());
  Tensor *AP = A.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP, Factor] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      for (size_t I = 0; I < OP->Data.size(); ++I)
        AG[I] += OG[I] * Factor;
    };
  return Out;
}

TensorPtr vega::scaleByScalar(const TensorPtr &A, const TensorPtr &S) {
  assert(S->Rows == 1 && S->Cols == 1 && "scalar expected");
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A, S});
  float Factor = S->Data[0];
  detail::scaleForward(A->Data.data(), Factor, Out->Data.data(),
                       A->Data.size());
  Tensor *AP = A.get(), *SP = S.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, SP, OP, Factor] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      float SGrad = 0.0f;
      for (size_t I = 0; I < OP->Data.size(); ++I) {
        AG[I] += OG[I] * Factor;
        SGrad += OG[I] * AP->Data[I];
      }
      SP->gradData()[0] += SGrad;
    };
  return Out;
}

TensorPtr vega::relu(const TensorPtr &A) {
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A});
  detail::reluForward(A->Data.data(), Out->Data.data(), A->Data.size());
  Tensor *AP = A.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      for (size_t I = 0; I < OP->Data.size(); ++I)
        if (AP->Data[I] > 0.0f)
          AG[I] += OG[I];
    };
  return Out;
}

TensorPtr vega::softmaxRows(const TensorPtr &A, const Tensor *Mask) {
  TensorPtr Out = makeResult(A->Rows, A->Cols, {A});
  detail::softmaxForward(A->Data.data(), Mask ? Mask->Data.data() : nullptr,
                         Out->Data.data(), A->Rows, A->Cols);
  Tensor *AP = A.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      const int C = OP->Cols;
      for (int I = 0; I < OP->Rows; ++I) {
        const float *OGRow = OG + static_cast<size_t>(I) * C;
        float *AGRow = AG + static_cast<size_t>(I) * C;
        float Dot = 0.0f;
        for (int J = 0; J < C; ++J)
          Dot += OGRow[J] * OP->at(I, J);
        for (int J = 0; J < C; ++J)
          AGRow[J] += OP->at(I, J) * (OGRow[J] - Dot);
      }
    };
  return Out;
}

TensorPtr vega::layerNorm(const TensorPtr &X, const TensorPtr &Gamma,
                          const TensorPtr &Beta) {
  assert(Gamma->Cols == X->Cols && Beta->Cols == X->Cols &&
         "layerNorm parameter shape mismatch");
  TensorPtr Out = makeResult(X->Rows, X->Cols, {X, Gamma, Beta});
  const int C = X->Cols;
  std::vector<float> Mean(X->Rows), InvStd(X->Rows);
  detail::layerNormForward(X->Data.data(), Gamma->Data.data(),
                           Beta->Data.data(), Out->Data.data(), Mean.data(),
                           InvStd.data(), X->Rows, C);
  Tensor *XP = X.get(), *GP = Gamma.get(), *BP = Beta.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [XP, GP, BP, OP, Mean, InvStd, C] {
      const float *OG = OP->gradData();
      float *XG = XP->gradData(), *GG = GP->gradData(), *BG = BP->gradData();
      for (int I = 0; I < XP->Rows; ++I) {
        // xhat = (x - mu) * inv; dL/dxhat = dy * gamma.
        const float *OGRow = OG + static_cast<size_t>(I) * C;
        float *XGRow = XG + static_cast<size_t>(I) * C;
        float SumDxhat = 0.0f, SumDxhatXhat = 0.0f;
        std::vector<float> Dxhat(static_cast<size_t>(C));
        for (int J = 0; J < C; ++J) {
          float Xhat = (XP->at(I, J) - Mean[I]) * InvStd[I];
          float Dy = OGRow[J];
          GG[static_cast<size_t>(J)] += Dy * Xhat;
          BG[static_cast<size_t>(J)] += Dy;
          Dxhat[static_cast<size_t>(J)] = Dy * GP->Data[static_cast<size_t>(J)];
          SumDxhat += Dxhat[static_cast<size_t>(J)];
          SumDxhatXhat += Dxhat[static_cast<size_t>(J)] * Xhat;
        }
        for (int J = 0; J < C; ++J) {
          float Xhat = (XP->at(I, J) - Mean[I]) * InvStd[I];
          XGRow[J] += InvStd[I] / C *
                      (C * Dxhat[static_cast<size_t>(J)] - SumDxhat -
                       Xhat * SumDxhatXhat);
        }
      }
    };
  return Out;
}

TensorPtr vega::gatherRows(const TensorPtr &E, const std::vector<int> &Ids) {
  TensorPtr Out = makeResult(static_cast<int>(Ids.size()), E->Cols, {E});
  const size_t C = static_cast<size_t>(E->Cols);
  for (size_t I = 0; I < Ids.size(); ++I) {
    assert(Ids[I] >= 0 && Ids[I] < E->Rows && "gather index out of range");
    std::copy_n(E->Data.data() + static_cast<size_t>(Ids[I]) * C, C,
                Out->Data.data() + I * C);
  }
  Tensor *EP = E.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [EP, OP, IdsCopy = Ids] {
      const float *OG = OP->gradData();
      float *EG = EP->gradData();
      const int C = OP->Cols;
      for (size_t I = 0; I < IdsCopy.size(); ++I)
        for (int J = 0; J < C; ++J)
          EG[static_cast<size_t>(IdsCopy[I]) * C + J] += OG[I * C + J];
    };
  return Out;
}

TensorPtr vega::sliceCols(const TensorPtr &A, int Start, int Count) {
  assert(Start >= 0 && Start + Count <= A->Cols && "slice out of range");
  TensorPtr Out = makeResult(A->Rows, Count, {A});
  for (int I = 0; I < A->Rows; ++I)
    std::copy_n(A->Data.data() + static_cast<size_t>(I) * A->Cols + Start,
                Count, Out->Data.data() + static_cast<size_t>(I) * Count);
  Tensor *AP = A.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP, Start, Count] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      for (int I = 0; I < OP->Rows; ++I)
        for (int J = 0; J < Count; ++J)
          AG[static_cast<size_t>(I) * AP->Cols + Start + J] +=
              OG[static_cast<size_t>(I) * Count + J];
    };
  return Out;
}

TensorPtr vega::concatCols(const std::vector<TensorPtr> &Parts) {
  assert(!Parts.empty() && "concat of nothing");
  int Rows = Parts.front()->Rows, Cols = 0;
  for (const TensorPtr &P : Parts) {
    assert(P->Rows == Rows && "concat row mismatch");
    Cols += P->Cols;
  }
  TensorPtr Out =
      makeResult(Rows, Cols, Parts.data(), Parts.data() + Parts.size());
  int Offset = 0;
  for (const TensorPtr &P : Parts) {
    for (int I = 0; I < Rows; ++I)
      std::copy_n(P->Data.data() + static_cast<size_t>(I) * P->Cols, P->Cols,
                  Out->Data.data() + static_cast<size_t>(I) * Cols + Offset);
    Offset += P->Cols;
  }
  if (Out->RequiresGrad) {
    Tensor *OP = Out.get();
    std::vector<Tensor *> Raw;
    for (const TensorPtr &P : Parts)
      Raw.push_back(P.get());
    Out->Backward = [OP, Raw] {
      const float *OG = OP->gradData();
      int Offset = 0;
      for (Tensor *P : Raw) {
        float *PG = P->gradData();
        for (int I = 0; I < OP->Rows; ++I)
          for (int J = 0; J < P->Cols; ++J)
            PG[static_cast<size_t>(I) * P->Cols + J] +=
                OG[static_cast<size_t>(I) * OP->Cols + Offset + J];
        Offset += P->Cols;
      }
    };
  }
  return Out;
}

TensorPtr vega::copyScatter(const TensorPtr &A, const std::vector<int> &SrcIds,
                            int VocabSize) {
  assert(A->Cols == static_cast<int>(SrcIds.size()) &&
         "copyScatter width must match source length");
  TensorPtr Out = makeResult(A->Rows, VocabSize, {A});
  for (int T = 0; T < A->Rows; ++T)
    for (size_t J = 0; J < SrcIds.size(); ++J)
      Out->at(T, SrcIds[J]) += A->at(T, static_cast<int>(J));
  Tensor *AP = A.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP, Ids = SrcIds] {
      const float *OG = OP->gradData();
      float *AG = AP->gradData();
      for (int T = 0; T < AP->Rows; ++T)
        for (size_t J = 0; J < Ids.size(); ++J)
          AG[static_cast<size_t>(T) * AP->Cols + J] +=
              OG[static_cast<size_t>(T) * OP->Cols + Ids[J]];
    };
  return Out;
}

TensorPtr vega::sparseMix(const TensorPtr &E,
                          const std::vector<std::vector<int>> &Lists) {
  TensorPtr Out = makeResult(static_cast<int>(Lists.size()), E->Cols, {E});
  detail::sparseMixForward(E->Data.data(), E->Cols, Lists, Out->Data.data());
  Tensor *EP = E.get(), *OP = Out.get();
  // The closure keeps its own copy: callers' lists need not outlive the
  // tape.
  if (Out->RequiresGrad)
    Out->Backward = [EP, OP, ListsCopy = Lists] {
      const float *OG = OP->gradData();
      float *EG = EP->gradData();
      const int C = OP->Cols;
      for (size_t I = 0; I < ListsCopy.size(); ++I) {
        if (ListsCopy[I].empty())
          continue;
        float Inv = 1.0f / static_cast<float>(ListsCopy[I].size());
        for (int P : ListsCopy[I])
          for (int J = 0; J < C; ++J)
            EG[static_cast<size_t>(P) * C + J] += OG[I * C + J] * Inv;
      }
    };
  return Out;
}

TensorPtr vega::crossEntropy(const TensorPtr &Logits,
                             const std::vector<int> &Targets) {
  assert(Logits->Rows == static_cast<int>(Targets.size()) &&
         "one target per logit row");
  TensorPtr Out = makeResult(1, 1, {Logits});
  const int V = Logits->Cols;
  std::vector<float> Probs(Logits->Data.size());
  float Loss = 0.0f;
  for (int I = 0; I < Logits->Rows; ++I) {
    float Max = -1e30f;
    for (int J = 0; J < V; ++J)
      Max = std::max(Max, Logits->at(I, J));
    float Sum = 0.0f;
    for (int J = 0; J < V; ++J) {
      float E = std::exp(Logits->at(I, J) - Max);
      Probs[static_cast<size_t>(I) * V + J] = E;
      Sum += E;
    }
    for (int J = 0; J < V; ++J)
      Probs[static_cast<size_t>(I) * V + J] /= Sum;
    Loss -= std::log(Probs[static_cast<size_t>(I) * V + Targets[I]] + 1e-12f);
  }
  Out->Data[0] = Loss / static_cast<float>(Logits->Rows);
  Tensor *LP = Logits.get(), *OP = Out.get();
  if (Out->RequiresGrad)
    Out->Backward = [LP, OP, Probs, T = Targets, V] {
      float Scale = OP->gradData()[0] / static_cast<float>(LP->Rows);
      float *LG = LP->gradData();
      for (int I = 0; I < LP->Rows; ++I)
        for (int J = 0; J < V; ++J) {
          float P = Probs[static_cast<size_t>(I) * V + J];
          LG[static_cast<size_t>(I) * V + J] +=
              Scale * (P - (J == T[I] ? 1.0f : 0.0f));
        }
    };
  return Out;
}

static void topoSort(Tensor *Node, std::vector<Tensor *> &Order,
                     std::unordered_set<const Tensor *> &Seen) {
  if (!Seen.insert(Node).second)
    return;
  for (const TensorPtr &P : Node->Parents)
    topoSort(P.get(), Order, Seen);
  Order.push_back(Node);
}

void vega::backward(const TensorPtr &Root) {
  // The visited set lives on this stack frame (not in the tensors), so
  // tapes that share nodes can be walked from several threads at once.
  std::vector<Tensor *> Order;
  std::unordered_set<const Tensor *> Seen;
  topoSort(Root.get(), Order, Seen);
  // Gradients are lazy: materialize them only for the tape actually being
  // walked. Existing buffers (mid-batch accumulation) are left untouched.
  // Tensors tracked by this thread's GradSink accumulate into the sink's
  // buffers instead — never touch their shared Grad storage here.
  for (Tensor *Node : Order)
    if (!GradSink::activeFor(Node))
      Node->ensureGrad();
  float *RootGrad = Root->gradData();
  std::fill(RootGrad, RootGrad + Root->Data.size(), 0.0f);
  RootGrad[0] = 1.0f;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It)
    if ((*It)->Backward)
      (*It)->Backward();
}

AdamOptimizer::AdamOptimizer(std::vector<TensorPtr> Params,
                             float LearningRate)
    : Params(std::move(Params)), LearningRate(LearningRate) {
  for (const TensorPtr &P : this->Params) {
    P->ensureGrad();
    M.emplace_back(P->Data.size(), 0.0f);
    V.emplace_back(P->Data.size(), 0.0f);
  }
}

void AdamOptimizer::step() {
  ++StepCount;
  float Bias1 = 1.0f - std::pow(Beta1, static_cast<float>(StepCount));
  float Bias2 = 1.0f - std::pow(Beta2, static_cast<float>(StepCount));
  for (size_t P = 0; P < Params.size(); ++P) {
    Tensor &T = *Params[P];
    for (size_t I = 0; I < T.Data.size(); ++I) {
      float G = T.Grad[I];
      M[P][I] = Beta1 * M[P][I] + (1.0f - Beta1) * G;
      V[P][I] = Beta2 * V[P][I] + (1.0f - Beta2) * G * G;
      float MHat = M[P][I] / Bias1;
      float VHat = V[P][I] / Bias2;
      T.Data[I] -= LearningRate * MHat / (std::sqrt(VHat) + Eps);
    }
    T.zeroGrad();
  }
}

void AdamOptimizer::zeroGrad() {
  for (const TensorPtr &P : Params)
    P->zeroGrad();
}
