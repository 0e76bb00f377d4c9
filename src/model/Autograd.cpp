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

TensorPtr makeResult(int Rows, int Cols,
                     std::initializer_list<TensorPtr> Parents) {
  // Under a NoGradGuard the result is a plain value: no parent links (so
  // intermediates die with their last reference) and RequiresGrad=false
  // (so the op skips allocating its backward closure).
  if (NoGradDepth > 0)
    return makeTensor(Rows, Cols, /*RequiresGrad=*/false);
  bool NeedsGrad = false;
  for (const TensorPtr &P : Parents)
    if (P->RequiresGrad || P->Backward)
      NeedsGrad = true;
  // Grad buffers stay unallocated here; backward() materializes them for
  // the tapes it actually walks, so inference never pays for them.
  TensorPtr Out = makeTensor(Rows, Cols, NeedsGrad);
  for (const TensorPtr &P : Parents)
    Out->Parents.push_back(P);
  return Out;
}

} // namespace

NoGradGuard::NoGradGuard() { ++NoGradDepth; }
NoGradGuard::~NoGradGuard() { --NoGradDepth; }
bool NoGradGuard::active() { return NoGradDepth > 0; }

void vega::detail::gemmAccum(const float *A, const float *B, float *C, int M,
                             int K, int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    int P = 0;
    for (; P + 4 <= K; P += 4) {
      float A0 = ARow[P], A1 = ARow[P + 1], A2 = ARow[P + 2],
            A3 = ARow[P + 3];
      if (A0 != 0.0f && A1 != 0.0f && A2 != 0.0f && A3 != 0.0f) {
        const float *B0 = B + static_cast<size_t>(P) * N;
        const float *B1 = B0 + N, *B2 = B1 + N, *B3 = B2 + N;
        for (int J = 0; J < N; ++J) {
          float Acc = CRow[J];
          Acc += A0 * B0[J];
          Acc += A1 * B1[J];
          Acc += A2 * B2[J];
          Acc += A3 * B3[J];
          CRow[J] = Acc;
        }
      } else {
        // Mixed zero/non-zero rank-4 block: keep the skip-aware scalar
        // schedule so 0·x products are never formed (x may be inf/NaN).
        for (int T = 0; T < 4; ++T) {
          float AV = ARow[P + T];
          if (AV == 0.0f)
            continue;
          const float *BRow = B + static_cast<size_t>(P + T) * N;
          for (int J = 0; J < N; ++J)
            CRow[J] += AV * BRow[J];
        }
      }
    }
    for (; P < K; ++P) {
      float AV = ARow[P];
      if (AV == 0.0f)
        continue;
      const float *BRow = B + static_cast<size_t>(P) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * BRow[J];
    }
  }
}

void vega::detail::gemmNT(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  constexpr int JT = 4;
  int J = 0;
  if (M >= 8 && N >= JT) {
    // Packed panel path: interleave a 4-row B panel once and stream it for
    // every row of A, turning four strided operand streams into one.
    thread_local std::vector<float> Packed;
    Packed.resize(static_cast<size_t>(JT) * K);
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      for (int P = 0; P < K; ++P) {
        Packed[static_cast<size_t>(P) * JT + 0] = B0[P];
        Packed[static_cast<size_t>(P) * JT + 1] = B1[P];
        Packed[static_cast<size_t>(P) * JT + 2] = B2[P];
        Packed[static_cast<size_t>(P) * JT + 3] = B3[P];
      }
      for (int I = 0; I < M; ++I) {
        const float *ARow = A + static_cast<size_t>(I) * K;
        const float *Pk = Packed.data();
        float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
        for (int P = 0; P < K; ++P) {
          float AV = ARow[P];
          C0 += AV * Pk[0];
          C1 += AV * Pk[1];
          C2 += AV * Pk[2];
          C3 += AV * Pk[3];
          Pk += JT;
        }
        float *CRow = C + static_cast<size_t>(I) * N;
        CRow[J] = C0;
        CRow[J + 1] = C1;
        CRow[J + 2] = C2;
        CRow[J + 3] = C3;
      }
    }
  } else {
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      for (int I = 0; I < M; ++I) {
        const float *ARow = A + static_cast<size_t>(I) * K;
        float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
        for (int P = 0; P < K; ++P) {
          float AV = ARow[P];
          C0 += AV * B0[P];
          C1 += AV * B1[P];
          C2 += AV * B2[P];
          C3 += AV * B3[P];
        }
        float *CRow = C + static_cast<size_t>(I) * N;
        CRow[J] = C0;
        CRow[J + 1] = C1;
        CRow[J + 2] = C2;
        CRow[J + 3] = C3;
      }
    }
  }
  for (; J < N; ++J) {
    const float *BRow = B + static_cast<size_t>(J) * K;
    for (int I = 0; I < M; ++I) {
      const float *ARow = A + static_cast<size_t>(I) * K;
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P)
        Acc += ARow[P] * BRow[P];
      C[static_cast<size_t>(I) * N + J] = Acc;
    }
  }
}

void vega::detail::gemmNTAccum(const float *A, const float *B, float *C,
                               int M, int K, int N) {
  constexpr int JT = 4;
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    int J = 0;
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
      for (int P = 0; P < K; ++P) {
        float AV = ARow[P];
        C0 += AV * B0[P];
        C1 += AV * B1[P];
        C2 += AV * B2[P];
        C3 += AV * B3[P];
      }
      CRow[J] += C0;
      CRow[J + 1] += C1;
      CRow[J + 2] += C2;
      CRow[J + 3] += C3;
    }
    for (; J < N; ++J) {
      const float *BRow = B + static_cast<size_t>(J) * K;
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P)
        Acc += ARow[P] * BRow[P];
      CRow[J] += Acc;
    }
  }
}

void vega::detail::gemmTNAccum(const float *A, const float *G, float *C,
                               int M, int K, int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    const float *GRow = G + static_cast<size_t>(I) * N;
    int P = 0;
    for (; P + 2 <= K; P += 2) {
      float A0 = ARow[P], A1 = ARow[P + 1];
      float *C0 = C + static_cast<size_t>(P) * N;
      float *C1 = C0 + N;
      if (A0 != 0.0f && A1 != 0.0f) {
        for (int J = 0; J < N; ++J) {
          C0[J] += A0 * GRow[J];
          C1[J] += A1 * GRow[J];
        }
      } else {
        if (A0 != 0.0f)
          for (int J = 0; J < N; ++J)
            C0[J] += A0 * GRow[J];
        if (A1 != 0.0f)
          for (int J = 0; J < N; ++J)
            C1[J] += A1 * GRow[J];
      }
    }
    for (; P < K; ++P) {
      float AV = ARow[P];
      if (AV == 0.0f)
        continue;
      float *CRow = C + static_cast<size_t>(P) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * GRow[J];
    }
  }
}

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
  for (size_t I = 0; I < Out->Data.size(); ++I)
    Out->Data[I] = A->Data[I] + B->Data[I];
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
  for (int I = 0; I < A->Rows; ++I)
    for (int J = 0; J < A->Cols; ++J)
      Out->at(I, J) = A->at(I, J) + B->Data[static_cast<size_t>(J)];
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
  for (size_t I = 0; I < A->Data.size(); ++I)
    Out->Data[I] = A->Data[I] * Factor;
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
  for (size_t I = 0; I < A->Data.size(); ++I)
    Out->Data[I] = A->Data[I] * Factor;
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
  for (size_t I = 0; I < A->Data.size(); ++I)
    Out->Data[I] = A->Data[I] > 0.0f ? A->Data[I] : 0.0f;
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
  for (int I = 0; I < A->Rows; ++I) {
    float Max = -1e30f;
    for (int J = 0; J < A->Cols; ++J) {
      float V = A->at(I, J) + (Mask ? Mask->at(I, J) : 0.0f);
      Max = std::max(Max, V);
    }
    float Sum = 0.0f;
    for (int J = 0; J < A->Cols; ++J) {
      float V = A->at(I, J) + (Mask ? Mask->at(I, J) : 0.0f);
      float E = std::exp(V - Max);
      Out->at(I, J) = E;
      Sum += E;
    }
    for (int J = 0; J < A->Cols; ++J)
      Out->at(I, J) /= Sum;
  }
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
  for (int I = 0; I < X->Rows; ++I) {
    float Mu = 0.0f;
    for (int J = 0; J < C; ++J)
      Mu += X->at(I, J);
    Mu /= C;
    float Var = 0.0f;
    for (int J = 0; J < C; ++J) {
      float D = X->at(I, J) - Mu;
      Var += D * D;
    }
    Var /= C;
    float Inv = 1.0f / std::sqrt(Var + 1e-5f);
    Mean[I] = Mu;
    InvStd[I] = Inv;
    for (int J = 0; J < C; ++J)
      Out->at(I, J) =
          (X->at(I, J) - Mu) * Inv * Gamma->Data[static_cast<size_t>(J)] +
          Beta->Data[static_cast<size_t>(J)];
  }
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
  for (size_t I = 0; I < Ids.size(); ++I) {
    assert(Ids[I] >= 0 && Ids[I] < E->Rows && "gather index out of range");
    for (int J = 0; J < E->Cols; ++J)
      Out->at(static_cast<int>(I), J) = E->at(Ids[I], J);
  }
  Tensor *EP = E.get(), *OP = Out.get();
  std::vector<int> IdsCopy = Ids;
  if (Out->RequiresGrad)
    Out->Backward = [EP, OP, IdsCopy] {
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
    for (int J = 0; J < Count; ++J)
      Out->at(I, J) = A->at(I, Start + J);
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
  TensorPtr Out = makeTensor(Rows, Cols, true);
  for (const TensorPtr &P : Parts)
    Out->Parents.push_back(P);
  int Offset = 0;
  for (const TensorPtr &P : Parts) {
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < P->Cols; ++J)
        Out->at(I, Offset + J) = P->at(I, J);
    Offset += P->Cols;
  }
  Tensor *OP = Out.get();
  std::vector<Tensor *> Raw;
  for (const TensorPtr &P : Parts)
    Raw.push_back(P.get());
  if (Out->RequiresGrad)
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
  std::vector<int> Ids = SrcIds;
  if (Out->RequiresGrad)
    Out->Backward = [AP, OP, Ids] {
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
  for (size_t I = 0; I < Lists.size(); ++I) {
    if (Lists[I].empty())
      continue;
    float Inv = 1.0f / static_cast<float>(Lists[I].size());
    for (int P : Lists[I])
      for (int J = 0; J < E->Cols; ++J)
        Out->at(static_cast<int>(I), J) += E->at(P, J) * Inv;
  }
  Tensor *EP = E.get(), *OP = Out.get();
  const std::vector<std::vector<int>> *ListsPtr = &Lists;
  // Lists outlive the tape in our usage (owned by the Vocab); copy anyway
  // for safety in tests.
  std::vector<std::vector<int>> ListsCopy = *ListsPtr;
  if (Out->RequiresGrad)
    Out->Backward = [EP, OP, ListsCopy] {
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
  std::vector<int> T = Targets;
  if (Out->RequiresGrad)
    Out->Backward = [LP, OP, Probs, T, V] {
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
