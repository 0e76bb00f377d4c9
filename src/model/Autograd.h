//===- model/Autograd.h - Tape-based reverse-mode autodiff -------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small reverse-mode automatic-differentiation engine over dense float
/// matrices — the substrate for the CodeBE transformer (the paper fine-tunes
/// UniXcoder; we train an architecturally equivalent model at laptop scale,
/// see DESIGN.md §2). Operations build a tape; backward() propagates
/// gradients in reverse topological order.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_MODEL_AUTOGRAD_H
#define VEGA_MODEL_AUTOGRAD_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace vega {

class Tensor;
using TensorPtr = std::shared_ptr<Tensor>;

/// A dense R×C float matrix with an optional gradient and a backward hook.
class Tensor {
public:
  /// Gradient storage is lazy: it materializes on the first backward()
  /// touch (or an explicit ensureGrad()), so inference-only tapes never
  /// allocate Grad buffers at all.
  Tensor(int Rows, int Cols, bool RequiresGrad)
      : Rows(Rows), Cols(Cols), RequiresGrad(RequiresGrad),
        Data(static_cast<size_t>(Rows) * Cols, 0.0f) {}

  int rows() const { return Rows; }
  int cols() const { return Cols; }
  size_t size() const { return Data.size(); }

  float &at(int R, int C) { return Data[static_cast<size_t>(R) * Cols + C]; }
  float at(int R, int C) const {
    return Data[static_cast<size_t>(R) * Cols + C];
  }
  float &gradAt(int R, int C) {
    return Grad[static_cast<size_t>(R) * Cols + C];
  }

  /// Gradient destination for backward closures: when a GradSink is active
  /// on this thread and tracks this tensor, its per-sink buffer; otherwise
  /// the tensor's own (lazily materialized) Grad buffer. This is the hook
  /// that lets several tapes sharing leaf tensors run backward()
  /// concurrently without ever writing the same memory.
  float *gradData();

  /// Ensures a gradient buffer exists (used when a no-grad tensor becomes
  /// part of a differentiable expression).
  void ensureGrad() {
    if (Grad.size() != Data.size())
      Grad.assign(Data.size(), 0.0f);
  }
  void zeroGrad() { std::fill(Grad.begin(), Grad.end(), 0.0f); }

  int Rows, Cols;
  bool RequiresGrad;
  std::vector<float> Data;
  std::vector<float> Grad;
  std::vector<TensorPtr> Parents;
  std::function<void()> Backward;
};

/// A private gradient accumulator for tensors shared between concurrently
/// walked tapes (model parameters, batch-shared embedding subtrees).
///
/// Each training lane owns one sink per in-flight example. While a sink is
/// active on a thread (via GradSink::Scope), every backward closure that
/// would accumulate into a tracked tensor's Grad is redirected to the
/// sink's own buffer for that tensor, so concurrent example tapes touch
/// disjoint memory by construction. After the batch, the per-example
/// buffers are folded into the real Grad buffers in ascending example
/// order — a fixed-order reduction that makes the summed gradient
/// bit-identical no matter how many threads ran the examples.
class GradSink {
public:
  GradSink() = default;

  /// (Re)binds the sink to an ordered tensor set. Buffer allocations are
  /// reused across track() calls when the shapes at each index match (the
  /// steady state: parameters plus same-shaped per-batch shared nodes).
  void track(const std::vector<TensorPtr> &Tensors);

  /// Zeroes every buffer for reuse on the next example.
  void zero();

  /// The sink's buffer for \p T, or nullptr when untracked.
  float *bufferFor(const Tensor *T);

  size_t trackedCount() const { return Tracked.size(); }
  const Tensor *trackedAt(size_t I) const { return Tracked[I]; }
  const std::vector<float> &bufferAt(size_t I) const { return Buffers[I]; }

  /// RAII activation of a sink on the current thread. Nesting restores the
  /// previous sink on destruction; sinks never leak across threads.
  class Scope {
  public:
    explicit Scope(GradSink &S);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    GradSink *Prev;
  };

  /// True when the active sink on this thread tracks \p T (used by
  /// backward() to skip materializing Grad on shared tensors from worker
  /// threads).
  static bool activeFor(const Tensor *T);

private:
  std::vector<const Tensor *> Tracked;
  std::unordered_map<const Tensor *, size_t> Index;
  std::vector<std::vector<float>> Buffers;
};

/// Creates a tensor of zeros.
TensorPtr makeTensor(int Rows, int Cols, bool RequiresGrad = false);

/// Creates a parameter initialized with uniform(-Scale, Scale) noise.
TensorPtr makeParam(int Rows, int Cols, float Scale, uint64_t Seed);

// ---- Differentiable operations (each returns a new tape node) ----

/// C = A · B.
TensorPtr matmul(const TensorPtr &A, const TensorPtr &B);

/// C = A · Bᵀ.
TensorPtr matmulNT(const TensorPtr &A, const TensorPtr &B);

/// Elementwise sum (same shape).
TensorPtr add(const TensorPtr &A, const TensorPtr &B);

/// Adds row vector \p B (1×C) to every row of \p A.
TensorPtr addRow(const TensorPtr &A, const TensorPtr &B);

/// Multiplies by a compile-time constant.
TensorPtr scale(const TensorPtr &A, float Factor);

/// Multiplies every element by a learned 1×1 tensor.
TensorPtr scaleByScalar(const TensorPtr &A, const TensorPtr &S);

/// Elementwise ReLU.
TensorPtr relu(const TensorPtr &A);

/// Row-wise softmax with an optional additive mask (same shape, no grad).
TensorPtr softmaxRows(const TensorPtr &A, const Tensor *Mask = nullptr);

/// Row-wise layer normalization with learned gain/bias (1×C each).
TensorPtr layerNorm(const TensorPtr &X, const TensorPtr &Gamma,
                    const TensorPtr &Beta);

/// Gathers rows of \p E by \p Ids (result |Ids|×C); backward scatter-adds.
TensorPtr gatherRows(const TensorPtr &E, const std::vector<int> &Ids);

/// Column slice [Start, Start+Count).
TensorPtr sliceCols(const TensorPtr &A, int Start, int Count);

/// Horizontal concatenation of equal-row tensors.
TensorPtr concatCols(const std::vector<TensorPtr> &Parts);

/// Copy-attention scatter: Out[t, SrcIds[j]] += A[t, j]. Out is T×VocabSize.
TensorPtr copyScatter(const TensorPtr &A, const std::vector<int> &SrcIds,
                      int VocabSize);

/// Sparse row mixture: Out[i] = mean over Lists[i] of E's rows (Out has
/// |Lists| rows). Rows with empty lists are zero. Used for piece-composed
/// token embeddings (the BPE-like compositionality of the vocabulary).
TensorPtr sparseMix(const TensorPtr &E,
                    const std::vector<std::vector<int>> &Lists);

/// Mean cross-entropy of row-logits vs target ids; result is 1×1.
/// Backward seeds softmax-minus-onehot into the logits.
TensorPtr crossEntropy(const TensorPtr &Logits,
                       const std::vector<int> &Targets);

/// Runs reverse-mode accumulation from \p Root (seeds dRoot = 1). The
/// traversal keeps its visited set on the stack, so tapes that share leaf
/// tensors (parameters under a GradSink) can run backward() from different
/// threads at once.
void backward(const TensorPtr &Root);

/// RAII scope that disables tape construction on the current thread: ops
/// still compute identical values but record no parents and allocate no
/// backward closures, so intermediates are freed as soon as they go out of
/// scope. Inference entry points (CodeBE::generate) hold one of these;
/// nestable; thread-local, so generation workers never affect training.
class NoGradGuard {
public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard &) = delete;
  NoGradGuard &operator=(const NoGradGuard &) = delete;

  /// True while any NoGradGuard is alive on this thread.
  static bool active();
};

namespace detail {

/// GEMM kernels behind matmul/matmulNT (forward and backward). They
/// vectorize across independent output columns, eight at a time, and keep
/// every output element's accumulation chain c = fl(c + fl(a·b)) in
/// ascending inner-dimension order with no fused multiply-add, so results
/// are bit-identical to the naive triple loops on every instruction set.
/// An AVX2 variant and an x86-64 baseline variant are built from one
/// source; the choice is made once, at load time. Exposed here so tests and
/// microbenchmarks can call them directly.

/// C += A·B (A: M×K, B: K×N, C: M×N). A zero entry A[i,p] skips its step
/// for row i, so no 0·x product is formed (x may be inf; attention rows
/// are sparse after masking).
void gemmAccum(const float *A, const float *B, float *C, int M, int K,
               int N);

/// C = A·Bᵀ (A: M×K, B: N×K, C: M×N). Chains start at +0.0f and skip
/// nothing. B is packed into a transposed panel when M ≥ 8 and transposed
/// 8×8 in registers otherwise (the one-row decode step).
void gemmNT(const float *A, const float *B, float *C, int M, int K, int N);

/// C += A·Bᵀ — the dA = dO·Bᵀ step of matmul backward. Each chain starts
/// at +0.0f and is added to C once at the end.
void gemmNTAccum(const float *A, const float *B, float *C, int M, int K,
                 int N);

/// C += Aᵀ·G (A: M×K, G: M×N, C: K×N) — the dB = Aᵀ·dO step of matmul
/// backward, with the same zero skip as gemmAccum on the entries of A.
void gemmTNAccum(const float *A, const float *G, float *C, int M, int K,
                 int N);

/// The kernel variant this process runs: "avx2" or "default". Mirrors the
/// load-time choice, for benchmark provenance.
const char *gemmVariant();

} // namespace detail

/// Adam optimizer over a fixed parameter list.
class AdamOptimizer {
public:
  AdamOptimizer(std::vector<TensorPtr> Params, float LearningRate);

  /// Applies one update from accumulated gradients, then clears them.
  void step();

  /// Clears gradients without updating.
  void zeroGrad();

  void setLearningRate(float LR) { LearningRate = LR; }

private:
  std::vector<TensorPtr> Params;
  std::vector<std::vector<float>> M, V;
  float LearningRate;
  float Beta1 = 0.9f, Beta2 = 0.999f, Eps = 1e-8f;
  long StepCount = 0;
};

} // namespace vega

#endif // VEGA_MODEL_AUTOGRAD_H
