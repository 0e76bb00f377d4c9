//===- model/CodeBE.h - The CodeBE transformer -------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CodeBE (§3.3): a transformer encoder-decoder fine-tuned to map feature
/// vectors (input sequences) to confidence-scored statements (output
/// sequences). The paper fine-tunes UniXcoder (12 layers / 125M params on
/// 8×V100); this is the architecturally equivalent laptop-scale model:
/// token+position embeddings with word-piece composition (BPE stand-in),
/// multi-head self/cross attention, and a pointer/copy head — the
/// copy-from-input ability a large pre-trained code model brings for free.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_MODEL_CODEBE_H
#define VEGA_MODEL_CODEBE_H

#include "model/Autograd.h"
#include "model/EncodeMemo.h"
#include "model/Vocab.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace vega {

namespace model {
class Trainer;
} // namespace model

/// Hyperparameters (paper §4.1.2 scaled down; see DESIGN.md §2).
struct CodeBEConfig {
  int DModel = 64;
  int Heads = 4;
  int EncLayers = 2;
  int DecLayers = 2;
  int FFDim = 192;
  int MaxSrcLen = 128;
  int MaxDstLen = 48;
  float LearningRate = 1e-3f;
  int Epochs = 2;
  int BatchSize = 8;
  uint64_t Seed = 42;

  /// A stable fingerprint of the architecture (for cache validation).
  uint64_t fingerprint() const;
};

/// One fine-tuning example: input sequence I_k → output sequence O_k.
struct TrainPair {
  std::vector<int> Src;
  std::vector<int> Dst; ///< starts with a CS bucket token, ends with [EOS]
};

/// The sequence-to-sequence model.
class CodeBE {
public:
  CodeBE(Vocab Vocabulary, CodeBEConfig Config);

  /// Greedy decode for \p Src. When \p Allowed is non-null (one byte per
  /// vocab id), decoding is constrained to the allowed set — the
  /// grammar-constrained decoding used during backend generation ([EOS] and
  /// the CS buckets are always allowed).
  struct Decoded {
    std::vector<int> Tokens;   ///< without the trailing [EOS]
    std::vector<double> Probs; ///< per-token chosen probability
  };

  /// Template-guided decoding plan: per output position, the set of
  /// admissible token ids (empty set = fall back to \p Allowed /
  /// unconstrained). Positions beyond the plan force [EOS]. This is how
  /// Stage 3 "customizes function templates": the skeleton is fixed, the
  /// model chooses confidence buckets and placeholder fillers.
  struct DecodePlan {
    std::vector<std::vector<int>> Steps;
    /// Optional per-position additive logit biases (e.g. the lexical
    /// affinity prior standing in for pre-trained subword morphology;
    /// DESIGN.md §2). Indexed like Steps; missing entries mean no bias.
    std::vector<std::map<int, float>> Bias;
  };

  /// When \p WithProbs is false, the per-token probability pass (a full
  /// softmax over the vocabulary at every step) is skipped and
  /// Decoded::Probs comes back empty; token choice is unaffected. Stage 3
  /// reads the confidence bucket, not the probabilities, so it decodes
  /// with WithProbs=false.
  ///
  /// On the KV-cache path a decode without probabilities also computes only
  /// what the greedy choice reads. A pinned position after the plan's last
  /// free one (the last whose set is not a singleton; an empty set is free)
  /// appends its token with no decoder pass, since no later position
  /// attends over it; a position with several admissible ids scores only
  /// those columns instead of the 1×V logit row. Both choose the tokens a
  /// WithProbs decode of the same plan chooses.
  Decoded generate(const std::vector<int> &Src,
                   const std::vector<uint8_t> *Allowed = nullptr,
                   const DecodePlan *Plan = nullptr, bool WithProbs = true);

  /// One ranked beam-search candidate.
  struct BeamHypothesis {
    std::vector<int> Tokens; ///< without the trailing [EOS]
    /// Sum of per-token log-probabilities under the same normalizer
    /// generate() uses for its confidence pass (plan biases included for
    /// the chosen token, so beam ranking agrees with greedy choice).
    double Score = 0.0;
  };

  /// Beam/top-k decoding for \p Src under the same constraints as
  /// generate(): up to \p Width hypotheses ranked best-first. Always runs
  /// on the KV-cache path (each hypothesis forks its own cache; the cross
  /// projections are shared read-only). Deterministic at any thread count:
  /// no RNG, and exact score ties resolve by expansion order (parent rank,
  /// then admissible-set order), so Width=1 reproduces the greedy decode.
  /// Duplicate token sequences are collapsed to their best-scoring copy.
  std::vector<BeamHypothesis> decodeBeam(const std::vector<int> &Src,
                                         int Width,
                                         const std::vector<uint8_t> *Allowed = nullptr,
                                         const DecodePlan *Plan = nullptr);

  /// Decode strategy. KVCache (the default) caches per-layer self-attention
  /// K/V rows and the cross-attention memory projections so each step does
  /// O(prefix) work instead of re-running the decoder over the whole prefix
  /// — bit-identical to FullRecompute because the causal mask zeroes future
  /// positions exactly (exp(-1e9) underflows to 0.0f) and every kernel
  /// keeps per-element accumulation order fixed. FullRecompute is kept as
  /// the reference path for equivalence tests and benchmarks.
  enum class DecodeMode { KVCache, FullRecompute };
  void setDecodeMode(DecodeMode M) { Mode = M; }
  DecodeMode decodeMode() const { return Mode; }

  /// Readies the model for concurrent generate() calls: forces the shared
  /// inference embedding cache fresh so worker threads never race to build
  /// it. generate() is safe to call from many threads afterwards, provided
  /// no train()/loadWeights() runs concurrently.
  void prepareGenerate();

  /// Fraction of pairs whose greedy decode exactly matches Dst (the paper's
  /// Exact Match score, §4.1.2).
  double exactMatch(const std::vector<TrainPair> &Data);

  const Vocab &vocab() const { return Vocabulary; }
  const CodeBEConfig &config() const { return Config; }

  /// Raw weight blob (for on-disk caching of the fine-tuned model).
  std::string saveWeights() const;

  /// Restores weights; false on shape mismatch.
  bool loadWeights(const std::string &Blob);

private:
  struct LinearP {
    TensorPtr W, B;
  };
  struct LNP {
    TensorPtr G, B;
  };
  struct MHAP {
    LinearP Q, K, V, O;
  };
  struct EncLayerP {
    MHAP Self;
    LNP N1;
    LinearP F1, F2;
    LNP N2;
  };
  struct DecLayerP {
    MHAP Self;
    LNP N1;
    MHAP Cross;
    LNP N2;
    LinearP F1, F2;
    LNP N3;
  };

  /// An immutable, refcount-shared run of decoded K/V rows (see
  /// KVCacheState in CodeBE.cpp).
  struct KVPrefix;
  /// Per-call incremental decode scratch (one per generate() invocation,
  /// so concurrent decodes never share mutable state).
  struct KVCacheState;
  /// One greedy KV-cached decode in progress (see decodeGreedyKV()).
  struct GreedyDecode;

  /// \p Src cut to MaxSrcLen: the input every encoder pass sees.
  std::vector<int> clippedSource(const std::vector<int> &Src) const;
  /// The encoder memory of \p Input, from the memo or from an encoder run
  /// (the model.encode span, opened only on a miss), and the decode scratch
  /// over it: cross-attention K/V projected once and sliced per head, empty
  /// self-attention rows.
  KVCacheState encodeForDecode(const std::vector<int> &Input);
  /// Whether the unconstrained-step mask \p Allowed admits \p Id ([EOS]
  /// and the CS buckets always pass; a null mask admits everything).
  bool isAllowed(const std::vector<uint8_t> *Allowed, int Id) const;
  TensorPtr linear(const TensorPtr &X, const LinearP &P);
  /// Feeds one token through the decoder using (and extending) the K/V
  /// cache; returns the new 1×DModel decoder output row.
  TensorPtr decodeStep(KVCacheState &St, int TokenId);
  TensorPtr attention(const TensorPtr &XQ, const TensorPtr &XKV,
                      const MHAP &P, const Tensor *Mask);
  TensorPtr encLayer(const TensorPtr &X, EncLayerP &L);
  TensorPtr decLayer(const TensorPtr &X, const TensorPtr &Memory,
                     DecLayerP &L, const Tensor *CausalMask);
  TensorPtr embed(const std::vector<int> &Ids, const TensorPtr &Pos);
  TensorPtr runEncoder(const std::vector<int> &Src);
  TensorPtr runDecoder(const TensorPtr &Memory, const std::vector<int> &DstIn);
  /// One-row-per-step decoding recomputes the source-presence bias tensor
  /// identically every step; presenceFor builds it once and logitsFor
  /// accepts it pre-computed (\p CachedPresence, matched on row count).
  TensorPtr presenceFor(int Rows, const std::vector<int> &SrcIds);
  /// The copy head's attention over the encoder memory (one softmax row
  /// per decoder row), before its mass is scattered onto source ids.
  TensorPtr copyAttention(const TensorPtr &DecOut, const TensorPtr &Memory);
  TensorPtr logitsFor(const TensorPtr &DecOut, const TensorPtr &Memory,
                      const std::vector<int> &SrcIds, bool UseCombCache,
                      const TensorPtr &CachedPresence = nullptr,
                      const TensorPtr &CombOverride = nullptr);
  /// chooseGreedy's choice over plan set \p Set for decoder row \p DecRow
  /// without building the 1×V row: each in-range id's logit is computed
  /// alone, byte-identical to that element of logitsFor's inference row.
  /// Returns -1 when no id is in range.
  int chooseByColumns(const TensorPtr &DecRow, const TensorPtr &Memory,
                      const std::vector<int> &SrcIds,
                      const std::vector<int> &Set,
                      const std::map<int, float> *Bias);
  /// Builds the full differentiable tape for one training pair — the
  /// encoder/decoder/logits/loss slice the Trainer fans out per example.
  /// \p Comb is the batch-shared combined-embeddings node; returns the 1×1
  /// loss, or nullptr for untrainable (empty-sided) pairs.
  TensorPtr trainLoss(const TrainPair &Pair, const TensorPtr &Comb);
  /// Greedy constrained argmax over the last row of \p Logits at plan step
  /// \p Step (bias-adjusted), plus — when \p WithProbs — the fused
  /// online-softmax probability of the winner. Returns -1 when nothing is
  /// admissible.
  int chooseGreedy(const TensorPtr &Logits, const std::vector<uint8_t> *Allowed,
                   const DecodePlan *Plan, int Step, bool WithProbs,
                   double &Prob) const;
  /// Runs one greedy step of \p D at plan position \p Step, extending its
  /// cache when a later position reads it and appending the chosen token
  /// to its result. Returns true when the decode ended at this step (EOS,
  /// no admissible token, or plan exhausted) — the caller must not
  /// continue it.
  bool decodeGreedyKV(GreedyDecode &D, int Step);
  TensorPtr combinedEmbeddings();
  void refreshCombCache();
  /// The one invalidation point for what inference derives from the
  /// weights: marks CombCache stale and empties the encoder memo. Every
  /// write to the parameters (a training epoch, loadWeights) calls it.
  void weightsChanged();
  std::vector<TensorPtr> parameters() const;
  std::unique_ptr<Tensor> causalMask(int Len) const;

  Vocab Vocabulary;
  CodeBEConfig Config;
  TensorPtr Etok, Epiece, EposSrc, EposDst;
  std::vector<EncLayerP> Enc;
  std::vector<DecLayerP> Dec;
  LinearP CopyProj;
  TensorPtr CopyGate;
  TensorPtr SrcBias; ///< learned boost for tokens present in the source
  TensorPtr CombCache; ///< no-grad combined embeddings for inference
  std::atomic<bool> CombDirty{true};
  std::mutex CombMu; ///< serializes CombCache refresh across threads
  /// Encoder memory of recent sources, shared by every decode on the KV
  /// path (DESIGN.md §14); FullRecompute never reads it.
  model::EncodeMemo Memo;
  DecodeMode Mode = DecodeMode::KVCache;

  /// The data-parallel training engine drives trainLoss/parameters/
  /// combinedEmbeddings/weightsChanged directly.
  friend class model::Trainer;
};

} // namespace vega

#endif // VEGA_MODEL_CODEBE_H
