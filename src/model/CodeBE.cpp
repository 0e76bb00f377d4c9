//===- model/CodeBE.cpp - The CodeBE transformer ----------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/CodeBE.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <set>

using namespace vega;

uint64_t CodeBEConfig::fingerprint() const {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  Mix(static_cast<uint64_t>(DModel));
  Mix(static_cast<uint64_t>(Heads));
  Mix(static_cast<uint64_t>(EncLayers));
  Mix(static_cast<uint64_t>(DecLayers));
  Mix(static_cast<uint64_t>(FFDim));
  Mix(static_cast<uint64_t>(MaxSrcLen));
  Mix(static_cast<uint64_t>(MaxDstLen));
  Mix(Seed);
  return H;
}

CodeBE::CodeBE(Vocab Vocabulary, CodeBEConfig Config)
    : Vocabulary(std::move(Vocabulary)), Config(Config), Memo(Config.DModel) {
  RNG Seeder(Config.Seed);
  const int D = Config.DModel;
  float S = 0.08f;
  auto P = [&](int R, int C) { return makeParam(R, C, S, Seeder.next()); };

  // Token embeddings start at zero: a token's embedding is its word-piece
  // composition until fine-tuning learns a residual. Unseen-at-training
  // tokens therefore embed purely through their pieces instead of through
  // untrained random noise — the property that lets value selection
  // generalize to a new target's identifiers.
  Etok = makeTensor(static_cast<int>(this->Vocabulary.size()), D,
                    /*RequiresGrad=*/true);
  Epiece = P(static_cast<int>(this->Vocabulary.pieceCount()) + 64, D);
  EposSrc = P(Config.MaxSrcLen, D);
  EposDst = P(Config.MaxDstLen + 1, D);

  auto MakeLinear = [&](int In, int Out) {
    LinearP L;
    L.W = P(In, Out);
    L.B = makeTensor(1, Out, true);
    return L;
  };
  auto MakeLN = [&](int Width) {
    LNP L;
    L.G = makeTensor(1, Width, true);
    for (float &V : L.G->Data)
      V = 1.0f;
    L.B = makeTensor(1, Width, true);
    return L;
  };
  auto MakeMHA = [&] {
    MHAP M;
    M.Q = MakeLinear(D, D);
    M.K = MakeLinear(D, D);
    M.V = MakeLinear(D, D);
    M.O = MakeLinear(D, D);
    return M;
  };
  for (int I = 0; I < Config.EncLayers; ++I) {
    EncLayerP L;
    L.Self = MakeMHA();
    L.N1 = MakeLN(D);
    L.F1 = MakeLinear(D, Config.FFDim);
    L.F2 = MakeLinear(Config.FFDim, D);
    L.N2 = MakeLN(D);
    Enc.push_back(std::move(L));
  }
  for (int I = 0; I < Config.DecLayers; ++I) {
    DecLayerP L;
    L.Self = MakeMHA();
    L.N1 = MakeLN(D);
    L.Cross = MakeMHA();
    L.N2 = MakeLN(D);
    L.F1 = MakeLinear(D, Config.FFDim);
    L.F2 = MakeLinear(Config.FFDim, D);
    L.N3 = MakeLN(D);
    Dec.push_back(std::move(L));
  }
  CopyProj = MakeLinear(D, D);
  CopyGate = makeTensor(1, 1, true);
  CopyGate->Data[0] = 3.0f;
  SrcBias = makeTensor(1, 1, true);
  SrcBias->Data[0] = 1.0f;
}

std::vector<TensorPtr> CodeBE::parameters() const {
  std::vector<TensorPtr> Params = {Etok,       Epiece,     EposSrc, EposDst,
                                   CopyProj.W, CopyProj.B, CopyGate, SrcBias};
  auto AddMHA = [&](const MHAP &M) {
    for (const LinearP *L : {&M.Q, &M.K, &M.V, &M.O}) {
      Params.push_back(L->W);
      Params.push_back(L->B);
    }
  };
  for (const EncLayerP &L : Enc) {
    AddMHA(L.Self);
    Params.push_back(L.N1.G);
    Params.push_back(L.N1.B);
    Params.push_back(L.F1.W);
    Params.push_back(L.F1.B);
    Params.push_back(L.F2.W);
    Params.push_back(L.F2.B);
    Params.push_back(L.N2.G);
    Params.push_back(L.N2.B);
  }
  for (const DecLayerP &L : Dec) {
    AddMHA(L.Self);
    Params.push_back(L.N1.G);
    Params.push_back(L.N1.B);
    AddMHA(L.Cross);
    Params.push_back(L.N2.G);
    Params.push_back(L.N2.B);
    Params.push_back(L.F1.W);
    Params.push_back(L.F1.B);
    Params.push_back(L.F2.W);
    Params.push_back(L.F2.B);
    Params.push_back(L.N3.G);
    Params.push_back(L.N3.B);
  }
  return Params;
}

TensorPtr CodeBE::linear(const TensorPtr &X, const LinearP &P) {
  return addRow(matmul(X, P.W), P.B);
}

std::unique_ptr<Tensor> CodeBE::causalMask(int Len) const {
  auto Mask = std::make_unique<Tensor>(Len, Len, false);
  for (int I = 0; I < Len; ++I)
    for (int J = I + 1; J < Len; ++J)
      Mask->at(I, J) = -1e9f;
  return Mask;
}

TensorPtr CodeBE::attention(const TensorPtr &XQ, const TensorPtr &XKV,
                            const MHAP &P, const Tensor *Mask) {
  const int D = Config.DModel;
  const int H = Config.Heads;
  const int Dk = D / H;
  TensorPtr Q = linear(XQ, P.Q);
  TensorPtr K = linear(XKV, P.K);
  TensorPtr V = linear(XKV, P.V);
  std::vector<TensorPtr> Heads;
  float Scale = 1.0f / std::sqrt(static_cast<float>(Dk));
  for (int HIdx = 0; HIdx < H; ++HIdx) {
    TensorPtr Qh = sliceCols(Q, HIdx * Dk, Dk);
    TensorPtr Kh = sliceCols(K, HIdx * Dk, Dk);
    TensorPtr Vh = sliceCols(V, HIdx * Dk, Dk);
    TensorPtr Scores = scale(matmulNT(Qh, Kh), Scale);
    TensorPtr A = softmaxRows(Scores, Mask);
    Heads.push_back(matmul(A, Vh));
  }
  return linear(concatCols(Heads), P.O);
}

TensorPtr CodeBE::encLayer(const TensorPtr &X, EncLayerP &L) {
  TensorPtr A = attention(X, X, L.Self, nullptr);
  TensorPtr Y = layerNorm(add(X, A), L.N1.G, L.N1.B);
  TensorPtr F = linear(relu(linear(Y, L.F1)), L.F2);
  return layerNorm(add(Y, F), L.N2.G, L.N2.B);
}

TensorPtr CodeBE::decLayer(const TensorPtr &X, const TensorPtr &Memory,
                           DecLayerP &L, const Tensor *CausalMask) {
  TensorPtr A = attention(X, X, L.Self, CausalMask);
  TensorPtr Y = layerNorm(add(X, A), L.N1.G, L.N1.B);
  TensorPtr C = attention(Y, Memory, L.Cross, nullptr);
  TensorPtr Z = layerNorm(add(Y, C), L.N2.G, L.N2.B);
  TensorPtr F = linear(relu(linear(Z, L.F1)), L.F2);
  return layerNorm(add(Z, F), L.N3.G, L.N3.B);
}

TensorPtr CodeBE::embed(const std::vector<int> &Ids, const TensorPtr &Pos) {
  std::vector<std::vector<int>> Lists;
  Lists.reserve(Ids.size());
  for (int Id : Ids)
    Lists.push_back(Vocabulary.pieceLists()[static_cast<size_t>(Id)]);
  TensorPtr Tok = add(gatherRows(Etok, Ids), sparseMix(Epiece, Lists));
  std::vector<int> Positions(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    Positions[I] = static_cast<int>(I) < Pos->Rows ? static_cast<int>(I)
                                                   : Pos->Rows - 1;
  return add(Tok, gatherRows(Pos, Positions));
}

TensorPtr CodeBE::runEncoder(const std::vector<int> &Src) {
  TensorPtr X = embed(Src, EposSrc);
  for (EncLayerP &L : Enc)
    X = encLayer(X, L);
  return X;
}

TensorPtr CodeBE::runDecoder(const TensorPtr &Memory,
                             const std::vector<int> &DstIn) {
  TensorPtr X = embed(DstIn, EposDst);
  std::unique_ptr<Tensor> Mask = causalMask(static_cast<int>(DstIn.size()));
  for (DecLayerP &L : Dec)
    X = decLayer(X, Memory, L, Mask.get());
  return X;
}

TensorPtr CodeBE::combinedEmbeddings() {
  return add(Etok, sparseMix(Epiece, Vocabulary.pieceLists()));
}

void CodeBE::refreshCombCache() {
  std::lock_guard<std::mutex> Lock(CombMu);
  if (!CombDirty.load(std::memory_order_acquire))
    return; // another thread already rebuilt it
  TensorPtr Comb = combinedEmbeddings();
  TensorPtr Fresh = makeTensor(Comb->Rows, Comb->Cols, false);
  Fresh->Data = Comb->Data;
  CombCache = std::move(Fresh);
  CombDirty.store(false, std::memory_order_release);
}

void CodeBE::weightsChanged() {
  CombDirty = true;
  Memo.clear();
}

void CodeBE::prepareGenerate() {
  if (CombDirty.load(std::memory_order_acquire))
    refreshCombCache();
}

TensorPtr CodeBE::presenceFor(int Rows, const std::vector<int> &SrcIds) {
  // Source-presence bias: a learned uniform boost for every distinct token
  // that occurs in the input (pointer-network prior).
  std::vector<int> UniqueSrc;
  {
    std::vector<uint8_t> Seen(Vocabulary.size(), 0);
    for (int Id : SrcIds)
      if (!Seen[static_cast<size_t>(Id)]) {
        Seen[static_cast<size_t>(Id)] = 1;
        UniqueSrc.push_back(Id);
      }
  }
  TensorPtr Ones = makeTensor(Rows, static_cast<int>(UniqueSrc.size()),
                              /*RequiresGrad=*/false);
  for (float &V : Ones->Data)
    V = 1.0f;
  return copyScatter(Ones, UniqueSrc, static_cast<int>(Vocabulary.size()));
}

namespace {

/// One inference logit: the vocabulary projection \p Base plus the copy
/// head's gated mass on the token plus the source-presence boost, in the
/// float order of logitsFor's add/scaleByScalar tape. The row sweep and the
/// admissible-column path both call it, so a column's logit is the same
/// bytes as the row's element.
inline float mixLogit(float Base, float Copy, float Presence, float CopyGate,
                      float SrcBias) {
  return (Base + Copy * CopyGate) + Presence * SrcBias;
}

/// The admissible set of plan position \p Step, or null when the step is
/// unconstrained (no plan, or an empty set).
const std::vector<int> *stepSetOf(const CodeBE::DecodePlan *Plan, int Step) {
  if (!Plan || Plan->Steps[static_cast<size_t>(Step)].empty())
    return nullptr;
  return &Plan->Steps[static_cast<size_t>(Step)];
}

/// The plan's logit biases at \p Step, or null when it has none.
const std::map<int, float> *stepBiasOf(const CodeBE::DecodePlan &Plan,
                                       int Step) {
  return Plan.Bias.size() > static_cast<size_t>(Step)
             ? &Plan.Bias[static_cast<size_t>(Step)]
             : nullptr;
}

/// Greedy choice over a plan step's set: ids outside [0, \p VocabSize) are
/// skipped, the plan bias is added to \p LogitOf(J), and the first strict
/// maximum above -1e30f wins. Returns -1 (and leaves \p BestV at -1e30f)
/// when no id is in range.
template <typename LogitFn>
int argmaxOverSet(const std::vector<int> &Set, const std::map<int, float> *Bias,
                  int VocabSize, LogitFn LogitOf, float &BestV) {
  int Best = -1;
  BestV = -1e30f;
  for (int J : Set) {
    if (J < 0 || J >= VocabSize)
      continue;
    float Score = LogitOf(J);
    if (Bias) {
      auto It = Bias->find(J);
      if (It != Bias->end())
        Score += It->second;
    }
    if (Score > BestV) {
      BestV = Score;
      Best = J;
    }
  }
  return Best;
}

} // namespace

TensorPtr CodeBE::copyAttention(const TensorPtr &DecOut,
                                const TensorPtr &Memory) {
  float Scale = 1.0f / std::sqrt(static_cast<float>(Config.DModel));
  TensorPtr CScores = scale(matmulNT(linear(DecOut, CopyProj), Memory), Scale);
  return softmaxRows(CScores);
}

TensorPtr CodeBE::logitsFor(const TensorPtr &DecOut, const TensorPtr &Memory,
                            const std::vector<int> &SrcIds, bool UseCombCache,
                            const TensorPtr &CachedPresence,
                            const TensorPtr &CombOverride) {
  TensorPtr Comb;
  if (CombOverride) {
    // Training batches share one combined-embeddings node across all
    // example tapes (the Trainer builds it once per batch).
    Comb = CombOverride;
  } else if (UseCombCache) {
    prepareGenerate();
    Comb = CombCache;
  } else {
    Comb = combinedEmbeddings();
  }
  TensorPtr Base = matmulNT(DecOut, Comb);
  // Pointer/copy head: attend the encoder memory and scatter the attention
  // mass onto the source token ids.
  TensorPtr A = copyAttention(DecOut, Memory);
  TensorPtr Copy = copyScatter(A, SrcIds, static_cast<int>(Vocabulary.size()));
  // The presence tensor is a pure function of (Rows, SrcIds); incremental
  // decoding hands in the tensor it built for its row count (one row for a
  // greedy decode, one per live hypothesis for a beam step).
  TensorPtr Presence =
      CachedPresence && CachedPresence->Rows == DecOut->Rows
          ? CachedPresence
          : presenceFor(DecOut->Rows, SrcIds);
  if (NoGradGuard::active()) {
    // Inference fast path: the three vocabulary-wide tails fuse into one
    // in-place sweep over Base (fresh from matmulNT, so mutation is safe
    // with no tape). Each element performs the identical float operations
    // in the identical order as the add/scaleByScalar chain below, so the
    // logits are bit-for-bit the same.
    float CG = CopyGate->Data[0], SB = SrcBias->Data[0];
    for (size_t I = 0; I < Base->Data.size(); ++I)
      Base->Data[I] =
          mixLogit(Base->Data[I], Copy->Data[I], Presence->Data[I], CG, SB);
    return Base;
  }
  return add(add(Base, scaleByScalar(Copy, CopyGate)),
             scaleByScalar(Presence, SrcBias));
}

int CodeBE::chooseByColumns(const TensorPtr &DecRow, const TensorPtr &Memory,
                            const std::vector<int> &SrcIds,
                            const std::vector<int> &Set,
                            const std::map<int, float> *Bias) {
  // Each term is computed exactly as the row path computes that element:
  // Base[J] is the M=1 projection's chain for column J (from +0.0f in
  // ascending inner index), Copy[J] is copyScatter's sum of the copy head's
  // mass at the source positions holding J (from 0.0f in ascending
  // position), and Presence[J] is presenceFor's 1.0f or 0.0f.
  prepareGenerate();
  const float *Comb = CombCache->Data.data();
  const TensorPtr A = copyAttention(DecRow, Memory);
  const int D = Config.DModel;
  const float CG = CopyGate->Data[0], SB = SrcBias->Data[0];
  float BestV = -1e30f;
  return argmaxOverSet(
      Set, Bias, static_cast<int>(Vocabulary.size()),
      [&](int J) {
        float Base = 0.0f;
        detail::gemmNT(DecRow->Data.data(), Comb + static_cast<size_t>(J) * D,
                       &Base, 1, D, 1);
        float Copy = 0.0f, Presence = 0.0f;
        for (size_t P = 0; P < SrcIds.size(); ++P)
          if (SrcIds[P] == J) {
            Copy += A->Data[P];
            Presence = 1.0f;
          }
        return mixLogit(Base, Copy, Presence, CG, SB);
      },
      BestV);
}

std::vector<int> CodeBE::clippedSource(const std::vector<int> &Src) const {
  if (static_cast<int>(Src.size()) <= Config.MaxSrcLen)
    return Src;
  return {Src.begin(), Src.begin() + Config.MaxSrcLen};
}

bool CodeBE::isAllowed(const std::vector<uint8_t> *Allowed, int Id) const {
  if (!Allowed)
    return true;
  if (Id == Vocabulary.eosId() || Vocabulary.isCsToken(Id))
    return true;
  return static_cast<size_t>(Id) < Allowed->size() &&
         (*Allowed)[static_cast<size_t>(Id)] != 0;
}

TensorPtr CodeBE::trainLoss(const TrainPair &Pair, const TensorPtr &Comb) {
  std::vector<int> Src = clippedSource(Pair.Src);
  std::vector<int> Dst = Pair.Dst;
  if (static_cast<int>(Dst.size()) > Config.MaxDstLen)
    Dst.resize(static_cast<size_t>(Config.MaxDstLen));
  if (Src.empty() || Dst.empty())
    return nullptr;

  std::vector<int> DstIn;
  DstIn.push_back(Vocabulary.e2dId());
  DstIn.insert(DstIn.end(), Dst.begin(), Dst.end() - 1);

  TensorPtr Memory = runEncoder(Src);
  TensorPtr DecOut = runDecoder(Memory, DstIn);
  TensorPtr Logits = logitsFor(DecOut, Memory, Src, /*UseCombCache=*/false,
                               /*CachedPresence=*/nullptr,
                               /*CombOverride=*/Comb);
  return crossEntropy(Logits, Dst);
}

/// An immutable, refcount-shared run of decoded self-attention K/V rows.
/// Prefix nodes form a parent chain from the most recent run back to the
/// root; assembled root-first they reproduce the chronological row order of
/// a single flat cache. Nodes are only ever created by KVCacheState::seal()
/// and never mutated afterwards, so any number of forked beam hypotheses
/// (possibly on different threads) can read a shared prefix concurrently
/// while extending their own private tails.
struct CodeBE::KVPrefix {
  std::shared_ptr<const KVPrefix> Parent;
  std::vector<std::vector<float>> K, V; ///< [layer], Rows×DModel
  int Rows = 0;                         ///< rows in this node alone
  int TotalRows = 0;                    ///< rows including the parent chain
};

/// Incremental decode scratch of one hypothesis. SelfK/SelfV hold the
/// per-layer K/V rows this decode appended past the shared Prefix
/// (row-major, tail-rows×DModel). Copying a sealed state is the O(1)
/// copy-on-write fork: the prefix chain is shared, the tail starts empty.
struct CodeBE::KVCacheState {
  std::shared_ptr<const KVPrefix> Prefix;       ///< sealed shared rows
  std::vector<std::vector<float>> SelfK, SelfV; ///< [layer] owned tail
  int Len = 0; ///< total rows = prefix rows + tail rows

  explicit KVCacheState(size_t Layers) : SelfK(Layers), SelfV(Layers) {}

  int prefixRows() const { return Prefix ? Prefix->TotalRows : 0; }

  /// Freezes the owned tail into a new immutable prefix node (no-op on an
  /// empty tail). Must run before a state is copied as a fork — afterwards
  /// the copy and the original each extend a fresh private tail.
  void seal() {
    const int Tail = Len - prefixRows();
    if (Tail == 0)
      return;
    auto Node = std::make_shared<KVPrefix>();
    Node->Parent = std::move(Prefix);
    Node->K = std::move(SelfK);
    Node->V = std::move(SelfV);
    Node->Rows = Tail;
    Node->TotalRows = (Node->Parent ? Node->Parent->TotalRows : 0) + Tail;
    const size_t Layers = Node->K.size();
    SelfK.assign(Layers, {});
    SelfV.assign(Layers, {});
    Prefix = std::move(Node);
  }
};

/// CrossK/CrossV are the cross-attention projections of the encoder memory
/// (SrcLen×DModel per layer), read-only, so any number of hypotheses and
/// threads read them at once.
struct CodeBE::DecodeMemory {
  TensorPtr Memory;
  std::vector<TensorPtr> CrossK, CrossV; ///< [layer]
};

/// One greedy KV-cached decode: its borrowed input and constraints, the
/// encoder side, the KV scratch, the previous token, and the partial result.
struct CodeBE::GreedyDecode {
  const std::vector<int> &Input; ///< Src truncated to MaxSrcLen
  const std::vector<uint8_t> *Allowed;
  const DecodePlan *Plan;
  bool WithProbs;
  /// The plan's last position whose set is not a singleton (-1 when every
  /// position is pinned). Nothing reads a decoder pass after it.
  int LastFree = -1;
  DecodeMemory Mem;
  KVCacheState St;
  TensorPtr PresenceRow = nullptr; ///< built by the first full-vocabulary step
  Decoded Result = {};
  int PrevTok = 0;
  int Passes = 0;      ///< decoder passes run (model.decoder_passes)
  int Projections = 0; ///< 1×V logit rows built (model.vocab_projections)

  /// Runs one decoder pass over the previous token.
  TensorPtr step(CodeBE &Model) {
    KVCacheState *S = &St;
    ++Passes;
    return Model.decodeStep(Mem, {&S, 1}, {&PrevTok, 1});
  }
};

CodeBE::DecodeMemory CodeBE::encodeForDecode(const std::vector<int> &Input) {
  DecodeMemory Mem;
  // A hit returns the floats the encoder computed for the same ids under
  // the same weights, so the decode's bytes do not depend on the memo.
  auto &Metrics = obs::MetricsRegistry::instance();
  Mem.Memory = Memo.lookup(Input);
  if (Mem.Memory) {
    Metrics.addCounter("model.encode_memo_hits");
  } else {
    {
      obs::Span EncSpan("model.encode", "model");
      Mem.Memory = runEncoder(Input);
    }
    Memo.insert(Input, *Mem.Memory);
    Metrics.addCounter("model.encode_memo_misses");
  }
  for (DecLayerP &L : Dec) {
    Mem.CrossK.push_back(linear(Mem.Memory, L.Cross.K));
    Mem.CrossV.push_back(linear(Mem.Memory, L.Cross.V));
  }
  return Mem;
}

TensorPtr CodeBE::decodeStep(const DecodeMemory &Mem,
                             std::span<KVCacheState *const> States,
                             std::span<const int> Tokens) {
  const int D = Config.DModel, H = Config.Heads;
  const float AttnScale = 1.0f / std::sqrt(static_cast<float>(D / H));
  const int M = static_cast<int>(States.size());
  assert(M > 0 && Tokens.size() == States.size() && "one token per state");
  const int Len = States[0]->Len;
  // M-row embedding — embed() with position index Len on every row.
  std::vector<int> Ids(Tokens.begin(), Tokens.end());
  std::vector<std::vector<int>> Lists;
  for (int Id : Ids)
    Lists.push_back(Vocabulary.pieceLists()[static_cast<size_t>(Id)]);
  TensorPtr Tok = add(gatherRows(Etok, Ids), sparseMix(Epiece, Lists));
  const int Pos = Len < EposDst->Rows ? Len : EposDst->Rows - 1;
  TensorPtr X = add(Tok, gatherRows(EposDst, std::vector<int>(M, Pos)));

  // Each state's shared-prefix chain, root-first (chronological row
  // order). Computed once per step; the same chain serves every layer.
  std::vector<std::vector<const KVPrefix *>> Chains(static_cast<size_t>(M));
  for (int R = 0; R < M; ++R) {
    assert(States[R]->Len == Len && "lock-step states hold the same rows");
    for (const KVPrefix *N = States[R]->Prefix.get(); N; N = N->Parent.get())
      Chains[R].push_back(N);
    std::reverse(Chains[R].begin(), Chains[R].end());
  }

  std::vector<detail::KVSegment> Segs;
  for (size_t LI = 0; LI < Dec.size(); ++LI) {
    DecLayerP &L = Dec[LI];
    // Self-attention over each row's cached prefix plus its new row, read
    // in place. Restricting the keys to positions 0..Len is bit-identical
    // to the full causal-masked pass: masked scores sit at ~-1e9, so their
    // exp() underflows to exactly 0.0f and they contribute nothing to max,
    // sum, or the attention-weighted value rows.
    TensorPtr Qr = linear(X, L.Self.Q);
    TensorPtr Kr = linear(X, L.Self.K);
    TensorPtr Vr = linear(X, L.Self.V);
    TensorPtr SelfOut = makeTensor(M, D);
    for (int R = 0; R < M; ++R) {
      KVCacheState &St = *States[R];
      const size_t Row = static_cast<size_t>(R) * D;
      std::vector<float> &KCache = St.SelfK[LI];
      std::vector<float> &VCache = St.SelfV[LI];
      KCache.insert(KCache.end(), Kr->Data.begin() + Row,
                    Kr->Data.begin() + Row + D);
      VCache.insert(VCache.end(), Vr->Data.begin() + Row,
                    Vr->Data.begin() + Row + D);
      // The window: shared prefix nodes root-first, then the owned tail —
      // the rows a single flat cache would hold, in its order.
      Segs.clear();
      for (const KVPrefix *Node : Chains[R])
        Segs.push_back({Node->K[LI].data(), Node->V[LI].data(), Node->Rows});
      Segs.push_back({KCache.data(), VCache.data(), Len + 1 - St.prefixRows()});
      detail::attendRow(Qr->Data.data() + Row, Segs.data(),
                        static_cast<int>(Segs.size()), D, H, AttnScale,
                        SelfOut->Data.data() + Row);
    }
    TensorPtr AO = linear(SelfOut, L.Self.O);
    TensorPtr Y = layerNorm(add(X, AO), L.N1.G, L.N1.B);
    // Cross-attention against the shared memory projections: a one-segment
    // window, the same float order as attention()'s per-head ops.
    TensorPtr Qc = linear(Y, L.Cross.Q);
    TensorPtr CrossOut = makeTensor(M, D);
    const detail::KVSegment Cross = {Mem.CrossK[LI]->Data.data(),
                                     Mem.CrossV[LI]->Data.data(),
                                     Mem.CrossK[LI]->Rows};
    for (int R = 0; R < M; ++R)
      detail::attendRow(Qc->Data.data() + static_cast<size_t>(R) * D, &Cross,
                        1, D, H, AttnScale,
                        CrossOut->Data.data() + static_cast<size_t>(R) * D);
    TensorPtr C = linear(CrossOut, L.Cross.O);
    TensorPtr Z = layerNorm(add(Y, C), L.N2.G, L.N2.B);
    TensorPtr F = linear(relu(linear(Z, L.F1)), L.F2);
    X = layerNorm(add(Z, F), L.N3.G, L.N3.B);
  }
  for (KVCacheState *St : States)
    ++St->Len;
  return X;
}

int CodeBE::chooseGreedy(const TensorPtr &Logits,
                         const std::vector<uint8_t> *Allowed,
                         const DecodePlan *Plan, int Step, bool WithProbs,
                         double &Prob) const {
  // Greedy choice over the last row, restricted to the admissible set.
  const int Last = Logits->Rows - 1;
  int Best = -1;
  float BestV = -1e30f;
  if (const std::vector<int> *StepSet = stepSetOf(Plan, Step)) {
    Best = argmaxOverSet(
        *StepSet, stepBiasOf(*Plan, Step), Logits->Cols,
        [&](int J) { return Logits->at(Last, J); }, BestV);
  } else {
    for (int J = 0; J < Logits->Cols; ++J) {
      if (!isAllowed(Allowed, J))
        continue;
      if (Logits->at(Last, J) > BestV) {
        BestV = Logits->at(Last, J);
        Best = J;
      }
    }
  }
  if (Best < 0)
    return -1;
  // Softmax probability of the chosen token over the full vocabulary, in
  // a single fused pass: an online softmax keeps a running maximum and a
  // sum rescaled whenever the maximum moves, replacing the separate
  // max-then-sum sweeps of the row. Seeding the maximum at BestV keeps
  // the anchor at the global maximum even when a plan bias lifted the
  // winner above every raw logit. Callers that ignore probabilities
  // skip the sweep entirely (a vocabulary of exp() calls per step).
  Prob = 1.0;
  if (WithProbs) {
    const float *Row = &Logits->Data[static_cast<size_t>(Last) * Logits->Cols];
    float MaxAll = BestV;
    double Sum = 0.0;
    for (int J = 0; J < Logits->Cols; ++J) {
      float V = Row[J];
      if (V > MaxAll) {
        Sum = Sum * std::exp(static_cast<double>(MaxAll - V)) + 1.0;
        MaxAll = V;
      } else {
        Sum += std::exp(static_cast<double>(V - MaxAll));
      }
    }
    Prob = std::exp(static_cast<double>(BestV - MaxAll)) / Sum;
  }
  return Best;
}

bool CodeBE::decodeGreedyKV(GreedyDecode &D, int Step) {
  // Positions past the plan end the statement.
  if (D.Plan && static_cast<size_t>(Step) >= D.Plan->Steps.size())
    return true;
  const std::vector<int> *StepSet = stepSetOf(D.Plan, Step);
  // Without probabilities the decode computes only what the greedy choice
  // reads, and chooses the tokens a WithProbs decode of the same plan
  // chooses. A pinned position needs no logits: its singleton is the
  // argmax, and the out-of-range and [EOS] exits mirror the argmax path.
  // Its decoder pass still runs when a later free position attends over
  // the K/V rows it appends; after the plan's last free position nothing
  // reads the pass, so it is skipped.
  if (!D.WithProbs && StepSet && StepSet->size() == 1) {
    const int J = (*StepSet)[0];
    if (J < 0 || J >= static_cast<int>(Vocabulary.size()))
      return true; // the argmax would find nothing admissible
    if (Step < D.LastFree)
      D.step(*this);
    if (J == Vocabulary.eosId())
      return true;
    D.Result.Tokens.push_back(J);
    D.PrevTok = J;
    return false;
  }
  TensorPtr DecRow = D.step(*this);
  int Best = -1;
  double Prob = 1.0;
  if (!D.WithProbs && StepSet) {
    // A multi-id set scores its admissible columns, not the 1×V row.
    Best = chooseByColumns(DecRow, D.Mem.Memory, D.Input, *StepSet,
                           stepBiasOf(*D.Plan, Step));
  } else {
    if (!D.PresenceRow)
      D.PresenceRow = presenceFor(1, D.Input);
    TensorPtr Logits = logitsFor(DecRow, D.Mem.Memory, D.Input,
                                 /*UseCombCache=*/true, D.PresenceRow);
    ++D.Projections;
    Best = chooseGreedy(Logits, D.Allowed, D.Plan, Step, D.WithProbs, Prob);
  }
  if (Best < 0 || Best == Vocabulary.eosId())
    return true;
  D.Result.Tokens.push_back(Best);
  if (D.WithProbs)
    D.Result.Probs.push_back(Prob);
  D.PrevTok = Best;
  return false;
}

CodeBE::Decoded CodeBE::generate(const std::vector<int> &Src,
                                 const std::vector<uint8_t> *Allowed,
                                 const DecodePlan *Plan, bool WithProbs) {
  // Inference never backpropagates: build no tape, so every intermediate
  // tensor dies at the end of its statement instead of living until the
  // decode finishes.
  NoGradGuard Guard;
  const std::vector<int> Input = clippedSource(Src);
  Decoded Result;
  int Passes = 0, Projections = 0;
  if (Mode == DecodeMode::KVCache) {
    GreedyDecode D{.Input = Input,
                   .Allowed = Allowed,
                   .Plan = Plan,
                   .WithProbs = WithProbs,
                   .Mem = encodeForDecode(Input),
                   .St = KVCacheState(Dec.size()),
                   .PrevTok = Vocabulary.e2dId()};
    if (Plan)
      for (size_t P = 0; P < Plan->Steps.size(); ++P)
        if (Plan->Steps[P].size() != 1)
          D.LastFree = static_cast<int>(P);
    obs::Span DecSpan("model.decode", "model");
    for (int Step = 0; Step < Config.MaxDstLen; ++Step)
      if (decodeGreedyKV(D, Step))
        break;
    Passes = D.Passes;
    Projections = D.Projections;
    Result = std::move(D.Result);
  } else {
    TensorPtr Memory;
    {
      obs::Span EncSpan("model.encode", "model");
      Memory = runEncoder(Input);
    }
    obs::Span DecSpan("model.decode", "model");
    std::vector<int> DstIn = {Vocabulary.e2dId()};
    for (int Step = 0; Step < Config.MaxDstLen; ++Step) {
      // Positions past the plan end the statement.
      if (Plan && static_cast<size_t>(Step) >= Plan->Steps.size())
        break;
      TensorPtr DecOut = runDecoder(Memory, DstIn);
      TensorPtr Logits =
          logitsFor(DecOut, Memory, Input, /*UseCombCache=*/true);
      ++Passes;
      ++Projections;
      double Prob = 1.0;
      int Best = chooseGreedy(Logits, Allowed, Plan, Step, WithProbs, Prob);
      if (Best < 0 || Best == Vocabulary.eosId())
        break;
      Result.Tokens.push_back(Best);
      if (WithProbs)
        Result.Probs.push_back(Prob);
      DstIn.push_back(Best);
    }
  }
  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("model.generate_calls");
  Metrics.addCounter("model.decoder_passes", static_cast<uint64_t>(Passes));
  Metrics.addCounter("model.vocab_projections",
                     static_cast<uint64_t>(Projections));
  Metrics.observe("model.tokens_decoded",
                  static_cast<double>(Result.Tokens.size()), 0.0,
                  static_cast<double>(Config.MaxDstLen + 1), 16);
  return Result;
}

std::vector<CodeBE::BeamHypothesis>
CodeBE::decodeBeam(const std::vector<int> &Src, int Width,
                   const std::vector<uint8_t> *Allowed,
                   const DecodePlan *Plan) {
  NoGradGuard Guard;
  if (Width < 1)
    Width = 1;
  obs::Span BeamSpan("beam.decode", "model");
  BeamSpan.arg("width", std::to_string(Width));

  const std::vector<int> Input = clippedSource(Src);
  // The encoder side is computed once and read by every hypothesis; self
  // K/V rows are forked per hypothesis when the beam branches.
  const DecodeMemory Mem = encodeForDecode(Input);

  struct LiveBeam {
    KVCacheState St;
    std::vector<int> Tokens;
    double Score = 0.0;
    int PrevTok = 0;
  };
  std::vector<LiveBeam> Live;
  Live.push_back({KVCacheState(Dec.size()), {}, 0.0, Vocabulary.e2dId()});
  std::vector<BeamHypothesis> Finished;
  auto Retire = [&](LiveBeam &B) {
    Finished.push_back({std::move(B.Tokens), B.Score});
  };

  // The presence tensor of each live-row count, built on first use.
  std::vector<TensorPtr> PresenceOf(static_cast<size_t>(Width) + 1);
  uint64_t Steps = 0, Rows = 0;
  for (int Step = 0; Step < Config.MaxDstLen && !Live.empty(); ++Step) {
    // Positions past the plan end every surviving statement, exactly like
    // the greedy loop.
    if (Plan && static_cast<size_t>(Step) >= Plan->Steps.size())
      break;
    const std::vector<int> *StepSet = stepSetOf(Plan, Step);
    const std::map<int, float> *Bias =
        StepSet ? stepBiasOf(*Plan, Step) : nullptr;

    // One decoder pass and one M×V projection for all M live hypotheses:
    // row BI is hypothesis BI, with the bytes its own one-row pass had.
    const size_t M = Live.size();
    std::vector<KVCacheState *> States;
    std::vector<int> Prev;
    for (LiveBeam &B : Live) {
      States.push_back(&B.St);
      Prev.push_back(B.PrevTok);
    }
    TensorPtr DecRows = decodeStep(Mem, States, Prev);
    TensorPtr &Presence = PresenceOf[M];
    if (!Presence)
      Presence = presenceFor(static_cast<int>(M), Input);
    TensorPtr Logits = logitsFor(DecRows, Mem.Memory, Input,
                                 /*UseCombCache=*/true, Presence);
    ++Steps;
    Rows += M;

    struct Expansion {
      size_t Parent;
      int Token;
      double Score;
    };
    std::vector<Expansion> Exps;
    for (size_t BI = 0; BI < M; ++BI) {
      const LiveBeam &B = Live[BI];
      const float *Row = &Logits->Data[BI * Logits->Cols];
      // Raw-row log-sum-exp: the same normalizer generate()'s confidence
      // pass divides by, so log P(token) = biasedLogit - LSE. A plan bias
      // can lift the winner above the raw maximum — that only shifts the
      // score, never breaks the ranking.
      float MaxRaw = -1e30f;
      for (int J = 0; J < Logits->Cols; ++J)
        if (Row[J] > MaxRaw)
          MaxRaw = Row[J];
      double Sum = 0.0;
      for (int J = 0; J < Logits->Cols; ++J)
        Sum += std::exp(static_cast<double>(Row[J] - MaxRaw));
      double LSE = static_cast<double>(MaxRaw) + std::log(Sum);
      if (StepSet) {
        for (int J : *StepSet) {
          if (J < 0 || J >= Logits->Cols)
            continue;
          float V = Row[J];
          if (Bias) {
            auto It = Bias->find(J);
            if (It != Bias->end())
              V += It->second;
          }
          Exps.push_back({BI, J, B.Score + static_cast<double>(V) - LSE});
        }
      } else {
        for (int J = 0; J < Logits->Cols; ++J)
          if (isAllowed(Allowed, J))
            Exps.push_back({BI, J, B.Score + static_cast<double>(Row[J]) - LSE});
      }
    }
    if (Exps.empty())
      break; // no admissible continuation: surviving beams finish as-is

    // Deterministic selection: stable sort keeps expansion order (parent
    // rank, then admissible-set order) on exact score ties — the same
    // first-wins rule as greedy argmax.
    std::stable_sort(Exps.begin(), Exps.end(),
                     [](const Expansion &A, const Expansion &B) {
                       return A.Score > B.Score;
                     });
    std::vector<LiveBeam> Next;
    for (const Expansion &E : Exps) {
      if (static_cast<int>(Next.size()) >= Width)
        break;
      if (E.Token == Vocabulary.eosId()) {
        // [EOS] retires the hypothesis; like greedy, the terminator itself
        // is not part of the statement.
        Finished.push_back({Live[E.Parent].Tokens, E.Score});
        continue;
      }
      // O(1) copy-on-write fork: freeze the parent's decoded rows into the
      // shared prefix chain (idempotent when several children fork the same
      // parent) instead of deep-copying Len×D floats per hypothesis.
      LiveBeam &Parent = Live[E.Parent];
      Parent.St.seal();
      Next.push_back({Parent.St, Parent.Tokens, E.Score, E.Token});
      Next.back().Tokens.push_back(E.Token);
    }
    Live = std::move(Next);
  }
  for (LiveBeam &B : Live)
    Retire(B);

  std::stable_sort(Finished.begin(), Finished.end(),
                   [](const BeamHypothesis &A, const BeamHypothesis &B) {
                     return A.Score > B.Score;
                   });
  std::vector<BeamHypothesis> Result;
  std::set<std::vector<int>> Seen;
  for (BeamHypothesis &H : Finished) {
    if (static_cast<int>(Result.size()) >= Width)
      break;
    if (!Seen.insert(H.Tokens).second)
      continue;
    Result.push_back(std::move(H));
  }

  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("beam.decode_calls");
  Metrics.addCounter("beam.steps", Steps);
  Metrics.addCounter("beam.rows", Rows);
  Metrics.observe("beam.candidates", static_cast<double>(Result.size()), 0.0,
                  static_cast<double>(Width + 1), 16);
  return Result;
}

double CodeBE::exactMatch(const std::vector<TrainPair> &Data) {
  if (Data.empty())
    return 1.0;
  size_t Matches = 0;
  for (const TrainPair &Pair : Data) {
    Decoded Out = generate(Pair.Src, nullptr, nullptr, /*WithProbs=*/false);
    std::vector<int> Expected = Pair.Dst;
    if (!Expected.empty() && Expected.back() == Vocabulary.eosId())
      Expected.pop_back();
    if (static_cast<int>(Expected.size()) > Config.MaxDstLen)
      Expected.resize(static_cast<size_t>(Config.MaxDstLen));
    if (Out.Tokens == Expected)
      ++Matches;
  }
  return static_cast<double>(Matches) / static_cast<double>(Data.size());
}

std::string CodeBE::saveWeights() const {
  std::string Blob;
  uint64_t Magic = Config.fingerprint();
  Blob.append(reinterpret_cast<const char *>(&Magic), sizeof(Magic));
  for (const TensorPtr &P : parameters()) {
    uint64_t N = P->Data.size();
    Blob.append(reinterpret_cast<const char *>(&N), sizeof(N));
    Blob.append(reinterpret_cast<const char *>(P->Data.data()),
                N * sizeof(float));
  }
  return Blob;
}

bool CodeBE::loadWeights(const std::string &Blob) {
  size_t Pos = 0;
  auto Read = [&](void *Dst, size_t N) {
    if (Pos + N > Blob.size())
      return false;
    std::memcpy(Dst, Blob.data() + Pos, N);
    Pos += N;
    return true;
  };
  uint64_t Magic = 0;
  if (!Read(&Magic, sizeof(Magic)) || Magic != Config.fingerprint())
    return false;
  // Before the first write: a load that fails part-way leaves weights that
  // are neither the old nor the new ones.
  weightsChanged();
  for (const TensorPtr &P : parameters()) {
    uint64_t N = 0;
    if (!Read(&N, sizeof(N)) || N != P->Data.size())
      return false;
    if (!Read(P->Data.data(), N * sizeof(float)))
      return false;
  }
  return Pos == Blob.size();
}
