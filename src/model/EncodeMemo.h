//===- model/EncodeMemo.h - Cross-target encoder memo -----------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The encoder memory of recently encoded sources (DESIGN.md §14). Stage 3
/// encodes one source per template row for every target, and a row whose
/// features do not depend on the target hands every target the same
/// encoder input; a hit copies the stored floats instead of running the
/// encoder again.
///
/// The key is the clipped source ids, compared id by id; their hash only
/// picks an index slot. The value is the encoder memory alone, Len×Width
/// floats. Entries append to a fixed ring in one region mapped when the
/// memo is built, so no entry allocates on the heap; a page becomes
/// resident only when an entry is written to it, and an inaccessible page
/// after the ring stops any access past its end. A hit on an entry in the
/// older half of the ring re-appends it (second chance), so the sources
/// every target encodes outlive one target's own.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_MODEL_ENCODEMEMO_H
#define VEGA_MODEL_ENCODEMEMO_H

#include "model/Autograd.h"

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vega {
namespace model {

class EncodeMemo {
public:
  /// Bytes of the entry ring: about 330 of the 16-41-token sources Stage 3
  /// encodes at DModel 64, the most-shared sources plus about one target's
  /// own.
  static constexpr size_t RingBytes = size_t(2) << 20;
  /// Direct-mapped index slots, each the ring position of its entry plus
  /// one (0 = empty); a colliding insert replaces the slot.
  static constexpr size_t IndexSlots = 8192;

  /// Maps the index and the ring for encoder rows of \p Width floats. When
  /// the mapping fails the memo stays empty and every lookup misses.
  explicit EncodeMemo(int Width);
  ~EncodeMemo();
  EncodeMemo(const EncodeMemo &) = delete;
  EncodeMemo &operator=(const EncodeMemo &) = delete;

  /// A fresh Ids.size()×Width copy of the memory stored for \p Ids, or null
  /// when no live entry holds exactly these ids.
  TensorPtr lookup(const std::vector<int> &Ids);
  /// Stores \p Memory, the Ids.size()×Width encoder output for \p Ids.
  void insert(const std::vector<int> &Ids, const Tensor &Memory);
  /// Forgets every entry (the weights they were computed from changed).
  void clear();

private:
  /// An entry is its length, its ids and its floats, 4 bytes each.
  size_t entryBytes(size_t Len) const;
  /// Whether the entry written at ring position \p Pos is still intact:
  /// nothing written since has reached its bytes.
  bool live(uint64_t Pos) const { return Pos + RingBytes >= Head; }
  /// Writes an entry at the head of the ring and returns its position.
  uint64_t append(const std::vector<int> &Ids, const float *Memory);

  const size_t Width;
  uint64_t *Index = nullptr; ///< the start of the mapping; the ring follows
  char *Ring = nullptr;
  /// Ring positions only grow; position P lives at byte P % RingBytes.
  uint64_t Head = 0;
  std::mutex Mu; ///< covers lookup, copy-out and insert
};

} // namespace model
} // namespace vega

#endif // VEGA_MODEL_ENCODEMEMO_H
