//===- model/EncodeMemo.cpp - Cross-target encoder memo -------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/EncodeMemo.h"

#include <cassert>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

using namespace vega;
using namespace vega::model;

namespace {

/// FNV-1a over the ids, then a 64-bit finalizer so the low bits that pick
/// the index slot depend on every id.
size_t slotOf(const std::vector<int> &Ids) {
  uint64_t H = 1469598103934665603ULL;
  for (int Id : Ids) {
    H ^= static_cast<uint32_t>(Id);
    H *= 1099511628211ULL;
  }
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return static_cast<size_t>(H & (EncodeMemo::IndexSlots - 1));
}

constexpr size_t IndexBytes = EncodeMemo::IndexSlots * sizeof(uint64_t);
/// The accessible part of the mapping, the index and then the ring; one
/// inaccessible guard page follows it.
constexpr size_t UsableBytes = IndexBytes + EncodeMemo::RingBytes;

size_t pageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

} // namespace

EncodeMemo::EncodeMemo(int Width) : Width(static_cast<size_t>(Width)) {
  static_assert((IndexSlots & (IndexSlots - 1)) == 0,
                "a slot is the hash masked by IndexSlots - 1");
  // Anonymous pages read as zero, so every slot starts empty; a page turns
  // resident only when an entry or a slot is written to it. ASan does not
  // check inside a mapping, so the guard page is what faults on an access
  // past the ring's end.
  void *P = mmap(nullptr, UsableBytes + pageBytes(), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return;
  if (mprotect(static_cast<char *>(P) + UsableBytes, pageBytes(),
               PROT_NONE) != 0) {
    munmap(P, UsableBytes + pageBytes());
    return;
  }
  Index = static_cast<uint64_t *>(P);
  Ring = static_cast<char *>(P) + IndexBytes;
}

EncodeMemo::~EncodeMemo() {
  if (Index)
    munmap(Index, UsableBytes + pageBytes());
}

size_t EncodeMemo::entryBytes(size_t Len) const {
  return sizeof(uint32_t) * (1 + Len + Len * Width);
}

uint64_t EncodeMemo::append(const std::vector<int> &Ids, const float *Memory) {
  const size_t Bytes = entryBytes(Ids.size());
  // An entry never straddles the ring's end: when the tail cannot hold it,
  // the head skips to the next lap. Skipping moves Head like a write, so
  // the entries stored in the skipped tail count as overwritten.
  if (Head % RingBytes + Bytes > RingBytes)
    Head += RingBytes - Head % RingBytes;
  const uint64_t Pos = Head;
  char *E = Ring + Pos % RingBytes;
  assert(Pos % RingBytes + Bytes <= RingBytes && "entry past the ring's end");
  const uint32_t Len = static_cast<uint32_t>(Ids.size());
  std::memcpy(E, &Len, sizeof(Len));
  std::memcpy(E + sizeof(Len), Ids.data(), sizeof(int) * Ids.size());
  std::memcpy(E + sizeof(Len) + sizeof(int) * Ids.size(), Memory,
              sizeof(float) * Ids.size() * Width);
  Head += Bytes;
  return Pos;
}

TensorPtr EncodeMemo::lookup(const std::vector<int> &Ids) {
  if (!Ring)
    return nullptr;
  const size_t SlotIdx = slotOf(Ids);
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t &Slot = Index[SlotIdx];
  if (Slot == 0 || !live(Slot - 1))
    return nullptr;
  // The slot may hold another source that hashed to it: compare the ids.
  const char *E = Ring + (Slot - 1) % RingBytes;
  uint32_t Len = 0;
  std::memcpy(&Len, E, sizeof(Len));
  if (Len != Ids.size() ||
      std::memcmp(E + sizeof(Len), Ids.data(), sizeof(int) * Len) != 0)
    return nullptr;
  TensorPtr Memory = makeTensor(static_cast<int>(Len), static_cast<int>(Width));
  std::memcpy(Memory->Data.data(), E + sizeof(Len) + sizeof(int) * Len,
              sizeof(float) * Memory->Data.size());
  // Second chance: a hit in the older half of the ring moves the entry to
  // the head. It copies from the tensor just filled, because the append
  // may overwrite the entry's own bytes.
  if (Slot - 1 + RingBytes / 2 < Head)
    Slot = append(Ids, Memory->Data.data()) + 1;
  return Memory;
}

void EncodeMemo::insert(const std::vector<int> &Ids, const Tensor &Memory) {
  assert(Memory.Data.size() == Ids.size() * Width && "memory shape");
  if (!Ring || entryBytes(Ids.size()) > RingBytes)
    return;
  const size_t SlotIdx = slotOf(Ids);
  std::lock_guard<std::mutex> Lock(Mu);
  Index[SlotIdx] = append(Ids, Memory.Data.data()) + 1;
}

void EncodeMemo::clear() {
  // Advancing the head one whole lap makes every stored position fail
  // live(); the slots and pages are left as they are.
  std::lock_guard<std::mutex> Lock(Mu);
  Head += RingBytes;
}
