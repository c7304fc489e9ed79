//===- support/Intern.h - Hash to first-seen index table --------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interner. Redundant path trace elimination keeps one copy of
/// each unique trace per function, DBB compaction pools trace strings and
/// dictionaries, and LZW numbers its dictionary strings; all four map a
/// value to a dense index assigned in first-seen order, and that order is
/// part of the archive bytes (docs/FORMATS.md).
///
/// Interner holds only the mapping: an open-addressed table of (hash,
/// index) slots. The values live in the caller's pool at those indices,
/// and the caller supplies the equality check against it, so one table
/// serves path traces, dictionaries and LZW (prefix, byte) keys alike.
/// Slots keep the full hash, so growth re-places slots without touching
/// the pool, and most mismatches are rejected without calling Equal. The
/// slot comes from the high bits of a multiplicative mix of the hash: FNV
/// over whole block ids (hashBlockSequence) leaves the low bits weak.
///
/// An empty table allocates nothing; it starts at MinSlots slots on the
/// first intern() and doubles once it is 3/4 full.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_INTERN_H
#define TWPP_SUPPORT_INTERN_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace twpp {

class Interner {
public:
  static constexpr uint32_t npos = UINT32_MAX;

  /// Number of indices assigned so far (the next first-seen index).
  uint32_t size() const { return Count; }

  /// The index \p Equal accepts among values hashed to \p Hash, or npos.
  template <typename EqualFn>
  uint32_t find(uint64_t Hash, EqualFn Equal) const {
    return Slots.empty() ? npos : Slots[probe(Hash, Equal)].Index;
  }

  /// The index \p Equal accepts among values hashed to \p Hash; when there
  /// is none, assigns and returns size(), and the caller appends the value
  /// to its pool at that index.
  template <typename EqualFn> uint32_t intern(uint64_t Hash, EqualFn Equal) {
    if ((size_t{Count} + 1) * 4 > Slots.size() * 3)
      grow();
    Slot &S = Slots[probe(Hash, Equal)];
    if (S.Index == npos)
      S = {Hash, Count++};
    return S.Index;
  }

  /// intern() for a pool compared with ==: \returns \p Value's index in
  /// \p Pool, appending it there (moved, if an rvalue) when first seen.
  template <typename T, typename V, typename HashFn>
  uint32_t intern(std::vector<T> &Pool, V &&Value, HashFn Hash) {
    uint32_t Index = intern(Hash(Value), [&Pool, &Value](uint32_t I) {
      return Pool[I] == Value;
    });
    if (Index == Pool.size())
      Pool.push_back(std::forward<V>(Value));
    return Index;
  }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Index = npos;
  };

  /// The one probe loop: the slot of the value \p Equal accepts, or the
  /// empty slot that ends its chain. Requires a non-empty table.
  template <typename EqualFn>
  size_t probe(uint64_t Hash, EqualFn Equal) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = (Hash * 0x9E3779B97F4A7C15ULL) >> Shift;;
         I = (I + 1) & Mask)
      if (Slots[I].Index == npos ||
          (Slots[I].Hash == Hash && Equal(Slots[I].Index)))
        return I;
  }

  /// Doubles the table (MinSlots when empty) and re-places every slot by
  /// its stored hash.
  void grow() {
    std::vector<Slot> Old(Slots.empty() ? MinSlots : 2 * Slots.size());
    Old.swap(Slots);
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Slots.size()));
    for (const Slot &S : Old)
      if (S.Index != npos)
        Slots[probe(S.Hash, [](uint32_t) { return false; })] = S;
  }

  static constexpr size_t MinSlots = 16;
  std::vector<Slot> Slots;
  uint32_t Count = 0;
  unsigned Shift = 64;
};

} // namespace twpp

#endif // TWPP_SUPPORT_INTERN_H
