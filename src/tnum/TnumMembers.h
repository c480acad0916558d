//===- tnum/TnumMembers.h - Batched concretization enumeration --*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch-oriented enumeration of gamma(P) for the batched member-pair
/// loops (verify/MemberLoops.h). forEachMember (TnumEnum.h) hands members
/// to a callback one at a time; the batched sweeps instead want whole
/// chunks of the concretization materialized into aligned buffers they can
/// run the 64-lane loops over. Both interfaces visit members in the SAME order
/// -- the subset odometer over the mask, increasing -- which is what lets
/// the batched checkers reproduce the scalar checkers' serial-order-first
/// counterexamples and exact work counters bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_TNUM_TNUMMEMBERS_H
#define TNUMS_TNUM_TNUMMEMBERS_H

#include "support/SimdBatch.h"
#include "tnum/Tnum.h"

#include <vector>

namespace tnums {

/// Streams gamma(P) in subset-odometer order (forEachMember's order), one
/// batch at a time. Typical use:
///
///   MemberStream Ys(Q);
///   alignas(SimdBatchAlign) uint64_t Buf[SimdBatchLanes];
///   while (unsigned N = Ys.nextBatch(Buf))
///     ... run a 64-lane kernel over Buf[0..N) ...
///
/// Bottom streams nothing. The final batch may be short (|gamma(P)| is a
/// power of two, so with 64-lane batches a short batch only occurs when
/// |gamma(P)| < 64 -- the "empty tail" case the differential tests pin).
class MemberStream {
public:
  explicit MemberStream(const Tnum &P)
      : Value(P.value()), Mask(P.mask()), Subset(0),
        Done(P.isBottom()) {}

  /// Fills \p Out with up to SimdBatchLanes consecutive members; returns
  /// how many were written (0 once the stream is exhausted).
  unsigned nextBatch(uint64_t *Out) {
    if (Done)
      return 0;
    unsigned N = 0;
    while (N != SimdBatchLanes) {
      Out[N++] = Value | Subset;
      if (Subset == Mask) {
        Done = true;
        break;
      }
      Subset = (Subset - Mask) & Mask;
    }
    return N;
  }

  /// True once every member has been produced.
  bool exhausted() const { return Done; }

  /// Rewinds to the first member.
  void reset() {
    Subset = 0;
    Done = (Value & Mask) != 0;
  }

private:
  uint64_t Value;
  uint64_t Mask;
  uint64_t Subset;
  bool Done;
};

/// Materializes gamma(\p P) into \p Out (cleared and refilled; capacity is
/// retained across calls) in subset-odometer order. The sweeps call this
/// once per (P, Q) pair with a reused buffer, so the fill cost is
/// |gamma(Q)| against |gamma(P)| * |gamma(Q)| of batched work. Requires
/// |gamma(P)| to be vector-materializable (<= 2^30 members).
void materializeMembers(const Tnum &P, std::vector<uint64_t> &Out);

/// A per-universe member table: gamma(U[i]) for every tnum of a universe,
/// materialized once (in subset-odometer order, like materializeMembers)
/// into one flat buffer. The exhaustive sweeps walk the full (P, Q) grid,
/// so each Q's concretization is re-materialized |U| times when done per
/// pair; memoizing it here trades Sigma |gamma| = 4^n words of memory
/// (8 MiB at width 10, 128 MiB at width 12) for dropping that refill from
/// the cell scan entirely. Batched-path outputs are bit-identical either
/// way -- the table stores exactly what materializeMembers produces.
class MemberTable {
public:
  MemberTable() = default;

  /// Builds the table for \p Universe. Every member of every tnum is
  /// stored, so the caller gates construction on memberTableBytes().
  explicit MemberTable(const std::vector<Tnum> &Universe);

  /// gamma(U[i]) as a flat span.
  const uint64_t *members(size_t I) const { return Flat.data() + Offsets[I]; }
  uint64_t numMembers(size_t I) const { return Offsets[I + 1] - Offsets[I]; }

  bool empty() const { return Offsets.empty(); }

private:
  std::vector<uint64_t> Flat;
  std::vector<uint64_t> Offsets; ///< Offsets[i] .. Offsets[i+1] spans U[i].
};

/// Bytes a MemberTable over the full width-\p Width universe occupies:
/// Sigma over well-formed tnums of |gamma| = 4^Width entries of 8 bytes
/// (plus the offset index, one word per tnum).
uint64_t memberTableBytes(unsigned Width);

} // namespace tnums

#endif // TNUMS_TNUM_TNUMMEMBERS_H
