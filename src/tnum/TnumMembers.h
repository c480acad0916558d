//===- tnum/TnumMembers.h - Padded 16-bit member lists ----------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gamma(P) materialized as a flat list for the batched member-pair loops
/// (verify/MemberLoops.h). forEachMember (TnumEnum.h) hands members to a
/// callback one at a time; the batched sweeps instead want whole
/// concretizations laid out as 16-byte vectors. Both visit members in the
/// SAME order -- the subset odometer over the mask, increasing -- which is
/// what lets the batched checkers reproduce the scalar checkers'
/// serial-order-first counterexamples and exact work counters bit for bit.
///
/// Every sweep grid has Width <= 16 (allWellFormedTnums), so a member is
/// one 16-bit lane, eight to a vector. Each list is padded to a whole
/// vector by repeating its last member: a duplicate member changes neither
/// the OR of non-membership nor the AND/OR folds of alpha, so the loops
/// need no scalar tail. Counts always come from the real length.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_TNUM_TNUMMEMBERS_H
#define TNUMS_TNUM_TNUMMEMBERS_H

#include "tnum/Tnum.h"

#include <vector>

namespace tnums {

/// One member of a width <= 16 concretization.
using MemberLane = uint16_t;

/// Lanes per 16-byte vector; every list is padded to a multiple of this.
inline constexpr unsigned MemberVecLanes = 8;

/// Stored length of a list of \p Count members (0 stays 0).
inline uint64_t paddedMemberCount(uint64_t Count) {
  return (Count + MemberVecLanes - 1) & ~uint64_t(MemberVecLanes - 1);
}

/// A padded member list: Lanes[0, Count) is gamma(P) in subset-odometer
/// order and Lanes[Count, paddedMemberCount(Count)) repeat its last member.
struct MemberSpan {
  const MemberLane *Lanes = nullptr;
  uint64_t Count = 0; ///< |gamma(P)|, never the padded length.
};

/// Materializes gamma(\p P) into \p Out (resized; capacity is retained
/// across calls) and returns the list. Requires P's value and mask to fit
/// 16 bits; bottom yields an empty list.
MemberSpan materializeMembers(const Tnum &P, std::vector<MemberLane> &Out);

/// A per-universe member table: gamma(U[i]) for every tnum of a universe,
/// materialized once into one flat buffer of padded lists. The exhaustive
/// sweeps walk the full (P, Q) grid, so each concretization would
/// otherwise be re-materialized |U| times; the table trades
/// memberTableBytes(Width) of memory (about 2 * 4^Width bytes) for
/// dropping that refill from the cell scan entirely. It stores exactly
/// what materializeMembers produces.
class MemberTable {
public:
  /// Where U[i]'s list starts in the flat buffer, and its real length.
  struct Entry {
    uint64_t Offset;
    uint64_t Count;
  };

  /// Builds the table for \p Universe, presized, in one pass over the
  /// members. The caller gates construction on memberTableBytes().
  explicit MemberTable(const std::vector<Tnum> &Universe);

  /// gamma(U[i]) as a padded list.
  MemberSpan members(size_t I) const {
    return {Lanes.data() + Entries[I].Offset, Entries[I].Count};
  }

private:
  std::vector<MemberLane> Lanes;
  std::vector<Entry> Entries;
};

/// Exact bytes a MemberTable over the full width-\p Width universe
/// occupies: every padded list plus one Entry per tnum.
uint64_t memberTableBytes(unsigned Width);

} // namespace tnums

#endif // TNUMS_TNUM_TNUMMEMBERS_H
