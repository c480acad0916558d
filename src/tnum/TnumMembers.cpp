//===- tnum/TnumMembers.cpp - Padded 16-bit member lists ------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "tnum/TnumMembers.h"

#include <algorithm>

using namespace tnums;

namespace {

uint64_t memberCount(const Tnum &P) {
  return P.isBottom() ? 0 : uint64_t(1) << P.numUnknownBits();
}

/// Writes gamma(P) (non-bottom) at \p Out through the subset odometer --
/// forEachMember's order -- then pads it to a whole vector by repeating
/// the last member.
void writeMembers(const Tnum &P, MemberLane *Out) {
  assert(((P.value() | P.mask()) >> 16) == 0 &&
         "member lists hold 16-bit lanes");
  const uint64_t Value = P.value();
  const uint64_t Mask = P.mask();
  uint64_t Subset = 0;
  MemberLane *Next = Out;
  for (;;) {
    *Next++ = static_cast<MemberLane>(Value | Subset);
    if (Subset == Mask)
      break;
    Subset = (Subset - Mask) & Mask;
  }
  const uint64_t Count = static_cast<uint64_t>(Next - Out);
  std::fill(Next, Out + paddedMemberCount(Count), Next[-1]);
}

} // namespace

MemberSpan tnums::materializeMembers(const Tnum &P,
                                     std::vector<MemberLane> &Out) {
  const uint64_t Count = memberCount(P);
  Out.resize(paddedMemberCount(Count));
  if (Count)
    writeMembers(P, Out.data());
  return {Out.data(), Count};
}

MemberTable::MemberTable(const std::vector<Tnum> &Universe) {
  Entries.reserve(Universe.size());
  uint64_t Total = 0;
  for (const Tnum &T : Universe) {
    const uint64_t Count = memberCount(T);
    Entries.push_back({Total, Count});
    Total += paddedMemberCount(Count);
  }
  Lanes.resize(Total);
  for (size_t I = 0; I != Universe.size(); ++I)
    if (Entries[I].Count)
      writeMembers(Universe[I], Lanes.data() + Entries[I].Offset);
}

uint64_t tnums::memberTableBytes(unsigned Width) {
  assert(Width <= 16 && "member lists hold 16-bit lanes");
  // C(Width, k) * 2^(Width-k) tnums have k unknown trits, 2^k members
  // each; 3^Width tnums in all.
  uint64_t Lanes = 0, Tnums = 0, Choose = 1;
  for (unsigned K = 0; K <= Width; ++K) {
    const uint64_t WithK = Choose << (Width - K);
    Lanes += WithK * paddedMemberCount(uint64_t(1) << K);
    Tnums += WithK;
    Choose = Choose * (Width - K) / (K + 1);
  }
  return Lanes * sizeof(MemberLane) + Tnums * sizeof(MemberTable::Entry);
}
