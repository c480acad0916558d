//===- bpf/AbstractState.cpp - Per-point analyzer state -------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/AbstractState.h"

#include "support/Table.h"

#include <bit>

using namespace tnums;
using namespace tnums::bpf;

const char *tnums::bpf::regKindName(RegKind Kind) {
  switch (Kind) {
  case RegKind::Uninit:
    return "uninit";
  case RegKind::Invalid:
    return "invalid";
  case RegKind::Scalar:
    return "scalar";
  case RegKind::PtrToMem:
    return "ptr_to_mem";
  case RegKind::PtrToStack:
    return "ptr_to_stack";
  }
  assert(false && "unknown reg kind");
  return "unknown";
}

AbsReg AbsReg::joinWith(const AbsReg &Q) const {
  if (Kind == Q.Kind) {
    if (!isUsable())
      return *this; // Uninit ∨ Uninit, Invalid ∨ Invalid.
    return AbsReg(Kind, Val.joinWith(Q.Val));
  }
  return makeInvalid();
}

bool AbsReg::isSubsetOf(const AbsReg &Q) const {
  if (Q.Kind == RegKind::Invalid)
    return true; // Invalid is the top of the kind lattice.
  if (Kind != Q.Kind)
    return false;
  if (!isUsable())
    return true;
  return Val.isSubsetOf(Q.Val);
}

AbsReg AbsReg::widenWith(const AbsReg &Joined) const {
  if (Joined.isSubsetOf(*this))
    return *this;
  AbsReg Widened = joinWith(Joined);
  if (!Widened.isUsable())
    return Widened;
  if (Widened.isScalar())
    return makeScalar(RegValue::makeTop());
  return makePointer(Widened.kind(), RegValue::makeTop());
}

std::string AbsReg::toString() const {
  if (!isUsable())
    return regKindName(Kind);
  if (isScalar())
    return Val.toString();
  return formatString("%s+%s", regKindName(Kind), Val.toString().c_str());
}

/// Calls \p Fn with the index of every set bit of \p Mask, lowest first.
template <typename FnT> static void forEachBit(uint64_t Mask, FnT Fn) {
  for (; Mask != 0; Mask &= Mask - 1)
    Fn(static_cast<unsigned>(std::countr_zero(Mask)));
}

/// True if \p Pred holds for the index of every set bit of \p Mask;
/// stops at the first bit where it fails.
template <typename PredT> static bool allBits(uint64_t Mask, PredT Pred) {
  for (; Mask != 0; Mask &= Mask - 1)
    if (!Pred(static_cast<unsigned>(std::countr_zero(Mask))))
      return false;
  return true;
}

AbstractState &AbstractState::operator=(const AbstractState &Q) {
  Reachable = Q.Reachable;
  Regs = Q.Regs;
  assignSlots(Q);
  return *this;
}

void AbstractState::assignSlots(const AbstractState &Q) {
  forEachBit(LiveSlots & ~Q.LiveSlots,
             [&](unsigned I) { Slots[I] = AbsReg::makeUninit(); });
  forEachBit(Q.LiveSlots, [&](unsigned I) { Slots[I] = Q.Slots[I]; });
  LiveSlots = Q.LiveSlots;
}

AbstractState AbstractState::makeEntry(uint64_t MemSize) {
  AbstractState State;
  State.assignEntry(MemSize);
  return State;
}

void AbstractState::assignEntry(uint64_t MemSize) {
  Reachable = true;
  Regs.fill(AbsReg::makeUninit());
  Regs[R1] =
      AbsReg::makePointer(RegKind::PtrToMem, RegValue::makeConstant(0));
  Regs[R2] = AbsReg::makeScalar(RegValue::makeConstant(MemSize));
  Regs[R10] =
      AbsReg::makePointer(RegKind::PtrToStack, RegValue::makeConstant(0));
  forEachBit(LiveSlots, [&](unsigned I) { Slots[I] = AbsReg::makeUninit(); });
  LiveSlots = 0;
}

// Where neither side has slot i live, both hold Uninit, which every
// whole-state operation below passes over: Uninit ∨ Uninit = Uninit,
// Uninit ⊑ Uninit, and Uninit == Uninit.

AbstractState AbstractState::joinWith(const AbstractState &Q) const {
  if (!Reachable)
    return Q;
  if (!Q.Reachable)
    return *this;
  AbstractState Out;
  Out.Reachable = true;
  for (unsigned I = 0; I != NumRegs; ++I)
    Out.Regs[I] = Regs[I].joinWith(Q.Regs[I]);
  forEachBit(LiveSlots | Q.LiveSlots, [&](unsigned I) {
    Out.setSlot(I, Slots[I].joinWith(Q.Slots[I]));
  });
  return Out;
}

bool AbstractState::isSubsetOf(const AbstractState &Q) const {
  if (!Reachable)
    return true;
  if (!Q.Reachable)
    return false;
  for (unsigned I = 0; I != NumRegs; ++I)
    if (!Regs[I].isSubsetOf(Q.Regs[I]))
      return false;
  return allBits(LiveSlots | Q.LiveSlots, [&](unsigned I) {
    return Slots[I].isSubsetOf(Q.Slots[I]);
  });
}

bool AbstractState::joinFrom(const StateDelta &From, unsigned &JoinCount,
                             unsigned WideningThreshold) {
  const AbstractState &Base = From.base();
  if (!Base.Reachable)
    return false;
  if (!Reachable) {
    // Unreachable is the identity (and is never widened): take From whole.
    ++JoinCount;
    Reachable = true;
    for (unsigned I = 0; I != NumRegs; ++I)
      Regs[I] = From.reg(I);
    assignSlots(Base);
    return true;
  }
  // The join counts once, at the first register that does not fit; the
  // registers before it fit, so joining or widening would keep them.
  bool Grew = false;
  bool Widen = false;
  bool Changed = false;
  auto JoinOne = [&](AbsReg &Old, const AbsReg &New) {
    if (New.isSubsetOf(Old))
      return;
    if (!Grew) {
      Grew = true;
      Widen = ++JoinCount > WideningThreshold;
    }
    AbsReg Joined = Old.joinWith(New);
    if (Widen)
      Joined = Old.widenWith(Joined);
    if (Joined == Old)
      return;
    Old = std::move(Joined);
    Changed = true;
  };
  for (unsigned I = 0; I != NumRegs; ++I)
    JoinOne(Regs[I], From.reg(I));
  // A slot live on either side stays live: only Uninit ∨ Uninit is
  // Uninit, and widening never returns Uninit either.
  forEachBit(LiveSlots | Base.LiveSlots,
             [&](unsigned I) { JoinOne(Slots[I], Base.Slots[I]); });
  LiveSlots |= Base.LiveSlots;
  return Changed;
}

bool tnums::bpf::operator==(const AbstractState &A, const AbstractState &B) {
  if (A.Reachable != B.Reachable)
    return false;
  if (!A.Reachable)
    return true;
  if (A.Regs != B.Regs || A.LiveSlots != B.LiveSlots)
    return false;
  return allBits(A.LiveSlots,
                 [&](unsigned I) { return A.Slots[I] == B.Slots[I]; });
}

std::string AbstractState::toString() const {
  if (!Reachable)
    return "<unreachable>";
  std::string Text;
  for (unsigned I = 0; I != NumRegs; ++I) {
    if (Regs[I].kind() == RegKind::Uninit)
      continue; // Keep dumps focused on live registers.
    Text += formatString("%sr%u=%s", Text.empty() ? "" : " ", I,
                         Regs[I].toString().c_str());
  }
  forEachBit(LiveSlots, [&](unsigned I) {
    Text += formatString("%sfp-%u=%s", Text.empty() ? "" : " ", 8 * (I + 1),
                         Slots[I].toString().c_str());
  });
  return Text.empty() ? "<no live regs>" : Text;
}
