//===- bpf/AbstractState.cpp - Per-point analyzer state -------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/AbstractState.h"

#include "support/Table.h"

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

AbstractState AbstractState::makeEntry(uint64_t MemSize) {
  AbstractState State;
  State.Reachable = true;
  State.Regs[R1] =
      AbsReg::makePointer(RegKind::PtrToMem, RegValue::makeConstant(0));
  State.Regs[R2] = AbsReg::makeScalar(RegValue::makeConstant(MemSize));
  State.Regs[R10] =
      AbsReg::makePointer(RegKind::PtrToStack, RegValue::makeConstant(0));
  return State;
}

AbstractState AbstractState::joinWith(const AbstractState &Q) const {
  if (!Reachable)
    return Q;
  if (!Q.Reachable)
    return *this;
  AbstractState Out;
  Out.Reachable = true;
  for (unsigned I = 0; I != NumRegs; ++I)
    Out.Regs[I] = Regs[I].joinWith(Q.Regs[I]);
  for (unsigned I = 0; I != NumStackSlots; ++I)
    Out.Slots[I] = Slots[I].joinWith(Q.Slots[I]);
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
  for (unsigned I = 0; I != NumStackSlots; ++I)
    if (!Slots[I].isSubsetOf(Q.Slots[I]))
      return false;
  return true;
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
    Slots = Base.Slots;
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
  for (unsigned I = 0; I != NumStackSlots; ++I)
    JoinOne(Slots[I], Base.Slots[I]);
  return Changed;
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
  for (unsigned I = 0; I != NumStackSlots; ++I) {
    if (Slots[I].kind() == RegKind::Uninit)
      continue;
    Text += formatString("%sfp-%u=%s", Text.empty() ? "" : " ", 8 * (I + 1),
                         Slots[I].toString().c_str());
  }
  return Text.empty() ? "<no live regs>" : Text;
}
