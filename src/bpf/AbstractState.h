//===- bpf/AbstractState.h - Per-point analyzer state -----------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract machine state the analyzer tracks at every program point:
/// one AbsReg per architectural register, where a register is either
/// uninitialized, a scalar (tracked by the RegValue reduced product whose
/// bit-level component is the paper's tnum domain), or a pointer into one
/// of the two memory regions with an abstract offset. This miniaturizes the
/// kernel's bpf_reg_state / bpf_verifier_state pair.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_ABSTRACTSTATE_H
#define TNUMS_BPF_ABSTRACTSTATE_H

#include "bpf/Insn.h"
#include "domain/RegValue.h"

#include <array>
#include <string>

namespace tnums {
namespace bpf {

/// What a register holds. Uninit/Invalid are unusable; using one is a
/// verifier violation (not an analysis error).
enum class RegKind : uint8_t {
  Uninit,     ///< Never written on some path.
  Invalid,    ///< Join of incompatible kinds; contents unusable.
  Scalar,     ///< A number, tracked by the reduced-product RegValue.
  PtrToMem,   ///< Context pointer + abstract byte offset.
  PtrToStack, ///< Frame pointer + abstract (signed) byte offset.
};

const char *regKindName(RegKind Kind);

/// One register's abstract contents: a kind plus a RegValue that holds the
/// scalar value (Scalar) or the pointer offset (PtrTo*).
class AbsReg {
public:
  /// Uninitialized (entry state of the scratch registers).
  AbsReg() : Kind(RegKind::Uninit), Val(RegValue::makeBottom()) {}

  static AbsReg makeUninit() { return AbsReg(); }
  static AbsReg makeInvalid() {
    return AbsReg(RegKind::Invalid, RegValue::makeTop());
  }
  static AbsReg makeScalar(RegValue V) {
    return AbsReg(RegKind::Scalar, std::move(V));
  }
  static AbsReg makePointer(RegKind PtrKind, RegValue Offset) {
    assert((PtrKind == RegKind::PtrToMem || PtrKind == RegKind::PtrToStack) &&
           "not a pointer kind");
    return AbsReg(PtrKind, std::move(Offset));
  }

  RegKind kind() const { return Kind; }
  bool isScalar() const { return Kind == RegKind::Scalar; }
  bool isPointer() const {
    return Kind == RegKind::PtrToMem || Kind == RegKind::PtrToStack;
  }
  /// Usable as an operand (reading it is not a violation).
  bool isUsable() const { return isScalar() || isPointer(); }

  /// The scalar value or pointer offset; only valid when usable.
  const RegValue &value() const {
    assert(isUsable() && "value of unusable register");
    return Val;
  }

  /// Least upper bound. Same kinds join their values; incompatible kinds
  /// collapse to Invalid (two Uninits stay Uninit).
  AbsReg joinWith(const AbsReg &Q) const;

  /// Partial order consistent with joinWith.
  bool isSubsetOf(const AbsReg &Q) const;

  /// The analyzer's widening of this (older) value by \p Joined (this ∨ a
  /// new value): this value if \p Joined adds nothing, else the top of the
  /// joined kind, so ascending chains stay finite.
  AbsReg widenWith(const AbsReg &Joined) const;

  std::string toString() const;

  friend bool operator==(const AbsReg &A, const AbsReg &B) {
    if (A.Kind != B.Kind)
      return false;
    if (!A.isUsable())
      return true;
    return A.Val == B.Val;
  }
  friend bool operator!=(const AbsReg &A, const AbsReg &B) {
    return !(A == B);
  }

private:
  AbsReg(RegKind KindV, RegValue ValV) : Kind(KindV), Val(std::move(ValV)) {}

  RegKind Kind;
  RegValue Val;
};

struct AbstractState;

/// A successor state given as its predecessor with at most two registers
/// replaced: what every non-store transfer (the destination) and branch
/// refinement (both operands) produces, so the successor never has to be
/// copied out of the predecessor. The base state must outlive the delta.
class StateDelta {
public:
  explicit StateDelta(const AbstractState &BaseV) : Base(BaseV) {}

  /// Replaces register \p Reg; setting the same register again overrides.
  void set(unsigned Reg, AbsReg Value) {
    unsigned Index = 0;
    while (Index != NumSet && SetReg[Index] != Reg)
      ++Index;
    assert(Index != SetReg.size() && "more than two replaced registers");
    if (Index == NumSet)
      ++NumSet;
    SetReg[Index] = Reg;
    SetValue[Index] = std::move(Value);
  }

  const AbstractState &base() const { return Base; }

  /// Register \p Reg of the successor state.
  const AbsReg &reg(unsigned Reg) const;

private:
  const AbstractState &Base;
  unsigned NumSet = 0;
  std::array<unsigned, 2> SetReg = {};
  std::array<AbsReg, 2> SetValue;
};

/// The full abstract machine state at one program point. Unreachable
/// states are the analysis bottom. Besides the register file, the state
/// tracks the 64 8-byte stack slots so that spill/fill round trips (store
/// to r10-k, load back) preserve abstract values, as the kernel verifier
/// does. Slot i covers frame offsets [-8(i+1), -8i); slot contents reuse
/// AbsReg: Uninit = never written, Invalid = corrupted spill, Scalar and
/// PtrTo* = precisely tracked 8-byte spills or "misc" byte data
/// (Scalar top).
///
/// Most slots are Uninit in most states, so the state keeps a LiveSlots
/// mask -- bit i is set exactly when slot i is not Uninit -- and every
/// whole-state operation (join, order, equality, copy-assignment, dump)
/// visits only the slots in the mask. Slots are therefore written only
/// through setSlot(), which keeps the mask right.
struct AbstractState {
  static_assert(NumStackSlots <= 64, "LiveSlots is one 64-bit mask");

  bool Reachable = false;
  std::array<AbsReg, NumRegs> Regs;

  AbstractState() = default;
  AbstractState(const AbstractState &) = default;

  /// Copies the registers and the live slots of \p Q, and resets the
  /// slots live here but not in \p Q.
  AbstractState &operator=(const AbstractState &Q);

  /// The contents of stack slot \p Index.
  const AbsReg &slot(unsigned Index) const { return Slots[Index]; }

  /// Writes stack slot \p Index, keeping LiveSlots right.
  void setSlot(unsigned Index, AbsReg Value) {
    uint64_t Bit = uint64_t(1) << Index;
    if (Value.kind() == RegKind::Uninit)
      LiveSlots &= ~Bit;
    else
      LiveSlots |= Bit;
    Slots[Index] = std::move(Value);
  }

  /// Bit i is set exactly when slot i is not Uninit.
  uint64_t liveSlots() const { return LiveSlots; }

  /// The slot index covering frame offset \p Offset (which must be in
  /// [-StackSize, -1]).
  static unsigned slotIndex(int64_t Offset) {
    assert(Offset < 0 && Offset >= -static_cast<int64_t>(StackSize) &&
           "offset outside the frame");
    return static_cast<unsigned>((-Offset - 1) / 8);
  }

  /// The state on entry to a program run against a \p MemSize-byte context
  /// region: R1 = mem pointer (offset 0), R2 = MemSize, R10 = stack
  /// pointer (offset 0), everything else uninitialized.
  static AbstractState makeEntry(uint64_t MemSize);

  /// Overwrites this state with makeEntry(\p MemSize) in place, touching
  /// only the registers and the slots live here.
  void assignEntry(uint64_t MemSize);

  static AbstractState makeUnreachable() { return AbstractState(); }

  /// Pointwise join; unreachable is the identity.
  AbstractState joinWith(const AbstractState &Q) const;

  /// Pointwise order; unreachable below everything.
  bool isSubsetOf(const AbstractState &Q) const;

  /// The analyzer's propagation step, fused into one in-place pass: joins
  /// \p From into this state, skipping every register \p From already
  /// fits under. If some register does not fit, \p JoinCount is
  /// incremented once; when it then exceeds \p WideningThreshold and
  /// this state was reachable, every grown register is widened
  /// (AbsReg::widenWith). Returns true if this state changed.
  ///
  /// Equal, by operator==, to the whole-state reference: return false if
  /// From is a subset; else J = joinWith(From), widen each register of J
  /// against this state past the threshold, and assign J if it differs.
  bool joinFrom(const StateDelta &From, unsigned &JoinCount,
                unsigned WideningThreshold);

  std::string toString() const;

  friend bool operator==(const AbstractState &A, const AbstractState &B);
  friend bool operator!=(const AbstractState &A, const AbstractState &B) {
    return !(A == B);
  }

private:
  /// Makes the slots and LiveSlots equal to \p Q's.
  void assignSlots(const AbstractState &Q);

  std::array<AbsReg, NumStackSlots> Slots;
  uint64_t LiveSlots = 0;
};

bool operator==(const AbstractState &A, const AbstractState &B);

inline const AbsReg &StateDelta::reg(unsigned Reg) const {
  for (unsigned Index = 0; Index != NumSet; ++Index)
    if (SetReg[Index] == Reg)
      return SetValue[Index];
  return Base.Regs[Reg];
}

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_ABSTRACTSTATE_H
