//===- domain/RegValue.cpp - Reduced product register value ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "domain/RegValue.h"

#include "support/Table.h"
#include "tnum/TnumOps.h"

#include <algorithm>

using namespace tnums;

RegValue::RegValue(Tnum T, Interval U, SignedRange S, unsigned WidthV)
    : TnumPart(T), UnsignedPart(U), SignedPart(S), Width(WidthV),
      Bottom(false) {
  assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
  sync();
}

RegValue::RegValue(Tnum T, Interval U, SignedRange S, unsigned WidthV,
                   bool BottomV)
    : TnumPart(T), UnsignedPart(U), SignedPart(S), Width(WidthV),
      Bottom(BottomV) {
  assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
}

// Top, bottom and constants are already in normal form, so their
// factories skip sync(); tests/AnalyzerEngineTest.cpp checks that sync()
// leaves each of them unchanged.
RegValue RegValue::makeTop(unsigned Width) {
  return RegValue(Tnum::makeUnknown(Width), Interval::makeTop(Width),
                  SignedRange::makeTop(Width), Width, /*BottomV=*/false);
}

RegValue RegValue::makeBottom(unsigned Width) {
  return RegValue(Tnum::makeBottom(), Interval::makeBottom(),
                  SignedRange::makeBottom(), Width, /*BottomV=*/true);
}

RegValue RegValue::makeConstant(uint64_t C, unsigned Width) {
  uint64_t Truncated = truncateToWidth(C, Width);
  return RegValue(Tnum::makeConstant(Truncated),
                  Interval::makeConstant(Truncated),
                  SignedRange::makeConstant(signExtend(Truncated, Width)),
                  Width, /*BottomV=*/false);
}

RegValue RegValue::fromTnum(Tnum T, unsigned Width) {
  assert(T.fitsWidth(Width) && "tnum wider than requested width");
  if (T.isBottom())
    return makeBottom(Width);
  return RegValue(T, Interval::makeTop(Width), SignedRange::makeTop(Width),
                  Width);
}

RegValue RegValue::fromUnsignedRange(uint64_t Min, uint64_t Max,
                                     unsigned Width) {
  assert(fitsWidth(Min, Width) && fitsWidth(Max, Width) && "range too wide");
  return RegValue(Tnum::makeUnknown(Width), Interval(Min, Max),
                  SignedRange::makeTop(Width), Width);
}

bool RegValue::contains(uint64_t V) const {
  if (Bottom)
    return false;
  uint64_t Truncated = truncateToWidth(V, Width);
  return TnumPart.contains(Truncated) && UnsignedPart.contains(Truncated) &&
         SignedPart.contains(signExtend(Truncated, Width));
}

bool RegValue::isSubsetOf(const RegValue &Q) const {
  assert(Width == Q.Width && "width mismatch");
  if (Bottom)
    return true;
  if (Q.Bottom)
    return false;
  return TnumPart.isSubsetOf(Q.TnumPart) &&
         UnsignedPart.isSubsetOf(Q.UnsignedPart) &&
         SignedPart.isSubsetOf(Q.SignedPart);
}

RegValue RegValue::joinWith(const RegValue &Q) const {
  assert(Width == Q.Width && "width mismatch");
  if (Bottom)
    return Q;
  if (Q.Bottom)
    return *this;
  return RegValue(TnumPart.joinWith(Q.TnumPart),
                  UnsignedPart.joinWith(Q.UnsignedPart),
                  SignedPart.joinWith(Q.SignedPart), Width);
}

RegValue RegValue::meetWith(const RegValue &Q) const {
  assert(Width == Q.Width && "width mismatch");
  if (Bottom || Q.Bottom)
    return makeBottom(Width);
  return RegValue(TnumPart.meetWith(Q.TnumPart),
                  UnsignedPart.meetWith(Q.UnsignedPart),
                  SignedPart.meetWith(Q.SignedPart), Width);
}

RegValue RegValue::refineTnum(Tnum T) const {
  if (Bottom)
    return *this;
  return RegValue(TnumPart.meetWith(T), UnsignedPart, SignedPart, Width);
}

RegValue RegValue::refineUnsigned(Interval I) const {
  if (Bottom)
    return *this;
  return RegValue(TnumPart, UnsignedPart.meetWith(I), SignedPart, Width);
}

RegValue RegValue::refineSigned(SignedRange S) const {
  if (Bottom)
    return *this;
  return RegValue(TnumPart, UnsignedPart, SignedPart.meetWith(S), Width);
}

std::string RegValue::toString() const {
  if (Bottom)
    return "<bottom>";
  return formatString("{tnum=%s, u=%s, s=%s}",
                      TnumPart.toString(Width).c_str(),
                      UnsignedPart.toString().c_str(),
                      SignedPart.toString().c_str());
}

bool tnums::operator==(const RegValue &A, const RegValue &B) {
  if (A.Width != B.Width)
    return false;
  if (A.Bottom || B.Bottom)
    return A.Bottom == B.Bottom;
  return A.TnumPart == B.TnumPart && A.UnsignedPart == B.UnsignedPart &&
         A.SignedPart == B.SignedPart;
}

bool RegValue::reduceOnce() {
  bool Changed = false;
  auto Update = [&](auto &Slot, auto NewValue) {
    if (Slot != NewValue) {
      Slot = NewValue;
      Changed = true;
    }
  };

  // Tnum -> unsigned: the least/greatest members bound the interval.
  Update(UnsignedPart, UnsignedPart.meetWith(Interval(
                           TnumPart.minMember(), TnumPart.maxMember())));
  if (UnsignedPart.isBottom())
    return true;

  // Unsigned -> tnum: the common high-bit prefix of [min, max] is known.
  Update(TnumPart, TnumPart.meetWith(
                       Tnum::makeRange(UnsignedPart.min(), UnsignedPart.max())));
  if (TnumPart.isBottom())
    return true;

  uint64_t SignBit = uint64_t(1) << (Width - 1);
  uint64_t BelowSignMask = SignBit - 1; // Bits below the sign position.

  // Tnum sign trit -> signed bounds (unsigned order equals signed order
  // within either half of the number circle).
  Trit SignTrit = TnumPart.tritAt(Width - 1);
  if (SignTrit != Trit::Unknown) {
    int64_t Lo = signExtend(UnsignedPart.min(), Width);
    int64_t Hi = signExtend(UnsignedPart.max(), Width);
    Update(SignedPart, SignedPart.meetWith(
                           Lo <= Hi ? SignedRange(Lo, Hi)
                                    : SignedRange::makeTop(Width)));
  } else {
    // Signed bounds -> tnum sign trit.
    if (SignedPart.isBottom())
      return true;
    if (SignedPart.isNonNegative()) {
      Update(TnumPart, TnumPart.meetWith(Tnum(0, BelowSignMask)));
      Update(UnsignedPart,
             UnsignedPart.meetWith(Interval(0, BelowSignMask)));
    } else if (SignedPart.max() < 0) {
      Update(TnumPart, TnumPart.meetWith(Tnum(SignBit, BelowSignMask)));
      Update(UnsignedPart,
             UnsignedPart.meetWith(Interval(SignBit, lowBitsMask(Width))));
    }
  }
  if (TnumPart.isBottom() || UnsignedPart.isBottom() ||
      SignedPart.isBottom())
    return true;

  // Signed -> unsigned when the signed range stays within one half.
  if (SignedPart.isNonNegative()) {
    Update(UnsignedPart,
           UnsignedPart.meetWith(
               Interval(static_cast<uint64_t>(SignedPart.min()),
                        static_cast<uint64_t>(SignedPart.max()))));
  } else if (SignedPart.max() < 0) {
    Update(UnsignedPart,
           UnsignedPart.meetWith(Interval(
               truncateToWidth(static_cast<uint64_t>(SignedPart.min()), Width),
               truncateToWidth(static_cast<uint64_t>(SignedPart.max()),
                               Width))));
  }
  if (UnsignedPart.isBottom())
    return true;

  // Unsigned -> signed when the unsigned range stays within one half.
  if (UnsignedPart.max() <= BelowSignMask) {
    Update(SignedPart,
           SignedPart.meetWith(
               SignedRange(static_cast<int64_t>(UnsignedPart.min()),
                           static_cast<int64_t>(UnsignedPart.max()))));
  } else if (UnsignedPart.min() >= SignBit) {
    Update(SignedPart, SignedPart.meetWith(SignedRange(
                           signExtend(UnsignedPart.min(), Width),
                           signExtend(UnsignedPart.max(), Width))));
  }
  return Changed;
}

void RegValue::sync() {
  if (Bottom)
    return;
  for (;;) {
    if (TnumPart.isBottom() || UnsignedPart.isBottom() ||
        SignedPart.isBottom()) {
      *this = makeBottom(Width);
      return;
    }
    if (!reduceOnce())
      return;
  }
}

RegValue tnums::applyBinary(BinaryOp Op, const RegValue &L,
                            const RegValue &R) {
  assert(L.Width == R.Width && "width mismatch");
  unsigned Width = L.Width;
  if (L.Bottom || R.Bottom)
    return RegValue::makeBottom(Width);

  Tnum T = applyAbstractBinary(Op, L.TnumPart, R.TnumPart, Width);

  Interval U = Interval::makeTop(Width);
  SignedRange S = SignedRange::makeTop(Width);
  const Interval &LU = L.UnsignedPart;
  const Interval &RU = R.UnsignedPart;
  const SignedRange &LS = L.SignedPart;
  const SignedRange &RS = R.SignedPart;

  switch (Op) {
  case BinaryOp::Add:
    U = intervalAdd(LU, RU, Width);
    S = signedAdd(LS, RS, Width);
    break;
  case BinaryOp::Sub:
    U = intervalSub(LU, RU, Width);
    S = signedSub(LS, RS, Width);
    break;
  case BinaryOp::Mul:
    U = intervalMul(LU, RU, Width);
    break;
  case BinaryOp::Div:
    U = intervalDiv(LU, RU, Width);
    break;
  case BinaryOp::Mod:
    // x % 0 == x in BPF, so a divisor range containing zero caps the result
    // at the larger of the dividend max and divisor-1.
    if (RU.min() > 0)
      U = Interval(0, std::min(LU.max(), RU.max() - 1));
    else
      U = Interval(0, std::max(LU.max(),
                               RU.max() == 0 ? 0 : RU.max() - 1));
    break;
  case BinaryOp::And:
    U = intervalAnd(LU, RU);
    break;
  case BinaryOp::Or:
    U = intervalOr(LU, RU, Width);
    break;
  case BinaryOp::Xor:
    break; // Tnum carries the precision; interval stays top.
  case BinaryOp::Lsh:
    if (R.isConstant())
      U = intervalShl(LU, static_cast<unsigned>(R.constantValue()) &
                              (Width - 1),
                      Width);
    break;
  case BinaryOp::Rsh:
    if (R.isConstant())
      U = intervalShr(LU, static_cast<unsigned>(R.constantValue()) &
                              (Width - 1));
    else
      U = Interval(0, LU.max()); // Right shift never increases a value.
    break;
  case BinaryOp::Arsh:
    if (R.isConstant())
      S = signedArshift(LS, static_cast<unsigned>(R.constantValue()) &
                                (Width - 1));
    break;
  }
  return RegValue(T, U, S, Width);
}

RegValue tnums::truncateToSubreg(const RegValue &V) {
  if (V.isBottom())
    return RegValue::makeBottom(32);
  RegValue Out = RegValue::fromTnum(tnumTruncate(V.tnum(), 32), 32);
  // Numeric bounds carry over only when the 64-bit value already fits the
  // subregister (otherwise wrap-around decouples the two views).
  if (!V.unsignedBounds().isBottom() &&
      V.unsignedBounds().max() <= lowBitsMask(32))
    Out = Out.refineUnsigned(V.unsignedBounds());
  return Out;
}

RegValue tnums::zeroExtendSubreg(const RegValue &V32) {
  assert(V32.width() == 32 && "expected a width-32 value");
  if (V32.isBottom())
    return RegValue::makeBottom(64);
  RegValue Out = RegValue::fromTnum(V32.tnum(), 64);
  if (!V32.unsignedBounds().isBottom())
    Out = Out.refineUnsigned(V32.unsignedBounds());
  return Out;
}

RegValue tnums::applyBinary32(BinaryOp Op, const RegValue &L,
                              const RegValue &R) {
  assert(L.width() == 64 && R.width() == 64 && "alu32 on 64-bit registers");
  if (L.isBottom() || R.isBottom())
    return RegValue::makeBottom(64);
  return zeroExtendSubreg(
      applyBinary(Op, truncateToSubreg(L), truncateToSubreg(R)));
}

void tnums::refineByComparison32(CompareOp Op, bool Taken, RegValue &L,
                                 RegValue &R) {
  assert(L.width() == 64 && R.width() == 64 && "jmp32 on 64-bit registers");
  if (L.isBottom() || R.isBottom())
    return;
  RegValue L32 = truncateToSubreg(L);
  RegValue R32 = truncateToSubreg(R);
  refineByComparison(Op, Taken, L32, R32);
  if (L32.isBottom() || R32.isBottom()) {
    L = RegValue::makeBottom(64);
    R = RegValue::makeBottom(64);
    return;
  }
  uint64_t HighMask = ~lowBitsMask(32);
  // Fold the refined low half back; the comparison says nothing about the
  // high half, so it stays unknown in the meet operand.
  L = L.refineTnum(Tnum(L32.tnum().value(), L32.tnum().mask() | HighMask));
  R = R.refineTnum(Tnum(R32.tnum().value(), R32.tnum().mask() | HighMask));
  if (L.isBottom() || R.isBottom()) {
    L = RegValue::makeBottom(64);
    R = RegValue::makeBottom(64);
    return;
  }
  // Numeric bounds transfer only when the 64-bit value provably fits the
  // subregister (then value == subregister view).
  if (!L.isBottom() && L.unsignedBounds().max() <= lowBitsMask(32))
    L = L.refineUnsigned(L32.unsignedBounds());
  if (!R.isBottom() && R.unsignedBounds().max() <= lowBitsMask(32))
    R = R.refineUnsigned(R32.unsignedBounds());
  if (L.isBottom() || R.isBottom()) {
    L = RegValue::makeBottom(64);
    R = RegValue::makeBottom(64);
  }
}

const char *tnums::compareOpName(CompareOp Op) {
  switch (Op) {
  case CompareOp::Eq:
    return "eq";
  case CompareOp::Ne:
    return "ne";
  case CompareOp::Lt:
    return "lt";
  case CompareOp::Le:
    return "le";
  case CompareOp::Gt:
    return "gt";
  case CompareOp::Ge:
    return "ge";
  case CompareOp::SLt:
    return "slt";
  case CompareOp::SLe:
    return "sle";
  case CompareOp::SGt:
    return "sgt";
  case CompareOp::SGe:
    return "sge";
  case CompareOp::Set:
    return "set";
  }
  assert(false && "unknown compare op");
  return "unknown";
}

bool tnums::applyConcreteCompare(CompareOp Op, uint64_t L, uint64_t R,
                                 unsigned Width) {
  uint64_t UL = truncateToWidth(L, Width);
  uint64_t UR = truncateToWidth(R, Width);
  int64_t SL = signExtend(L, Width);
  int64_t SR = signExtend(R, Width);
  switch (Op) {
  case CompareOp::Eq:
    return UL == UR;
  case CompareOp::Ne:
    return UL != UR;
  case CompareOp::Lt:
    return UL < UR;
  case CompareOp::Le:
    return UL <= UR;
  case CompareOp::Gt:
    return UL > UR;
  case CompareOp::Ge:
    return UL >= UR;
  case CompareOp::SLt:
    return SL < SR;
  case CompareOp::SLe:
    return SL <= SR;
  case CompareOp::SGt:
    return SL > SR;
  case CompareOp::SGe:
    return SL >= SR;
  case CompareOp::Set:
    return (UL & UR) != 0;
  }
  assert(false && "unknown compare op");
  return false;
}

/// The comparison that holds exactly when \p Op does not.
static CompareOp negateCompare(CompareOp Op) {
  switch (Op) {
  case CompareOp::Eq:
    return CompareOp::Ne;
  case CompareOp::Ne:
    return CompareOp::Eq;
  case CompareOp::Lt:
    return CompareOp::Ge;
  case CompareOp::Le:
    return CompareOp::Gt;
  case CompareOp::Gt:
    return CompareOp::Le;
  case CompareOp::Ge:
    return CompareOp::Lt;
  case CompareOp::SLt:
    return CompareOp::SGe;
  case CompareOp::SLe:
    return CompareOp::SGt;
  case CompareOp::SGt:
    return CompareOp::SLe;
  case CompareOp::SGe:
    return CompareOp::SLt;
  case CompareOp::Set:
    assert(false && "Set has no CompareOp negation; handled separately");
    return CompareOp::Set;
  }
  assert(false && "unknown compare op");
  return Op;
}

/// Removes the single constant \p K from \p V where the removal is
/// expressible (kernel-style endpoint trimming).
static RegValue excludeConstant(const RegValue &V, uint64_t K,
                                unsigned Width) {
  if (V.isBottom())
    return V;
  if (V.isConstant())
    return V.constantValue() == K ? RegValue::makeBottom(Width) : V;
  RegValue Out = V;
  const Interval &U = V.unsignedBounds();
  if (U.min() == K)
    Out = Out.refineUnsigned(Interval(K + 1, lowBitsMask(Width)));
  else if (U.max() == K)
    Out = Out.refineUnsigned(Interval(0, K - 1));
  int64_t SK = signExtend(K, Width);
  const SignedRange &S = V.signedBounds();
  if (Out.isBottom() || S.isBottom())
    return Out;
  if (S.min() == SK)
    Out = Out.refineSigned(
        SignedRange(SK + 1, SignedRange::makeTop(Width).max()));
  else if (S.max() == SK)
    Out = Out.refineSigned(
        SignedRange(SignedRange::makeTop(Width).min(), SK - 1));
  return Out;
}

void tnums::refineByComparison(CompareOp Op, bool Taken, RegValue &L,
                               RegValue &R) {
  assert(L.width() == R.width() && "width mismatch");
  unsigned Width = L.width();
  if (L.isBottom() || R.isBottom())
    return;

  // JSET has no dual CompareOp; handle both polarities inline.
  if (Op == CompareOp::Set) {
    if (Taken) {
      // L & R != 0. A constant single-bit R pins that bit of L to 1.
      if (R.isConstant()) {
        uint64_t K = R.constantValue();
        if (K == 0) { // L & 0 != 0 is unsatisfiable.
          L = RegValue::makeBottom(Width);
          R = RegValue::makeBottom(Width);
          return;
        }
        if (popCount(K) == 1)
          L = L.refineTnum(Tnum(K, lowBitsMask(Width) & ~K));
      }
    } else {
      // L & R == 0: every bit known 1 in R must be 0 in L and vice versa.
      if (R.isConstant())
        L = L.refineTnum(Tnum(0, lowBitsMask(Width) & ~R.constantValue()));
      if (L.isConstant())
        R = R.refineTnum(Tnum(0, lowBitsMask(Width) & ~L.constantValue()));
    }
    return;
  }

  CompareOp Effective = Taken ? Op : negateCompare(Op);
  uint64_t WidthMask = lowBitsMask(Width);
  SignedRange STop = SignedRange::makeTop(Width);

  switch (Effective) {
  case CompareOp::Eq: {
    RegValue Meet = L.meetWith(R);
    L = Meet;
    R = Meet;
    break;
  }
  case CompareOp::Ne: {
    RegValue OldL = L;
    if (R.isConstant())
      L = excludeConstant(L, R.constantValue(), Width);
    if (OldL.isConstant())
      R = excludeConstant(R, OldL.constantValue(), Width);
    break;
  }
  case CompareOp::Lt: {
    uint64_t RMax = R.unsignedBounds().isBottom() ? 0 : R.unsignedBounds().max();
    uint64_t LMin = L.unsignedBounds().isBottom() ? 0 : L.unsignedBounds().min();
    if (RMax == 0) { // L < 0 is unsatisfiable.
      L = RegValue::makeBottom(Width);
      R = RegValue::makeBottom(Width);
      return;
    }
    L = L.refineUnsigned(Interval(0, RMax - 1));
    if (LMin == WidthMask)
      R = RegValue::makeBottom(Width);
    else
      R = R.refineUnsigned(Interval(LMin + 1, WidthMask));
    break;
  }
  case CompareOp::Le: {
    uint64_t RMax = R.unsignedBounds().max();
    uint64_t LMin = L.unsignedBounds().min();
    L = L.refineUnsigned(Interval(0, RMax));
    R = R.refineUnsigned(Interval(LMin, WidthMask));
    break;
  }
  case CompareOp::Gt: {
    uint64_t RMin = R.unsignedBounds().min();
    uint64_t LMax = L.unsignedBounds().max();
    if (RMin == WidthMask) { // L > all-ones is unsatisfiable.
      L = RegValue::makeBottom(Width);
      R = RegValue::makeBottom(Width);
      return;
    }
    L = L.refineUnsigned(Interval(RMin + 1, WidthMask));
    if (LMax == 0)
      R = RegValue::makeBottom(Width);
    else
      R = R.refineUnsigned(Interval(0, LMax - 1));
    break;
  }
  case CompareOp::Ge: {
    uint64_t RMin = R.unsignedBounds().min();
    uint64_t LMax = L.unsignedBounds().max();
    L = L.refineUnsigned(Interval(RMin, WidthMask));
    R = R.refineUnsigned(Interval(0, LMax));
    break;
  }
  case CompareOp::SLt: {
    int64_t RMax = R.signedBounds().max();
    int64_t LMin = L.signedBounds().min();
    if (RMax == STop.min()) {
      L = RegValue::makeBottom(Width);
      R = RegValue::makeBottom(Width);
      return;
    }
    L = L.refineSigned(SignedRange(STop.min(), RMax - 1));
    if (LMin == STop.max())
      R = RegValue::makeBottom(Width);
    else
      R = R.refineSigned(SignedRange(LMin + 1, STop.max()));
    break;
  }
  case CompareOp::SLe: {
    int64_t RMax = R.signedBounds().max();
    int64_t LMin = L.signedBounds().min();
    L = L.refineSigned(SignedRange(STop.min(), RMax));
    R = R.refineSigned(SignedRange(LMin, STop.max()));
    break;
  }
  case CompareOp::SGt: {
    int64_t RMin = R.signedBounds().min();
    int64_t LMax = L.signedBounds().max();
    if (RMin == STop.max()) {
      L = RegValue::makeBottom(Width);
      R = RegValue::makeBottom(Width);
      return;
    }
    L = L.refineSigned(SignedRange(RMin + 1, STop.max()));
    if (LMax == STop.min())
      R = RegValue::makeBottom(Width);
    else
      R = R.refineSigned(SignedRange(STop.min(), LMax - 1));
    break;
  }
  case CompareOp::SGe: {
    int64_t RMin = R.signedBounds().min();
    int64_t LMax = L.signedBounds().max();
    L = L.refineSigned(SignedRange(RMin, STop.max()));
    R = R.refineSigned(SignedRange(STop.min(), LMax));
    break;
  }
  case CompareOp::Set:
    assert(false && "handled above");
    break;
  }

  // A refinement that emptied one side makes the whole branch unreachable.
  if (L.isBottom() || R.isBottom()) {
    L = RegValue::makeBottom(Width);
    R = RegValue::makeBottom(Width);
  }
}
