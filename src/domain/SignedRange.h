//===- domain/SignedRange.h - Signed range domain ---------------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Signed counterpart of domain/Interval.h: [SMin, SMax] over the
/// sign-extended width-n values. Tracks the kernel verifier's smin/smax
/// pair; participates in the reduced product (domain/RegValue.h) and in
/// signed branch refinement (JSLT and friends).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_DOMAIN_SIGNEDRANGE_H
#define TNUMS_DOMAIN_SIGNEDRANGE_H

#include "support/Bits.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

namespace tnums {

/// A signed interval [Min, Max] over width-n values, or bottom.
class SignedRange {
public:
  /// Top at \p Width: [-2^(Width-1), 2^(Width-1) - 1].
  static SignedRange makeTop(unsigned Width = MaxBitWidth);

  static SignedRange makeBottom() { return SignedRange(1, 0, true); }

  static SignedRange makeConstant(int64_t C) { return SignedRange(C, C); }

  SignedRange(int64_t Min, int64_t Max);

  bool isBottom() const { return Bottom; }
  bool isConstant() const { return !Bottom && Min == Max; }

  int64_t min() const {
    assert(!Bottom && "min of empty range");
    return Min;
  }
  int64_t max() const {
    assert(!Bottom && "max of empty range");
    return Max;
  }

  bool contains(int64_t V) const { return !Bottom && Min <= V && V <= Max; }

  bool isSubsetOf(const SignedRange &Q) const;
  SignedRange joinWith(const SignedRange &Q) const;
  SignedRange meetWith(const SignedRange &Q) const;

  /// True if every member is non-negative (so signed == unsigned order).
  bool isNonNegative() const { return !Bottom && Min >= 0; }

  std::string toString() const;

  friend bool operator==(const SignedRange &A, const SignedRange &B) {
    if (A.Bottom || B.Bottom)
      return A.Bottom == B.Bottom;
    return A.Min == B.Min && A.Max == B.Max;
  }
  friend bool operator!=(const SignedRange &A, const SignedRange &B) {
    return !(A == B);
  }

private:
  SignedRange(int64_t MinV, int64_t MaxV, bool BottomV)
      : Min(MinV), Max(MaxV), Bottom(BottomV) {}

  int64_t Min;
  int64_t Max;
  bool Bottom;
};

// Top, the constructor and the lattice operations are defined here so that
// the reduced product's sync, join and order check inline them; see
// docs/DOMAIN.md.

inline SignedRange SignedRange::makeTop(unsigned Width) {
  assert(Width >= 1 && Width <= MaxBitWidth && "width out of range");
  if (Width == MaxBitWidth)
    return SignedRange(INT64_MIN, INT64_MAX);
  int64_t Half = int64_t(1) << (Width - 1);
  return SignedRange(-Half, Half - 1);
}

inline SignedRange::SignedRange(int64_t MinV, int64_t MaxV)
    : Min(MinV), Max(MaxV), Bottom(false) {
  assert(MinV <= MaxV && "inverted range; use makeBottom for empty");
}

inline bool SignedRange::isSubsetOf(const SignedRange &Q) const {
  if (Bottom)
    return true;
  if (Q.Bottom)
    return false;
  return Q.Min <= Min && Max <= Q.Max;
}

inline SignedRange SignedRange::joinWith(const SignedRange &Q) const {
  if (Bottom)
    return Q;
  if (Q.Bottom)
    return *this;
  return SignedRange(std::min(Min, Q.Min), std::max(Max, Q.Max));
}

inline SignedRange SignedRange::meetWith(const SignedRange &Q) const {
  if (Bottom || Q.Bottom)
    return makeBottom();
  int64_t NewMin = std::max(Min, Q.Min);
  int64_t NewMax = std::min(Max, Q.Max);
  if (NewMin > NewMax)
    return makeBottom();
  return SignedRange(NewMin, NewMax);
}

/// Abstract signed addition at \p Width; top on possible signed overflow.
SignedRange signedAdd(const SignedRange &P, const SignedRange &Q,
                      unsigned Width);

/// Abstract signed subtraction at \p Width; top on possible overflow.
SignedRange signedSub(const SignedRange &P, const SignedRange &Q,
                      unsigned Width);

/// Abstract signed negation at \p Width.
SignedRange signedNeg(const SignedRange &P, unsigned Width);

/// Arithmetic right shift by a constant amount (monotone, always exact).
SignedRange signedArshift(const SignedRange &P, unsigned Shift);

} // namespace tnums

#endif // TNUMS_DOMAIN_SIGNEDRANGE_H
