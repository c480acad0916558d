//===- verify/MemberLoops.cpp - Batched member-pair loops -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/MemberLoops.h"

#include "tnum/TnumEnum.h"

#include <algorithm>
#include <bit>
#include <cstring>

using namespace tnums;

namespace {

/// Lanes per vector: 16 bytes, the vector register every supported build
/// target has (SSE2 on x86-64, Advanced SIMD on AArch64). Wider generic
/// vectors on such a target are split through memory, which measured
/// slower.
constexpr unsigned VecLanes = 2;
typedef uint64_t Vec __attribute__((vector_size(VecLanes * sizeof(uint64_t))));
/// The same register viewed as 32-bit lanes, for the narrow multiply.
typedef uint32_t Vec32
    __attribute__((vector_size(VecLanes * sizeof(uint64_t))));

/// Widest width at which Mul uses the 32-bit lane multiply: operands below
/// 2^16 keep every product below 2^32, so the low 32-bit product of each
/// 64-bit lane is the exact product and the high halves multiply 0 * 0.
constexpr unsigned MaxMul32Width = 16;

// Vectors travel by reference: passed by value, their calling convention
// would depend on the target's vector extensions (GCC's -Wpsabi).

void loadLanes(Vec &V, const uint64_t *P) { std::memcpy(&V, P, sizeof V); }

uint64_t horizontalAnd(const Vec &V) {
  uint64_t Out = ~uint64_t(0);
  for (unsigned L = 0; L != VecLanes; ++L)
    Out &= V[L];
  return Out;
}

uint64_t horizontalOr(const Vec &V) {
  uint64_t Out = 0;
  for (unsigned L = 0; L != VecLanes; ++L)
    Out |= V[L];
  return Out;
}

/// One concrete operator of the member-pair loops, fixed at compile time.
/// \p Mul32 selects the 32-bit lane multiply (Width <= MaxMul32Width).
template <BinaryOp Op, bool Mul32 = false> struct LaneOp {
  static uint64_t scalar(uint64_t X, uint64_t Y, unsigned Width,
                         uint64_t WMask) {
    return concreteBinary<Op>(X, Y, Width, WMask);
  }

  /// Z = opC(X, Y) lane by lane.
  static void vector(Vec &Z, const Vec &X, const Vec &Y, unsigned Width,
                     uint64_t WMask) {
    if constexpr (Op == BinaryOp::Add)
      Z = (X + Y) & WMask;
    else if constexpr (Op == BinaryOp::Sub)
      Z = (X - Y) & WMask;
    else if constexpr (Op == BinaryOp::Mul && Mul32)
      Z = (Vec)((Vec32)X * (Vec32)Y) & WMask;
    else if constexpr (Op == BinaryOp::Mul)
      Z = (X * Y) & WMask;
    else if constexpr (Op == BinaryOp::And)
      Z = X & Y;
    else if constexpr (Op == BinaryOp::Or)
      Z = X | Y;
    else if constexpr (Op == BinaryOp::Xor)
      Z = X ^ Y;
    else // div, mod and the shifts: one lane at a time.
      for (unsigned L = 0; L != VecLanes; ++L)
        Z[L] = scalar(X[L], Y[L], Width, WMask);
  }
};

/// Calls \p Fn with the LaneOp instance for (\p Op, \p Width).
template <typename FnT>
auto withLaneOp(BinaryOp Op, unsigned Width, FnT &&Fn) {
  switch (Op) {
  case BinaryOp::Add:
    return Fn(LaneOp<BinaryOp::Add>());
  case BinaryOp::Sub:
    return Fn(LaneOp<BinaryOp::Sub>());
  case BinaryOp::Mul:
    if (Width <= MaxMul32Width)
      return Fn(LaneOp<BinaryOp::Mul, true>());
    return Fn(LaneOp<BinaryOp::Mul>());
  case BinaryOp::Div:
    return Fn(LaneOp<BinaryOp::Div>());
  case BinaryOp::Mod:
    return Fn(LaneOp<BinaryOp::Mod>());
  case BinaryOp::And:
    return Fn(LaneOp<BinaryOp::And>());
  case BinaryOp::Or:
    return Fn(LaneOp<BinaryOp::Or>());
  case BinaryOp::Xor:
    return Fn(LaneOp<BinaryOp::Xor>());
  case BinaryOp::Lsh:
    return Fn(LaneOp<BinaryOp::Lsh>());
  case BinaryOp::Rsh:
    return Fn(LaneOp<BinaryOp::Rsh>());
  case BinaryOp::Arsh:
    return Fn(LaneOp<BinaryOp::Arsh>());
  }
  assert(false && "unknown binary op");
  return Fn(LaneOp<BinaryOp::Add>());
}

//===----------------------------------------------------------------------===//
// scan
//===----------------------------------------------------------------------===//

/// The scan loop: membership-failure mask of opC(X, Ys[j]) against
/// (V, NotM = ~M) over N <= 64 lanes. (Z & NotM) ^ V is zero exactly for
/// members -- an ill-formed R has a value bit inside its mask, making it
/// nonzero in every lane, which is "bottom contains nothing".
template <typename OpT>
[[gnu::always_inline]] inline uint64_t
nonMemberMask(uint64_t X, const uint64_t *Ys, unsigned N, unsigned Width,
              uint64_t WMask, uint64_t V, uint64_t NotM) {
  // Any pass: OR the per-lane differences; zero iff every lane is a member.
  const Vec Xv = Vec{} + X;
  Vec AnyV{}, Yv{}, Zv{};
  unsigned I = 0;
  for (; I + VecLanes <= N; I += VecLanes) {
    loadLanes(Yv, Ys + I);
    OpT::vector(Zv, Xv, Yv, Width, WMask);
    AnyV |= (Zv & NotM) ^ V;
  }
  uint64_t Any = horizontalOr(AnyV);
  for (; I != N; ++I)
    Any |= (OpT::scalar(X, Ys[I], Width, WMask) & NotM) ^ V;
  if (!Any)
    return 0;
  // Exact pass, only for a failing batch (which ends the sweep).
  uint64_t Mask = 0;
  for (I = 0; I != N; ++I)
    Mask |= uint64_t(((OpT::scalar(X, Ys[I], Width, WMask) & NotM) ^ V) != 0)
            << I;
  return Mask;
}

template <typename OpT>
std::optional<SoundnessCounterexample>
scanPair(unsigned Width, const Tnum &P, const Tnum &Q, const Tnum &R,
         const uint64_t *Ys, uint64_t NumYs, uint64_t &ConcreteChecked) {
  const uint64_t WMask = lowBitsMask(Width);
  const uint64_t V = R.value();
  const uint64_t NotM = ~R.mask();
  std::optional<SoundnessCounterexample> Result;
  // X walks gamma(P) through the one canonical member enumerator; only
  // the Y axis is batched. A violation ends the whole sweep, so the
  // remaining no-op visits after one is found cost nothing that matters.
  forEachMember(P, [&](uint64_t X) {
    if (Result)
      return;
    for (uint64_t Base = 0; Base < NumYs; Base += SimdBatchLanes) {
      unsigned N = static_cast<unsigned>(
          std::min<uint64_t>(SimdBatchLanes, NumYs - Base));
      if (uint64_t Bad =
              nonMemberMask<OpT>(X, Ys + Base, N, Width, WMask, V, NotM)) {
        // The scalar scan counts each evaluation before testing it, so a
        // violation at batch offset J has consumed Base + J + 1 of this
        // X's evaluations.
        unsigned J = static_cast<unsigned>(std::countr_zero(Bad));
        uint64_t Y = Ys[Base + J];
        ConcreteChecked += Base + J + 1;
        Result = SoundnessCounterexample{
            P, Q, X, Y, OpT::scalar(X, Y, Width, WMask), R};
        return;
      }
    }
    ConcreteChecked += NumYs;
  });
  return Result;
}

//===----------------------------------------------------------------------===//
// reduce
//===----------------------------------------------------------------------===//

/// The AND/OR accumulators of alpha (Eqn. 5): vector lanes plus a scalar
/// tail, folded once at the end.
struct AndOrAcc {
  Vec AndV = Vec{} + ~uint64_t(0);
  Vec OrV{};
  uint64_t And = ~uint64_t(0);
  uint64_t Or = 0;

  uint64_t andValue() const { return And & horizontalAnd(AndV); }
  uint64_t orValue() const { return Or | horizontalOr(OrV); }
};

/// The reduce loop: folds opC(Fixed, Batch[j]) -- or opC(Batch[j], Fixed)
/// when \p BatchLhs -- for j in [0, N) into \p Acc.
template <typename OpT, bool BatchLhs>
[[gnu::always_inline]] inline void
reduceInto(AndOrAcc &Acc, uint64_t Fixed, const uint64_t *Batch, uint64_t N,
           unsigned Width, uint64_t WMask) {
  const Vec Fv = Vec{} + Fixed;
  Vec Bv{}, Zv{};
  uint64_t I = 0;
  for (; I + VecLanes <= N; I += VecLanes) {
    loadLanes(Bv, Batch + I);
    if constexpr (BatchLhs)
      OpT::vector(Zv, Bv, Fv, Width, WMask);
    else
      OpT::vector(Zv, Fv, Bv, Width, WMask);
    Acc.AndV &= Zv;
    Acc.OrV |= Zv;
  }
  for (; I != N; ++I) {
    uint64_t Z = BatchLhs ? OpT::scalar(Batch[I], Fixed, Width, WMask)
                          : OpT::scalar(Fixed, Batch[I], Width, WMask);
    Acc.And &= Z;
    Acc.Or |= Z;
  }
}

} // namespace

std::optional<SoundnessCounterexample> tnums::scanPairMembersBatched(
    BinaryOp Op, unsigned Width, const Tnum &P, const Tnum &Q, const Tnum &R,
    const uint64_t *Ys, uint64_t NumYs, uint64_t &ConcreteChecked) {
  if (P.isBottom() || NumYs == 0)
    return std::nullopt; // Empty gamma on either side: nothing to scan.
  return withLaneOp(Op, Width, [&](auto Lane) {
    return scanPair<decltype(Lane)>(Width, P, Q, R, Ys, NumYs,
                                    ConcreteChecked);
  });
}

Tnum tnums::optimalAbstractBinaryMembers(BinaryOp Op, unsigned Width,
                                         const uint64_t *Xs, uint64_t NumXs,
                                         const uint64_t *Ys, uint64_t NumYs) {
  assert(NumXs != 0 && NumYs != 0 &&
         "gamma of a well-formed tnum is never empty");
  const uint64_t WMask = lowBitsMask(Width);
  return withLaneOp(Op, Width, [&](auto Lane) {
    using OpT = decltype(Lane);
    // alpha over a non-empty set C is (AND of C, AND xor OR); both folds
    // are order-independent, so the batch may run over either operand.
    AndOrAcc Acc;
    if (NumXs > NumYs) {
      for (uint64_t YI = 0; YI != NumYs; ++YI)
        reduceInto<OpT, true>(Acc, Ys[YI], Xs, NumXs, Width, WMask);
    } else {
      for (uint64_t XI = 0; XI != NumXs; ++XI)
        reduceInto<OpT, false>(Acc, Xs[XI], Ys, NumYs, Width, WMask);
    }
    uint64_t And = Acc.andValue();
    return Tnum(And, And ^ Acc.orValue());
  });
}
