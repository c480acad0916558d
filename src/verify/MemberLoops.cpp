//===- verify/MemberLoops.cpp - Batched member-pair loops -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/MemberLoops.h"

#include <cstring>
#include <type_traits>

using namespace tnums;

namespace {

/// 16 bytes of 16-bit lanes: the vector register every supported build
/// target has (SSE2 on x86-64, Advanced SIMD on AArch64), with a native
/// lane multiply on both.
typedef MemberLane Vec
    __attribute__((vector_size(MemberVecLanes * sizeof(MemberLane))));

// Vectors travel by reference: passed by value, their calling convention
// would depend on the target's vector extensions (GCC's -Wpsabi).

void loadLanes(Vec &V, const MemberLane *P) { std::memcpy(&V, P, sizeof V); }

uint64_t horizontalAnd(const Vec &V) {
  uint64_t Out = ~uint64_t(0);
  for (unsigned L = 0; L != MemberVecLanes; ++L)
    Out &= V[L];
  return Out;
}

uint64_t horizontalOr(const Vec &V) {
  uint64_t Out = 0;
  for (unsigned L = 0; L != MemberVecLanes; ++L)
    Out |= V[L];
  return Out;
}

/// One concrete operator of the member-pair loops, fixed at compile time.
/// Lane arithmetic wraps mod 2^16; masked to a width <= 16 that is exact.
template <BinaryOp Op> struct LaneOp {
  /// Z = opC(X, Y) lane by lane.
  static void vector(Vec &Z, const Vec &X, const Vec &Y, unsigned Width,
                     uint64_t WMask) {
    const MemberLane M = static_cast<MemberLane>(WMask);
    if constexpr (Op == BinaryOp::Add)
      Z = (X + Y) & M;
    else if constexpr (Op == BinaryOp::Sub)
      Z = (X - Y) & M;
    else if constexpr (Op == BinaryOp::Mul)
      Z = (X * Y) & M;
    else if constexpr (Op == BinaryOp::And)
      Z = X & Y;
    else if constexpr (Op == BinaryOp::Or)
      Z = X | Y;
    else if constexpr (Op == BinaryOp::Xor)
      Z = X ^ Y;
    else // div, mod and the shifts: one lane at a time.
      for (unsigned L = 0; L != MemberVecLanes; ++L)
        Z[L] = static_cast<MemberLane>(
            concreteBinary<Op>(X[L], Y[L], Width, WMask));
  }
};

/// Calls \p Fn with the LaneOp instance for \p Op.
template <typename FnT> auto withLaneOp(BinaryOp Op, FnT &&Fn) {
  switch (Op) {
  case BinaryOp::Add:
    return Fn(LaneOp<BinaryOp::Add>());
  case BinaryOp::Sub:
    return Fn(LaneOp<BinaryOp::Sub>());
  case BinaryOp::Mul:
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

/// The one pair loop behind scan and reduce: calls \p Step with
/// opC(X, Y) for every member pair of (\p Xs, \p Ys), a vector at a time.
/// It batches over the longer list, on whichever operand side it belongs,
/// so the lanes stay full even when the other concretization is tiny; the
/// batch's padding lanes repeat real pairs. Both consumers are
/// order-independent folds, so the visiting order does not matter.
template <typename OpT, typename StepT>
[[gnu::always_inline]] inline void
forEachPairVector(unsigned Width, MemberSpan Xs, MemberSpan Ys,
                  StepT &&Step) {
  assert(Width <= 16 && "member lists hold 16-bit lanes");
  const uint64_t WMask = lowBitsMask(Width);
  auto Run = [&](MemberSpan Fixed, MemberSpan Batch, auto BatchLhs) {
    const uint64_t Padded = paddedMemberCount(Batch.Count);
    Vec Fv{}, Bv{}, Zv{};
    for (uint64_t F = 0; F != Fixed.Count; ++F) {
      Fv = Vec{} + Fixed.Lanes[F];
      for (uint64_t I = 0; I != Padded; I += MemberVecLanes) {
        loadLanes(Bv, Batch.Lanes + I);
        if constexpr (decltype(BatchLhs)::value)
          OpT::vector(Zv, Bv, Fv, Width, WMask);
        else
          OpT::vector(Zv, Fv, Bv, Width, WMask);
        Step(Zv);
      }
    }
  };
  if (Xs.Count > Ys.Count)
    Run(Ys, Xs, std::true_type());
  else
    Run(Xs, Ys, std::false_type());
}

/// The scan's any pass: true when some pair's result is not a member of
/// \p R. (Z & ~M) ^ V is zero exactly for members -- an ill-formed R has a
/// value bit inside its mask, making it nonzero in every lane, which is
/// "bottom contains nothing" -- and a value bit above the lanes leaves no
/// member at all.
template <typename OpT>
bool pairHasNonMember(unsigned Width, MemberSpan Xs, MemberSpan Ys,
                      const Tnum &R) {
  if (R.value() >> 16)
    return true;
  const MemberLane V = static_cast<MemberLane>(R.value());
  const MemberLane NotM = static_cast<MemberLane>(~R.mask());
  Vec Any{};
  forEachPairVector<OpT>(Width, Xs, Ys,
                         [&](const Vec &Z) { Any |= (Z & NotM) ^ V; });
  return horizontalOr(Any) != 0;
}

} // namespace

std::optional<SoundnessCounterexample> tnums::scanPairMembersBatched(
    BinaryOp Op, unsigned Width, const Tnum &P, const Tnum &Q, const Tnum &R,
    MemberSpan Xs, MemberSpan Ys, uint64_t &ConcreteChecked) {
  if (Xs.Count == 0 || Ys.Count == 0)
    return std::nullopt; // Empty gamma on either side: nothing to scan.
  bool Fails = withLaneOp(Op, [&](auto Lane) {
    return pairHasNonMember<decltype(Lane)>(Width, Xs, Ys, R);
  });
  if (!Fails) {
    ConcreteChecked += Xs.Count * Ys.Count;
    return std::nullopt;
  }
  // Exact pass, only for a failing pair (which ends the sweep): the scalar
  // reference predicate over the same lists in serial order, counting each
  // evaluation before testing it, as the scalar scan does.
  for (uint64_t I = 0; I != Xs.Count; ++I) {
    for (uint64_t J = 0; J != Ys.Count; ++J) {
      ++ConcreteChecked;
      uint64_t Z = applyConcreteBinary(Op, Xs.Lanes[I], Ys.Lanes[J], Width);
      if (!R.contains(Z))
        return SoundnessCounterexample{P, Q, Xs.Lanes[I], Ys.Lanes[J], Z, R};
    }
  }
  assert(false && "the any pass saw a violation the exact pass did not");
  return std::nullopt;
}

Tnum tnums::optimalAbstractBinaryMembers(BinaryOp Op, unsigned Width,
                                         MemberSpan Xs, MemberSpan Ys) {
  assert(Xs.Count != 0 && Ys.Count != 0 &&
         "gamma of a well-formed tnum is never empty");
  return withLaneOp(Op, [&](auto Lane) {
    // alpha over a non-empty set C is (AND of C, AND xor OR).
    Vec AndV = Vec{} + static_cast<MemberLane>(~0u);
    Vec OrV{};
    forEachPairVector<decltype(Lane)>(Width, Xs, Ys, [&](const Vec &Z) {
      AndV &= Z;
      OrV |= Z;
    });
    uint64_t And = horizontalAnd(AndV);
    return Tnum(And, And ^ horizontalOr(OrV));
  });
}
