//===- verify/OptimalityChecker.cpp - Optimality/precision checks ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/OptimalityChecker.h"

#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMembers.h"
#include "verify/MemberLoops.h"

#include <bit>

using namespace tnums;

Tnum tnums::optimalAbstractBinary(BinaryOp Op, Tnum P, Tnum Q,
                                  unsigned Width) {
  assert(P.isWellFormed() && Q.isWellFormed() && "optimal abstraction of ⊥");
  Tnum Acc = Tnum::makeBottom();
  forEachMember(P, [&](uint64_t X) {
    forEachMember(Q, [&](uint64_t Y) {
      Acc = abstractInsert(Acc, applyConcreteBinary(Op, X, Y, Width));
    });
  });
  return Acc;
}

std::string OptimalityCounterexample::toString(unsigned Width) const {
  return formatString("P=%s Q=%s actual=%s optimal=%s",
                      P.toString(Width).c_str(), Q.toString(Width).c_str(),
                      Actual.toString(Width).c_str(),
                      Optimal.toString(Width).c_str());
}

std::string PrecisionWitness::toString(unsigned Width) const {
  return formatString("P=%s Q=%s actual=%s optimal=%s gap=%u",
                      P.toString(Width).c_str(), Q.toString(Width).c_str(),
                      Actual.toString(Width).c_str(),
                      Optimal.toString(Width).c_str(), Gap);
}

PrecisionReport tnums::measurePrecisionGap(BinaryOp Op, unsigned Width,
                                           MulAlgorithm Mul, SimdMode Simd) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  PrecisionReport Report;
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  const bool Batched = simdModeBatches(Simd);
  std::vector<MemberLane> XLanes, YLanes;
  MemberSpan Xs;
  for (const Tnum &P : Universe) {
    if (Batched)
      Xs = materializeMembers(P, XLanes);
    for (const Tnum &Q : Universe) {
      ++Report.PairsChecked;
      Tnum Actual = applyAbstractBinary(Op, P, Q, Width, Mul);
      Tnum Optimal;
      if (Batched) {
        Optimal = optimalAbstractBinaryMembers(
            Op, Width, Xs, materializeMembers(Q, YLanes));
      } else {
        Optimal = optimalAbstractBinary(Op, P, Q, Width);
      }
      // Sound => gamma(Optimal) subseteq gamma(Actual) => the optimal mask
      // is a submask of the actual mask, so the difference is >= 0; the
      // clamp only fires for deliberately broken (unsound) operators.
      int Gap = std::popcount(Actual.mask()) - std::popcount(Optimal.mask());
      unsigned G = Gap > 0 ? static_cast<unsigned>(Gap) : 0;
      Report.SumGap += G;
      ++Report.Buckets[G];
      if (G > Report.MaxGap) {
        Report.MaxGap = G;
        Report.Worst = PrecisionWitness{P, Q, Actual, Optimal, G};
      }
    }
  }
  return Report;
}

OptimalityReport tnums::checkOptimalityExhaustive(BinaryOp Op, unsigned Width,
                                                  MulAlgorithm Mul,
                                                  bool StopAtFirst,
                                                  SimdMode Simd) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  OptimalityReport Report;
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  const bool Batched = simdModeBatches(Simd);
  std::vector<MemberLane> XLanes, YLanes;
  MemberSpan Xs;
  for (const Tnum &P : Universe) {
    // gamma(P) is staged once per row and reused across the whole Q axis
    // (the memoized-concretization restructuring; order and results are
    // bit-identical to the per-pair enumeration it replaced).
    if (Batched)
      Xs = materializeMembers(P, XLanes);
    for (const Tnum &Q : Universe) {
      ++Report.PairsChecked;
      Tnum Actual = applyAbstractBinary(Op, P, Q, Width, Mul);
      Tnum Optimal;
      if (Batched) {
        Optimal = optimalAbstractBinaryMembers(
            Op, Width, Xs, materializeMembers(Q, YLanes));
      } else {
        Optimal = optimalAbstractBinary(Op, P, Q, Width);
      }
      if (Actual == Optimal) {
        ++Report.OptimalPairs;
        continue;
      }
      if (!Report.Failure)
        Report.Failure = OptimalityCounterexample{P, Q, Actual, Optimal};
      if (StopAtFirst)
        return Report;
    }
  }
  return Report;
}
