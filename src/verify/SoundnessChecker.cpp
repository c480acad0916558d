//===- verify/SoundnessChecker.cpp - Bounded soundness verification -------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/SoundnessChecker.h"

#include "support/Random.h"
#include "support/Table.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMembers.h"
#include "verify/MemberLoops.h"

using namespace tnums;

std::string SoundnessCounterexample::toString(unsigned Width) const {
  return formatString(
      "P=%s Q=%s x=%llu y=%llu z=%llu not in R=%s",
      P.toString(Width).c_str(), Q.toString(Width).c_str(),
      static_cast<unsigned long long>(X), static_cast<unsigned long long>(Y),
      static_cast<unsigned long long>(Z), R.toString(Width).c_str());
}

/// Checks every concrete pair drawn from (P, Q) against R; records the
/// first violation into \p Report and returns false on violation.
static bool checkAllMembers(BinaryOp Op, unsigned Width, const Tnum &P,
                            const Tnum &Q, const Tnum &R,
                            SoundnessReport &Report) {
  bool Sound = true;
  forEachMember(P, [&](uint64_t X) {
    if (!Sound)
      return;
    forEachMember(Q, [&](uint64_t Y) {
      if (!Sound)
        return;
      ++Report.ConcreteChecked;
      uint64_t Z = applyConcreteBinary(Op, X, Y, Width);
      if (!R.contains(Z)) {
        Report.Failure = SoundnessCounterexample{P, Q, X, Y, Z, R};
        Sound = false;
      }
    });
  });
  return Sound;
}

SoundnessReport tnums::checkSoundnessExhaustive(BinaryOp Op, unsigned Width,
                                                MulAlgorithm Mul,
                                                SimdMode Simd) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  SoundnessReport Report;
  std::vector<Tnum> Universe = allWellFormedTnums(Width);
  const bool Batched = simdModeBatches(Simd);
  std::vector<uint64_t> Ys;
  for (const Tnum &P : Universe) {
    for (const Tnum &Q : Universe) {
      ++Report.PairsChecked;
      Tnum R = applyAbstractBinary(Op, P, Q, Width, Mul);
      if (Batched) {
        materializeMembers(Q, Ys);
        Report.Failure = scanPairMembersBatched(Op, Width, P, Q, R, Ys.data(),
                                                Ys.size(),
                                                Report.ConcreteChecked);
        if (Report.Failure)
          return Report;
      } else if (!checkAllMembers(Op, Width, P, Q, R, Report)) {
        return Report;
      }
    }
  }
  return Report;
}

Tnum tnums::randomWellFormedTnum(Xoshiro256 &Rng, unsigned Width) {
  uint64_t WidthMask = lowBitsMask(Width);
  uint64_t Mask = Rng.next() & WidthMask;
  uint64_t Value = Rng.next() & WidthMask & ~Mask;
  return Tnum(Value, Mask);
}

SoundnessReport tnums::checkSoundnessRandom(BinaryOp Op, unsigned Width,
                                            uint64_t NumPairs,
                                            unsigned SamplesPerPair,
                                            Xoshiro256 &Rng,
                                            MulAlgorithm Mul) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  SoundnessReport Report;
  for (uint64_t I = 0; I != NumPairs; ++I) {
    Tnum P = randomWellFormedTnum(Rng, Width);
    Tnum Q = randomWellFormedTnum(Rng, Width);
    ++Report.PairsChecked;
    Tnum R = applyAbstractBinary(Op, P, Q, Width, Mul);

    auto CheckOne = [&](uint64_t X, uint64_t Y) {
      ++Report.ConcreteChecked;
      uint64_t Z = applyConcreteBinary(Op, X, Y, Width);
      if (!R.contains(Z) && !Report.Failure)
        Report.Failure = SoundnessCounterexample{P, Q, X, Y, Z, R};
    };

    // Corner members first: the extremes of each concretization are where
    // carry/borrow chains behave most differently (Lemmas 2/3 pick exactly
    // these points).
    uint64_t CornersP[2] = {P.minMember(), P.maxMember()};
    uint64_t CornersQ[2] = {Q.minMember(), Q.maxMember()};
    for (uint64_t X : CornersP)
      for (uint64_t Y : CornersQ)
        CheckOne(X, Y);

    for (unsigned S = 0; S != SamplesPerPair; ++S) {
      uint64_t X = P.value() | (Rng.next() & P.mask());
      uint64_t Y = Q.value() | (Rng.next() & Q.mask());
      CheckOne(X, Y);
    }
    if (Report.Failure)
      return Report;
  }
  return Report;
}
