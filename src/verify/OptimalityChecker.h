//===- verify/OptimalityChecker.h - Optimality/precision checks -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks whether an abstract operator equals the *optimal* abstraction
/// alpha ∘ f ∘ gamma (the maximally precise sound operator, §II-A). The
/// paper proves tnum_add/tnum_sub optimal (Theorems 6/22) and notes every
/// multiplication algorithm is non-optimal; these checkers confirm both
/// facts exhaustively at bounded width and quantify *how far* from optimal
/// an operator is (used by the precision experiments).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_OPTIMALITYCHECKER_H
#define TNUMS_VERIFY_OPTIMALITYCHECKER_H

#include "support/SimdBatch.h"
#include "verify/Oracle.h"

#include <optional>
#include <string>

namespace tnums {

/// The optimal abstraction alpha(opC(gamma(P), gamma(Q))) at \p Width,
/// computed by brute-force enumeration of both concretizations. This is
/// the yardstick every operator is measured against; cost is
/// |gamma(P)| * |gamma(Q)| concrete evaluations.
Tnum optimalAbstractBinary(BinaryOp Op, Tnum P, Tnum Q, unsigned Width);

/// Witness that an operator is not optimal on some input pair: the
/// operator's result R strictly over-approximates the optimal result.
struct OptimalityCounterexample {
  Tnum P;
  Tnum Q;
  Tnum Actual;
  Tnum Optimal;

  std::string toString(unsigned Width) const;
};

/// Outcome of an exhaustive optimality check.
struct OptimalityReport {
  uint64_t PairsChecked = 0;
  /// Pairs where the operator matched the optimal abstraction exactly.
  uint64_t OptimalPairs = 0;
  /// First pair (if any) where it did not.
  std::optional<OptimalityCounterexample> Failure;

  bool isOptimalEverywhere() const { return !Failure.has_value(); }
};

/// Exhaustively compares \p Op against the optimal abstraction at \p Width.
/// Stops at the first non-optimal pair if \p StopAtFirst, else keeps
/// counting OptimalPairs (and retains the first counterexample). \p Simd
/// selects the member-scan path; every mode produces a bit-identical
/// report (SimdMode::Off is the scalar reference the differential tests
/// pin the batched loops against).
OptimalityReport
checkOptimalityExhaustive(BinaryOp Op, unsigned Width,
                          MulAlgorithm Mul = MulAlgorithm::Our,
                          bool StopAtFirst = true,
                          SimdMode Simd = SimdMode::Auto);

//===----------------------------------------------------------------------===//
// Precision-gap measurement -- the optimality scan generalized from a
// boolean verdict into a per-pair distance-to-optimal metric.
//===----------------------------------------------------------------------===//

/// The (P, Q) pair with the worst measured precision gap: the operator's
/// result carries Gap more unknown bits than the optimal abstraction.
struct PrecisionWitness {
  Tnum P;
  Tnum Q;
  Tnum Actual;
  Tnum Optimal;
  unsigned Gap = 0;

  std::string toString(unsigned Width) const;
};

/// One bucket per possible gap value (a tnum can lose at most 64 bits).
constexpr unsigned PrecisionGapBuckets = 65;

/// Outcome of an exhaustive precision-gap measurement. Per (P, Q) pair the
/// gap is popcount(mu(actual)) - popcount(mu(optimal)) -- how many bits of
/// knowledge the transfer function gave up relative to alpha ∘ f ∘ gamma
/// -- clamped at zero (a sound operator's optimal result is a subset of
/// its actual result, so the clamp only fires for deliberately broken
/// overrides). Gap 0 means the pair is handled optimally; the full
/// distribution lands in Buckets (Buckets[g] counts pairs with gap
/// exactly g), which is what the precision-atlas CDFs render.
struct PrecisionReport {
  uint64_t PairsChecked = 0;
  /// Sum of all gaps: SumGap / PairsChecked is the mean lost bits.
  uint64_t SumGap = 0;
  /// Largest gap observed (0 when the operator is optimal everywhere).
  unsigned MaxGap = 0;
  /// Buckets[g] = number of pairs with gap exactly g.
  uint64_t Buckets[PrecisionGapBuckets] = {};
  /// The serial-order first pair attaining MaxGap; present iff MaxGap > 0.
  std::optional<PrecisionWitness> Worst;

  uint64_t optimalPairs() const { return Buckets[0]; }
  double meanGap() const {
    return PairsChecked ? double(SumGap) / double(PairsChecked) : 0.0;
  }
};

/// Exhaustively measures \p Op's precision gap against the optimal
/// abstraction at \p Width -- the serial reference the parallel sweep
/// (checkPrecisionRangeParallel) and the campaign merges are bit-identical
/// to. Always a full scan (a measurement has no early exit). \p Simd as in
/// checkOptimalityExhaustive; every mode reports identically.
PrecisionReport measurePrecisionGap(BinaryOp Op, unsigned Width,
                                    MulAlgorithm Mul = MulAlgorithm::Our,
                                    SimdMode Simd = SimdMode::Auto);

} // namespace tnums

#endif // TNUMS_VERIFY_OPTIMALITYCHECKER_H
