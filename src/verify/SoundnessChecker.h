//===- verify/SoundnessChecker.h - Bounded soundness verification -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable form of the paper's §III-A verification condition (Eqn. 11)
/// for 2-ary operators:
///
///   wellformed(P) ∧ wellformed(Q) ∧ member(x, P) ∧ member(y, Q)
///     ∧ z = opC(x, y) ∧ R = opT(P, Q)  =>  member(z, R)
///
/// The paper discharges this to an SMT solver per bitwidth; with no solver
/// available offline we provide (a) a *complete* decision procedure by
/// exhaustive enumeration at small widths -- equivalent to the bounded SMT
/// query it replaces -- and (b) large randomized refutation campaigns at
/// production width 64. Both produce a solver-style model (counterexample)
/// on failure.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_SOUNDNESSCHECKER_H
#define TNUMS_VERIFY_SOUNDNESSCHECKER_H

#include "support/SimdBatch.h"
#include "verify/Oracle.h"

#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

class Xoshiro256;

/// A violation witness, mirroring an SMT model for the negated soundness
/// formula: concrete inputs X in gamma(P), Y in gamma(Q) whose concrete
/// result Z escapes the abstract result R.
struct SoundnessCounterexample {
  Tnum P;
  Tnum Q;
  uint64_t X;
  uint64_t Y;
  uint64_t Z;
  Tnum R;

  /// Renders the witness for diagnostics, e.g. in test failure messages.
  std::string toString(unsigned Width) const;
};

/// Statistics from a verification run, reported by the E4 harness.
struct SoundnessReport {
  uint64_t PairsChecked = 0;
  uint64_t ConcreteChecked = 0;
  std::optional<SoundnessCounterexample> Failure;

  bool holds() const { return !Failure.has_value(); }
};

/// Complete bounded verification of \p Op at \p Width by enumerating every
/// well-formed tnum pair and every concrete member pair. Cost is 16^Width
/// concrete evaluations; keep Width <= 6 (Width <= 8 only if you can wait).
/// Shift operators additionally require a power-of-two width. \p Simd
/// selects the member-scan path (support/SimdBatch.h); every mode produces
/// a bit-identical report -- SimdMode::Off is the scalar reference the
/// differential tests pin the batched loops against.
SoundnessReport checkSoundnessExhaustive(BinaryOp Op, unsigned Width,
                                         MulAlgorithm Mul = MulAlgorithm::Our,
                                         SimdMode Simd = SimdMode::Auto);

/// Randomized refutation campaign at any width (typically 64): draws
/// \p NumPairs random well-formed tnum pairs and, for each, checks
/// \p SamplesPerPair random members plus the four corner members
/// (min/max of each operand). Deterministic given \p Rng's seed.
SoundnessReport checkSoundnessRandom(BinaryOp Op, unsigned Width,
                                     uint64_t NumPairs,
                                     unsigned SamplesPerPair, Xoshiro256 &Rng,
                                     MulAlgorithm Mul = MulAlgorithm::Our);

/// Draws one uniformly-ish random well-formed tnum within \p Width:
/// mask bits are set with probability 1/2 and value bits populate the
/// remaining positions. (Matches the paper's random tnum sampling for the
/// Fig. 5 workload.)
Tnum randomWellFormedTnum(Xoshiro256 &Rng, unsigned Width);

} // namespace tnums

#endif // TNUMS_VERIFY_SOUNDNESSCHECKER_H
