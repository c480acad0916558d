//===- verify/MemberLoops.h - Batched member-pair loops ---------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched member-pair loops behind every exhaustive sweep with
/// SimdMode::Auto (support/SimdBatch.h). There are exactly two:
///
///   * scan (soundness, scanPairMembersBatched) -- ORs
///     (opC(X, Y) & ~R.m) ^ R.v across a batch of up to 64 Y members: zero
///     iff every lane is a member of R (Eqn. 9). Only when a batch fails
///     -- which ends the sweep -- does a scalar pass rebuild the exact
///     occupancy mask, so the witness and the work counters stay exactly
///     those of the scalar scan.
///   * reduce (optimality and precision, optimalAbstractBinaryMembers) --
///     folds the two reductions of alpha (Eqn. 5), AND and OR, over
///     opC(F, B[j]) with the batch B on either operand side.
///
/// Both are written once with GCC/Clang vector types and instantiated per
/// operator at compile time; the compiler lowers them to whatever vector
/// unit the build target has. add/sub/mul/and/or/xor run lane-parallel
/// (mul on 32-bit lanes while Width <= 16, where that is exact, and 64-bit
/// lanes above); div/mod/shifts run per lane with applyConcreteBinary's
/// semantics. Every entry point is bit-identical to the scalar reference.
///
/// Precondition throughout: every operand value already fits the width
/// (they are members of width-fitting tnums).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_MEMBERLOOPS_H
#define TNUMS_VERIFY_MEMBERLOOPS_H

#include "verify/SoundnessChecker.h"

#include <cstdint>
#include <optional>

namespace tnums {

/// The scan of one (P, Q) cell, shared by the serial and parallel
/// soundness sweeps. \p Ys must be gamma(\p Q) materialized in
/// subset-odometer order (tnum/TnumMembers.h). Walks X over gamma(P)
/// (outer) against the Y batches (inner) -- the scalar scan's exact order
/// -- growing \p ConcreteChecked by exactly what the scalar scan counts
/// (every evaluation up to and including a violation) and returning the
/// serial-order-first counterexample, if any.
std::optional<SoundnessCounterexample>
scanPairMembersBatched(BinaryOp Op, unsigned Width, const Tnum &P,
                       const Tnum &Q, const Tnum &R, const uint64_t *Ys,
                       uint64_t NumYs, uint64_t &ConcreteChecked);

/// The optimal abstraction alpha(opC(gamma(P), gamma(Q))) from both
/// concretizations as flat member lists (gamma(P) in \p Xs, gamma(Q) in
/// \p Ys, both non-empty). The reduce loop batches over the longer list,
/// so the vector lanes stay full even when the other concretization is
/// tiny. Bit-identical to optimalAbstractBinary for every input.
Tnum optimalAbstractBinaryMembers(BinaryOp Op, unsigned Width,
                                  const uint64_t *Xs, uint64_t NumXs,
                                  const uint64_t *Ys, uint64_t NumYs);

} // namespace tnums

#endif // TNUMS_VERIFY_MEMBERLOOPS_H
