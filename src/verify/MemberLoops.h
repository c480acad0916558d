//===- verify/MemberLoops.h - Batched member-pair loops ---------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched member-pair loops behind every exhaustive sweep with
/// SimdMode::Auto (support/SimdBatch.h). Both run over the padded 16-bit
/// member lists of tnum/TnumMembers.h, eight lanes per 16-byte vector,
/// batching over the longer of the two lists:
///
///   * scan (soundness, scanPairMembersBatched) -- ORs
///     (opC(X, Y) & ~R.m) ^ R.v over the whole (P, Q) pair with no
///     per-batch test: zero iff every result is a member of R (Eqn. 9).
///     Only a failing pair -- which ends the sweep -- reruns the scalar
///     reference predicate over the pair in serial order, so the witness
///     and the work counters stay exactly those of the scalar scan.
///   * reduce (optimality and precision, optimalAbstractBinaryMembers) --
///     folds the two reductions of alpha (Eqn. 5), AND and OR, over every
///     opC(X, Y) of the pair.
///
/// Both are one loop written with GCC/Clang vector types and instantiated
/// per operator at compile time; the compiler lowers it to whatever vector
/// unit the build target has. add/sub/mul/and/or/xor run lane-parallel --
/// 16-bit lane arithmetic wraps mod 2^16, which is exact once masked to a
/// width <= 16 -- and div/mod/shifts run per lane with
/// applyConcreteBinary's semantics. The padding lanes repeat real members,
/// which neither fold can notice. Every entry point is bit-identical to
/// the scalar reference.
///
/// Precondition throughout: Width <= 16 and every operand value fits the
/// width (they are members of width-fitting tnums).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_MEMBERLOOPS_H
#define TNUMS_VERIFY_MEMBERLOOPS_H

#include "tnum/TnumMembers.h"
#include "verify/SoundnessChecker.h"

#include <cstdint>
#include <optional>

namespace tnums {

/// The scan of one (P, Q) cell, shared by the serial and parallel
/// soundness sweeps, over the member lists \p Xs and \p Ys -- gamma(\p P)
/// and gamma(\p Q) in every sweep; P and Q only label the witness. Grows
/// \p ConcreteChecked by exactly what the scalar scan counts (every
/// evaluation up to and including a violation) and returns the
/// serial-order-first counterexample, if any.
std::optional<SoundnessCounterexample>
scanPairMembersBatched(BinaryOp Op, unsigned Width, const Tnum &P,
                       const Tnum &Q, const Tnum &R, MemberSpan Xs,
                       MemberSpan Ys, uint64_t &ConcreteChecked);

/// The optimal abstraction alpha(opC(gamma(P), gamma(Q))) from both
/// concretizations as member lists (gamma(P) in \p Xs, gamma(Q) in \p Ys,
/// both non-empty). Bit-identical to optimalAbstractBinary for every
/// input.
Tnum optimalAbstractBinaryMembers(BinaryOp Op, unsigned Width, MemberSpan Xs,
                                  MemberSpan Ys);

} // namespace tnums

#endif // TNUMS_VERIFY_MEMBERLOOPS_H
