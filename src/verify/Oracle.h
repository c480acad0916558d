//===- verify/Oracle.h - Concrete/abstract operator pairs -------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pairs every abstract tnum operator with the width-n concrete BPF
/// operation it abstracts, so the soundness/optimality checkers can state
/// the paper's verification condition (Eqn. 11) uniformly:
///
///   forall wf P, Q, forall x in gamma(P), y in gamma(Q):
///     opC(x, y) in gamma(opT(P, Q))
///
/// The concrete semantics follow the BPF instruction set the paper targets:
/// wrap-around arithmetic at the width, x / 0 == 0, x % 0 == x, and shift
/// amounts masked to Width - 1 (power-of-two widths).
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_ORACLE_H
#define TNUMS_VERIFY_ORACLE_H

#include "tnum/Tnum.h"
#include "tnum/TnumMul.h"

namespace tnums {

/// The binary operations the BPF analyzer needs abstract operators for
/// (§II-B list, minus the unary neg which is Sub(0, x)).
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Lsh,
  Rsh,
  Arsh,
};

/// All BinaryOp enumerators, for sweeping harnesses.
inline constexpr BinaryOp AllBinaryOps[] = {
    BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div,
    BinaryOp::Mod, BinaryOp::And, BinaryOp::Or,  BinaryOp::Xor,
    BinaryOp::Lsh, BinaryOp::Rsh, BinaryOp::Arsh};

/// Stable lower-case name ("add", "arsh", ...).
const char *binaryOpName(BinaryOp Op);

/// True for Lsh/Rsh/Arsh, whose checkers require a power-of-two width
/// (shift amounts are masked to Width - 1).
bool isShiftOp(BinaryOp Op);

/// The width-\p Width concrete semantics of \p Op applied to the low
/// \p Width bits of \p X and \p Y. Result fits the width.
uint64_t applyConcreteBinary(BinaryOp Op, uint64_t X, uint64_t Y,
                             unsigned Width);

/// applyConcreteBinary with \p Op fixed at compile time, for operands that
/// already fit \p Width (\p WMask must be lowBitsMask(Width)). The one
/// definition of the concrete semantics: applyConcreteBinary and the
/// batched member-pair loops (verify/MemberLoops.h) both evaluate through
/// it.
template <BinaryOp Op>
constexpr uint64_t concreteBinary(uint64_t X, uint64_t Y, unsigned Width,
                                  uint64_t WMask) {
  if constexpr (Op == BinaryOp::Add)
    return (X + Y) & WMask;
  else if constexpr (Op == BinaryOp::Sub)
    return (X - Y) & WMask;
  else if constexpr (Op == BinaryOp::Mul)
    return (X * Y) & WMask;
  else if constexpr (Op == BinaryOp::Div)
    return Y == 0 ? 0 : X / Y; // BPF: division by zero yields 0.
  else if constexpr (Op == BinaryOp::Mod)
    return Y == 0 ? X : X % Y; // BPF: modulo by zero yields the dividend.
  else if constexpr (Op == BinaryOp::And)
    return X & Y;
  else if constexpr (Op == BinaryOp::Or)
    return X | Y;
  else if constexpr (Op == BinaryOp::Xor)
    return X ^ Y;
  else if constexpr (Op == BinaryOp::Lsh)
    return (X << (Y & (Width - 1))) & WMask;
  else if constexpr (Op == BinaryOp::Rsh)
    return X >> (Y & (Width - 1));
  else
    return arithmeticShiftRight(X, static_cast<unsigned>(Y & (Width - 1)),
                                Width);
}

/// The abstract transfer function for \p Op, truncated to \p Width.
/// Multiplication is computed with \p Mul so that every algorithm variant
/// can be pushed through the same verification pipeline.
Tnum applyAbstractBinary(BinaryOp Op, Tnum P, Tnum Q, unsigned Width,
                         MulAlgorithm Mul = MulAlgorithm::Our);

/// Content fingerprint of the transfer-function implementation that
/// applyAbstractBinary dispatches (\p Op, \p Mul) to: a digest of the
/// operator's version tag (tnumOpVersions / mulAlgorithmVersion, bumped
/// whenever the algorithm changes). \p Mul only participates for
/// BinaryOp::Mul -- all other operators fingerprint identically for every
/// Mul value, mirroring applyAbstractBinary's dispatch. The campaign
/// layer keys checkpointed cells on this digest so that changing one
/// transfer function invalidates exactly the cells that verified it.
uint64_t opFingerprint(BinaryOp Op, MulAlgorithm Mul = MulAlgorithm::Our);

} // namespace tnums

#endif // TNUMS_VERIFY_ORACLE_H
