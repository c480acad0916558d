//===- verify/Oracle.cpp - Concrete/abstract operator pairs ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/Oracle.h"

#include "support/Checkpoint.h"
#include "tnum/TnumOps.h"

using namespace tnums;

const char *tnums::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "add";
  case BinaryOp::Sub:
    return "sub";
  case BinaryOp::Mul:
    return "mul";
  case BinaryOp::Div:
    return "div";
  case BinaryOp::Mod:
    return "mod";
  case BinaryOp::And:
    return "and";
  case BinaryOp::Or:
    return "or";
  case BinaryOp::Xor:
    return "xor";
  case BinaryOp::Lsh:
    return "lsh";
  case BinaryOp::Rsh:
    return "rsh";
  case BinaryOp::Arsh:
    return "arsh";
  }
  assert(false && "unknown binary op");
  return "unknown";
}

bool tnums::isShiftOp(BinaryOp Op) {
  return Op == BinaryOp::Lsh || Op == BinaryOp::Rsh || Op == BinaryOp::Arsh;
}

uint64_t tnums::applyConcreteBinary(BinaryOp Op, uint64_t X, uint64_t Y,
                                    unsigned Width) {
  assert((!isShiftOp(Op) || (Width & (Width - 1)) == 0) &&
         "shift semantics need 2^k width");
  const uint64_t WMask = lowBitsMask(Width);
  X &= WMask;
  Y &= WMask;
  switch (Op) {
  case BinaryOp::Add:
    return concreteBinary<BinaryOp::Add>(X, Y, Width, WMask);
  case BinaryOp::Sub:
    return concreteBinary<BinaryOp::Sub>(X, Y, Width, WMask);
  case BinaryOp::Mul:
    return concreteBinary<BinaryOp::Mul>(X, Y, Width, WMask);
  case BinaryOp::Div:
    return concreteBinary<BinaryOp::Div>(X, Y, Width, WMask);
  case BinaryOp::Mod:
    return concreteBinary<BinaryOp::Mod>(X, Y, Width, WMask);
  case BinaryOp::And:
    return concreteBinary<BinaryOp::And>(X, Y, Width, WMask);
  case BinaryOp::Or:
    return concreteBinary<BinaryOp::Or>(X, Y, Width, WMask);
  case BinaryOp::Xor:
    return concreteBinary<BinaryOp::Xor>(X, Y, Width, WMask);
  case BinaryOp::Lsh:
    return concreteBinary<BinaryOp::Lsh>(X, Y, Width, WMask);
  case BinaryOp::Rsh:
    return concreteBinary<BinaryOp::Rsh>(X, Y, Width, WMask);
  case BinaryOp::Arsh:
    return concreteBinary<BinaryOp::Arsh>(X, Y, Width, WMask);
  }
  assert(false && "unknown binary op");
  return 0;
}

uint64_t tnums::opFingerprint(BinaryOp Op, MulAlgorithm Mul) {
  const TnumOpVersions &Versions = tnumOpVersions();
  const char *Tag = nullptr;
  switch (Op) {
  case BinaryOp::Add:
    Tag = Versions.Add;
    break;
  case BinaryOp::Sub:
    Tag = Versions.Sub;
    break;
  case BinaryOp::Mul:
    Tag = mulAlgorithmVersion(Mul);
    break;
  case BinaryOp::Div:
    Tag = Versions.Div;
    break;
  case BinaryOp::Mod:
    Tag = Versions.Mod;
    break;
  case BinaryOp::And:
    Tag = Versions.And;
    break;
  case BinaryOp::Or:
    Tag = Versions.Or;
    break;
  case BinaryOp::Xor:
    Tag = Versions.Xor;
    break;
  case BinaryOp::Lsh:
    Tag = Versions.Lshift;
    break;
  case BinaryOp::Rsh:
    Tag = Versions.Rshift;
    break;
  case BinaryOp::Arsh:
    Tag = Versions.Arshift;
    break;
  }
  assert(Tag && "unknown binary op");
  Fnv1a Hash;
  Hash.mixString("tnums-op-fingerprint v1");
  // The operator identity AND the implementation tag: two operators
  // sharing a tag string must still fingerprint apart.
  Hash.mixString(binaryOpName(Op));
  Hash.mixString(Tag);
  return Hash.digest();
}

Tnum tnums::applyAbstractBinary(BinaryOp Op, Tnum P, Tnum Q, unsigned Width,
                                MulAlgorithm Mul) {
  switch (Op) {
  case BinaryOp::Add:
    return tnumTruncate(tnumAdd(P, Q), Width);
  case BinaryOp::Sub:
    return tnumTruncate(tnumSub(P, Q), Width);
  case BinaryOp::Mul:
    return tnumMul(P, Q, Mul, Width);
  case BinaryOp::Div:
    return tnumDiv(P, Q, Width);
  case BinaryOp::Mod:
    return tnumMod(P, Q, Width);
  case BinaryOp::And:
    return tnumAnd(P, Q);
  case BinaryOp::Or:
    return tnumOr(P, Q);
  case BinaryOp::Xor:
    return tnumXor(P, Q);
  case BinaryOp::Lsh:
    return tnumLshiftByTnum(P, Q, Width);
  case BinaryOp::Rsh:
    return tnumRshiftByTnum(P, Q, Width);
  case BinaryOp::Arsh:
    return tnumArshiftByTnum(P, Q, Width);
  }
  assert(false && "unknown binary op");
  return Tnum::makeBottom();
}
