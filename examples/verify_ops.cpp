//===- examples/verify_ops.cpp - Drive the bounded verifier ---------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the §III-A bounded verification engine:
///
///   verify_ops                      # verify every operator at width 4
///   verify_ops add 6                # one operator at a chosen width
///   verify_ops mul 5 kern_mul       # pick the multiplication algorithm
///
/// Prints, per operator: the soundness verdict, pair/concrete-evaluation
/// counts, and (when it fits) the optimality verdict with a witness.
///
/// Sweeps run on the parallel engine (verify/ParallelSweep.h) over the
/// batched member-pair loops -- the same fast path as the campaign
/// benchmarks -- so width 7-8 stay interactive on a multicore host. The
/// reports are bit-identical to the serial scalar checkers (the engine's
/// determinism contract).
///
//===----------------------------------------------------------------------===//

#include "support/Table.h"
#include "verify/ParallelSweep.h"

#include <cstdio>
#include <cstring>
#include <optional>

using namespace tnums;

static std::optional<BinaryOp> parseOp(const char *Name) {
  for (BinaryOp Op : AllBinaryOps)
    if (std::strcmp(binaryOpName(Op), Name) == 0)
      return Op;
  return std::nullopt;
}

static std::optional<MulAlgorithm> parseMulAlgorithm(const char *Name) {
  for (MulAlgorithm Alg :
       {MulAlgorithm::Kern, MulAlgorithm::BitwiseNaive,
        MulAlgorithm::BitwiseOpt, MulAlgorithm::OurSimplified,
        MulAlgorithm::Our, MulAlgorithm::OurFullLoop})
    if (std::strcmp(mulAlgorithmName(Alg), Name) == 0)
      return Alg;
  return std::nullopt;
}

static void verifyOne(BinaryOp Op, unsigned Width, MulAlgorithm Mul,
                      TextTable &Table) {
  if (isShiftOp(Op) && (Width & (Width - 1)) != 0) {
    Table.addRowOf(binaryOpName(Op), Width, "skipped (width not 2^k)", "-",
                   "-");
    return;
  }
  SweepConfig Config; // Hardware concurrency, batched loops.
  SoundnessReport Sound =
      checkSoundnessExhaustiveParallel(Op, Width, Mul, Config);
  OptimalityReport Precise = checkOptimalityExhaustiveParallel(
      Op, Width, Mul, Config, /*StopAtFirst=*/true);
  Table.addRowOf(
      binaryOpName(Op), Width,
      Sound.holds() ? "sound" : Sound.Failure->toString(Width).c_str(),
      Precise.isOptimalEverywhere()
          ? std::string("optimal")
          : "not optimal: " + Precise.Failure->toString(Width),
      Sound.ConcreteChecked);
}

int main(int Argc, char **Argv) {
  unsigned Width = 4;
  MulAlgorithm Mul = MulAlgorithm::Our;
  std::optional<BinaryOp> Only;

  if (Argc >= 2) {
    Only = parseOp(Argv[1]);
    if (!Only) {
      std::fprintf(stderr, "error: unknown operator '%s'\n", Argv[1]);
      return 1;
    }
  }
  if (Argc >= 3)
    Width = static_cast<unsigned>(std::atoi(Argv[2]));
  if (Argc >= 4) {
    std::optional<MulAlgorithm> Parsed = parseMulAlgorithm(Argv[3]);
    if (!Parsed) {
      std::fprintf(stderr, "error: unknown mul algorithm '%s'\n", Argv[3]);
      return 1;
    }
    Mul = *Parsed;
  }
  if (Width < 1 || Width > 8) {
    std::fprintf(stderr,
                 "error: width must be in [1, 8] (cost grows as 16^n; 7-8 "
                 "take minutes even on the parallel SIMD path)\n");
    return 1;
  }

  std::printf("bounded verification at width %u (mul = %s)\n\n", Width,
              mulAlgorithmName(Mul));
  TextTable Table({"op", "width", "soundness", "optimality", "evals"});
  if (Only) {
    verifyOne(*Only, Width, Mul, Table);
  } else {
    for (BinaryOp Op : AllBinaryOps)
      verifyOne(Op, Width, Mul, Table);
  }
  Table.printAligned(stdout);
  return 0;
}
