//===- tests/SimdMembershipTest.cpp - SIMD membership differential tests --===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential harness pinning the batched member-pair loops
/// (verify/MemberLoops.h, over the batch enumeration of
/// tnum/TnumMembers.h) bit-for-bit to the scalar reference checkers. A
/// vectorized hot path silently diverging from the reference is the
/// failure mode this file exists to catch, so every assertion compares
/// full reports -- witnesses AND exact work counters -- not just verdicts.
///
/// Widths stay in 4..8; the width-8 exhaustive mul campaign is gated
/// behind TNUMS_SLOW_TESTS=1 like ParallelSweepTest's.
///
//===----------------------------------------------------------------------===//

#include "support/Random.h"
#include "support/SimdBatch.h"
#include "tnum/TnumEnum.h"
#include "tnum/TnumMembers.h"
#include "tnum/TnumOps.h"
#include "verify/MemberLoops.h"
#include "verify/ParallelSweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Batch enumeration: TnumMembers must visit gamma(P) in forEachMember's
// exact order, batch boundaries included.
//===----------------------------------------------------------------------===//

std::vector<uint64_t> membersViaCallback(const Tnum &P) {
  std::vector<uint64_t> Out;
  forEachMember(P, [&](uint64_t X) { Out.push_back(X); });
  return Out;
}

std::vector<uint64_t> membersViaStream(const Tnum &P) {
  std::vector<uint64_t> Out;
  MemberStream Stream(P);
  alignas(SimdBatchAlign) uint64_t Buf[SimdBatchLanes];
  while (unsigned N = Stream.nextBatch(Buf))
    Out.insert(Out.end(), Buf, Buf + N);
  return Out;
}

TEST(TnumMembers, MaterializeMatchesForEachMemberOnRandomTnums) {
  Xoshiro256 Rng(20220402);
  std::vector<uint64_t> Materialized;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int I = 0; I != 200; ++I) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      materializeMembers(P, Materialized);
      EXPECT_EQ(Materialized, membersViaCallback(P))
          << "width " << Width << " P=" << P.toString(Width);
    }
  }
}

TEST(TnumMembers, StreamMatchesForEachMemberAcrossBatchBoundaries) {
  // |gamma| = 2^popcount(mask): exercise < 64 (one short batch), == 64
  // (exactly one full batch, empty tail), and > 64 (full batches then a
  // boundary at 256).
  for (const char *Text : {"0000", "u0u0", "uuuuu0", "uuuuuu", "uuuuuuuu"}) {
    Tnum P = *Tnum::parse(Text);
    EXPECT_EQ(membersViaStream(P), membersViaCallback(P)) << Text;
  }
}

TEST(TnumMembers, BottomAndConstantEdgeCases) {
  std::vector<uint64_t> Materialized;
  materializeMembers(Tnum::makeBottom(), Materialized);
  EXPECT_TRUE(Materialized.empty());
  EXPECT_TRUE(membersViaStream(Tnum::makeBottom()).empty());

  materializeMembers(Tnum::makeConstant(42), Materialized);
  EXPECT_EQ(Materialized, std::vector<uint64_t>{42});

  MemberStream Stream(Tnum::makeConstant(7));
  EXPECT_FALSE(Stream.exhausted());
  Stream.reset();
  alignas(SimdBatchAlign) uint64_t Buf[SimdBatchLanes];
  EXPECT_EQ(Stream.nextBatch(Buf), 1u);
  EXPECT_EQ(Buf[0], 7u);
  EXPECT_TRUE(Stream.exhausted());
  EXPECT_EQ(Stream.nextBatch(Buf), 0u);
}

//===----------------------------------------------------------------------===//
// Mode parsing: exactly two modes.
//===----------------------------------------------------------------------===//

TEST(SimdKernels, ModeParsingIsTotal) {
  EXPECT_EQ(parseSimdMode("auto"), SimdMode::Auto);
  EXPECT_EQ(parseSimdMode("off"), SimdMode::Off);
  for (SimdMode Mode : {SimdMode::Auto, SimdMode::Off})
    EXPECT_EQ(parseSimdMode(simdModeName(Mode)), Mode);
  // The retired tier names and the legacy alias are rejected, as is
  // anything else; spellings are exact.
  for (const char *Text :
       {"on", "portable", "avx2", "avx512", "neon", "fast", "AUTO", ""})
    EXPECT_EQ(parseSimdMode(Text), std::nullopt) << Text;
}

//===----------------------------------------------------------------------===//
// Loop differential: the scan and reduce loops against the scalar
// reference, for every operator, every batch length, and widths on both
// sides of the 32/64-bit multiply boundary.
//===----------------------------------------------------------------------===//

/// Widths of the loop differential: a sweep width, both sides of the
/// 32-bit lane multiply boundary, and the full word.
constexpr unsigned LoopWidths[] = {4, 16, 17, 64};

/// Shift semantics are only defined at power-of-two widths.
bool opRunsAtWidth(BinaryOp Op, unsigned Width) {
  return !isShiftOp(Op) || (Width & (Width - 1)) == 0;
}

/// The scan loop over one batch: scanPairMembersBatched with a constant
/// P, so gamma(P) = {X} and \p Ys is the batch. Checks the serial-order
/// first failing lane, its witness and the evaluation count against the
/// scalar reference, and returns that lane (N when every lane is a
/// member).
unsigned expectScanMatchesScalar(BinaryOp Op, unsigned Width, uint64_t X,
                                 const uint64_t *Ys, unsigned N,
                                 const Tnum &R) {
  unsigned First = 0;
  while (First != N && R.contains(applyConcreteBinary(Op, X, Ys[First], Width)))
    ++First;
  uint64_t Checked = 0;
  std::optional<SoundnessCounterexample> Failure =
      scanPairMembersBatched(Op, Width, Tnum::makeConstant(X),
                             Tnum::makeUnknown(Width), R, Ys, N, Checked);
  EXPECT_EQ(Failure.has_value(), First != N);
  EXPECT_EQ(Checked, First == N ? N : First + 1);
  if (Failure && First != N) {
    EXPECT_EQ(Failure->X, X);
    EXPECT_EQ(Failure->Y, Ys[First]);
    EXPECT_EQ(Failure->Z, applyConcreteBinary(Op, X, Ys[First], Width));
  }
  return First;
}

TEST(MemberLoops, ScanMatchesScalarReference) {
  Xoshiro256 Rng(20221015);
  uint64_t Ys[SimdBatchLanes];
  for (unsigned Width : LoopWidths) {
    const uint64_t WMask = lowBitsMask(Width);
    for (BinaryOp Op : AllBinaryOps) {
      if (!opRunsAtWidth(Op, Width))
        continue;
      SCOPED_TRACE(std::string(binaryOpName(Op)) + " width " +
                   std::to_string(Width));
      for (unsigned N = 1; N <= SimdBatchLanes; ++N) {
        SCOPED_TRACE("N=" + std::to_string(N));
        // Random lanes against alpha of their results (every lane a
        // member), a random R, and bottom (no lane a member).
        for (int Trial = 0; Trial != 4; ++Trial) {
          uint64_t X = Rng.next() & WMask;
          Tnum All = Tnum::makeBottom();
          for (unsigned J = 0; J != N; ++J) {
            Ys[J] = Rng.next() & WMask;
            All = abstractInsert(All,
                                 applyConcreteBinary(Op, X, Ys[J], Width));
          }
          EXPECT_EQ(expectScanMatchesScalar(Op, Width, X, Ys, N, All), N);
          expectScanMatchesScalar(Op, Width, X, Ys, N,
                                  randomWellFormedTnum(Rng, Width));
          EXPECT_EQ(expectScanMatchesScalar(Op, Width, X, Ys, N,
                                            Tnum::makeBottom()),
                    0u);
        }
        // One failing lane at each position K: every other lane evaluates
        // to the constant R, lane K to something else.
        for (unsigned K = 0; K != N; ++K) {
          uint64_t X, Y0, Y1, Z0;
          do {
            X = Rng.next() & WMask;
            Y0 = Rng.next() & WMask;
            Y1 = Rng.next() & WMask;
            Z0 = applyConcreteBinary(Op, X, Y0, Width);
          } while (applyConcreteBinary(Op, X, Y1, Width) == Z0);
          std::fill(Ys, Ys + N, Y0);
          Ys[K] = Y1;
          EXPECT_EQ(expectScanMatchesScalar(Op, Width, X, Ys, N,
                                            Tnum::makeConstant(Z0)),
                    K);
        }
      }
    }
  }
}

TEST(MemberLoops, ReduceMatchesScalarReferenceOnBothSides) {
  // optimalAbstractBinaryMembers batches over the longer list, so a
  // one-member gamma(P) puts the batch on the rhs and a one-member
  // gamma(Q) puts it on the lhs.
  Xoshiro256 Rng(20221016);
  uint64_t Batch[SimdBatchLanes];
  for (unsigned Width : LoopWidths) {
    const uint64_t WMask = lowBitsMask(Width);
    for (BinaryOp Op : AllBinaryOps) {
      if (!opRunsAtWidth(Op, Width))
        continue;
      SCOPED_TRACE(std::string(binaryOpName(Op)) + " width " +
                   std::to_string(Width));
      for (unsigned N = 1; N <= SimdBatchLanes; ++N) {
        for (int Trial = 0; Trial != 4; ++Trial) {
          uint64_t Fixed = Rng.next() & WMask;
          for (unsigned J = 0; J != N; ++J)
            Batch[J] = Rng.next() & WMask;
          for (bool BatchLhs : {false, true}) {
            Tnum Expected = Tnum::makeBottom();
            for (unsigned J = 0; J != N; ++J)
              Expected = abstractInsert(
                  Expected,
                  BatchLhs ? applyConcreteBinary(Op, Batch[J], Fixed, Width)
                           : applyConcreteBinary(Op, Fixed, Batch[J], Width));
            Tnum Reduced =
                BatchLhs ? optimalAbstractBinaryMembers(Op, Width, Batch, N,
                                                        &Fixed, 1)
                         : optimalAbstractBinaryMembers(Op, Width, &Fixed, 1,
                                                        Batch, N);
            ASSERT_EQ(Reduced, Expected)
                << "N=" << N << (BatchLhs ? " batch lhs" : " batch rhs");
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Pair-scan differential: the batched scan of one (P, Q) cell must
// reproduce the scalar scan's counterexample
// and exact evaluation count on membership-violating R as well as sound R.
//===----------------------------------------------------------------------===//

struct ScalarScanResult {
  std::optional<SoundnessCounterexample> Failure;
  uint64_t ConcreteChecked = 0;
};

/// The pre-batching reference scan: forEachMember x contains, counting
/// every evaluation up to and including a violation.
ScalarScanResult scanPairScalar(BinaryOp Op, unsigned Width, const Tnum &P,
                                const Tnum &Q, const Tnum &R) {
  ScalarScanResult Result;
  bool Stop = false;
  forEachMember(P, [&](uint64_t X) {
    if (Stop)
      return;
    forEachMember(Q, [&](uint64_t Y) {
      if (Stop)
        return;
      ++Result.ConcreteChecked;
      uint64_t Z = applyConcreteBinary(Op, X, Y, Width);
      if (!R.contains(Z)) {
        Result.Failure = SoundnessCounterexample{P, Q, X, Y, Z, R};
        Stop = true;
      }
    });
  });
  return Result;
}

TEST(BatchedPairScan, AgreesWithScalarScanOnRandomCells) {
  Xoshiro256 Rng(99);
  std::vector<uint64_t> Ys;
  // Lane-parallel ops and one per-lane op (div).
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Mul, BinaryOp::Xor,
                          BinaryOp::Div};
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 300; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      // Random R: often violated, sometimes sound, occasionally bottom.
      Tnum R = randomWellFormedTnum(Rng, Width);
      if (Trial % 5 == 0)
        R = Tnum::makeBottom();
      for (BinaryOp Op : Ops) {
        ScalarScanResult Reference = scanPairScalar(Op, Width, P, Q, R);
        materializeMembers(Q, Ys);
        uint64_t Checked = 0;
        std::optional<SoundnessCounterexample> Failure =
            scanPairMembersBatched(Op, Width, P, Q, R, Ys.data(), Ys.size(),
                                   Checked);
        ASSERT_EQ(Reference.Failure.has_value(), Failure.has_value())
            << binaryOpName(Op) << " width " << Width;
        EXPECT_EQ(Reference.ConcreteChecked, Checked);
        if (Reference.Failure) {
          EXPECT_EQ(Reference.Failure->X, Failure->X);
          EXPECT_EQ(Reference.Failure->Y, Failure->Y);
          EXPECT_EQ(Reference.Failure->Z, Failure->Z);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Whole-report equivalence: SimdMode::Auto and SimdMode::Off must produce
// bit-identical SoundnessReport / OptimalityReport contents.
//===----------------------------------------------------------------------===//

TEST(SimdSweep, SerialSoundnessBitIdenticalAcrossModesAtWidth4) {
  for (BinaryOp Op : AllBinaryOps) {
    SCOPED_TRACE(binaryOpName(Op));
    SoundnessReport Off =
        checkSoundnessExhaustive(Op, 4, MulAlgorithm::Our, SimdMode::Off);
    SoundnessReport On =
        checkSoundnessExhaustive(Op, 4, MulAlgorithm::Our, SimdMode::Auto);
    EXPECT_EQ(Off.holds(), On.holds());
    EXPECT_EQ(Off.PairsChecked, On.PairsChecked);
    EXPECT_EQ(Off.ConcreteChecked, On.ConcreteChecked);
  }
}

TEST(SimdSweep, SerialOptimalityBitIdenticalAcrossModesAtWidth4) {
  for (BinaryOp Op : {BinaryOp::Add, BinaryOp::Mul, BinaryOp::Div}) {
    SCOPED_TRACE(binaryOpName(Op));
    OptimalityReport Off = checkOptimalityExhaustive(
        Op, 4, MulAlgorithm::Our, /*StopAtFirst=*/false, SimdMode::Off);
    OptimalityReport On = checkOptimalityExhaustive(
        Op, 4, MulAlgorithm::Our, /*StopAtFirst=*/false, SimdMode::Auto);
    EXPECT_EQ(Off.PairsChecked, On.PairsChecked);
    EXPECT_EQ(Off.OptimalPairs, On.OptimalPairs);
    ASSERT_EQ(Off.Failure.has_value(), On.Failure.has_value());
    if (Off.Failure) {
      EXPECT_EQ(Off.Failure->P, On.Failure->P);
      EXPECT_EQ(Off.Failure->Q, On.Failure->Q);
      EXPECT_EQ(Off.Failure->Actual, On.Failure->Actual);
      EXPECT_EQ(Off.Failure->Optimal, On.Failure->Optimal);
    }
  }
}

TEST(SimdSweep, BatchedOptimalAbstractionMatchesScalarFold) {
  // Every operator at the power-of-two sweep widths (so the shifts run).
  Xoshiro256 Rng(5);
  std::vector<uint64_t> Xs, Ys;
  for (unsigned Width : {4u, 8u}) {
    for (int Trial = 0; Trial != 200; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      materializeMembers(P, Xs);
      materializeMembers(Q, Ys);
      for (BinaryOp Op : AllBinaryOps) {
        Tnum Scalar = optimalAbstractBinary(Op, P, Q, Width);
        Tnum Batched = optimalAbstractBinaryMembers(
            Op, Width, Xs.data(), Xs.size(), Ys.data(), Ys.size());
        EXPECT_EQ(Scalar, Batched)
            << binaryOpName(Op) << " width " << Width << " P="
            << P.toString(Width) << " Q=" << Q.toString(Width);
      }
    }
  }
}

TEST(SimdSweep, MemoizedOptimalAbstractionMatchesScalarFoldOnBothAxes) {
  // optimalAbstractBinaryMembers batches over whichever axis is longer;
  // with |gamma(P)| > |gamma(Q)| the FIXED operand is the rhs, which is
  // the batch-lhs reduce loop (the operand order matters for Sub and
  // Div).
  Xoshiro256 Rng(11);
  std::vector<uint64_t> Xs, Ys;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 120; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      materializeMembers(P, Xs);
      materializeMembers(Q, Ys);
      for (BinaryOp Op :
           {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div}) {
        Tnum Scalar = optimalAbstractBinary(Op, P, Q, Width);
        Tnum Memoized = optimalAbstractBinaryMembers(
            Op, Width, Xs.data(), Xs.size(), Ys.data(), Ys.size());
        EXPECT_EQ(Scalar, Memoized)
            << binaryOpName(Op) << " width " << Width
            << " |gamma(P)|=" << Xs.size() << " |gamma(Q)|=" << Ys.size();
      }
    }
  }
}

TEST(SimdSweep, FusedOptimalityBitIdenticalAcrossSchedulersAndModes) {
  // The fused evaluate-and-reduce loop must never change a report: cross
  // simd mode x three scheduler shapes against the serial scalar
  // reference. Sub exercises the operand order; Mul the 32-bit lane
  // multiply; Div the per-lane path.
  constexpr unsigned Width = 4;
  const SweepConfig Schedulers[] = {
      {/*NumThreads=*/1, /*ChunkPairs=*/1},
      {/*NumThreads=*/3, /*ChunkPairs=*/17},
      {/*NumThreads=*/0, /*ChunkPairs=*/4096},
  };
  for (BinaryOp Op : {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                      BinaryOp::Div}) {
    SCOPED_TRACE(binaryOpName(Op));
    OptimalityReport Reference = checkOptimalityExhaustive(
        Op, Width, MulAlgorithm::Our, /*StopAtFirst=*/false, SimdMode::Off);
    for (SimdMode Mode : {SimdMode::Off, SimdMode::Auto}) {
      for (SweepConfig Config : Schedulers) {
        Config.Simd = Mode;
        OptimalityReport Report = checkOptimalityExhaustiveParallel(
            Op, Width, MulAlgorithm::Our, Config);
        SCOPED_TRACE(simdModeName(Mode));
        EXPECT_EQ(Reference.PairsChecked, Report.PairsChecked);
        EXPECT_EQ(Reference.OptimalPairs, Report.OptimalPairs);
        ASSERT_EQ(Reference.Failure.has_value(), Report.Failure.has_value());
        if (Reference.Failure) {
          EXPECT_EQ(Reference.Failure->P, Report.Failure->P);
          EXPECT_EQ(Reference.Failure->Q, Report.Failure->Q);
          EXPECT_EQ(Reference.Failure->Actual, Report.Failure->Actual);
          EXPECT_EQ(Reference.Failure->Optimal, Report.Failure->Optimal);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Witness determinism of the SIMD sweep: the same five scheduler configs
// ParallelSweepTest exercises, now crossed with the simd modes. A broken
// operator must yield the serial-order-first counterexample everywhere.
//===----------------------------------------------------------------------===//

/// tnum_add with its lowest unknown trit laundered into a known bit (the
/// same deliberately unsound operator ParallelSweepTest uses).
Tnum brokenAdd(const Tnum &P, const Tnum &Q, unsigned Width) {
  Tnum R = tnumTruncate(tnumAdd(P, Q), Width);
  uint64_t M = R.mask();
  if (M == 0)
    return R;
  uint64_t Lowest = M & (0 - M);
  return Tnum(R.value(), M & ~Lowest);
}

TEST(SimdSweep, BrokenOperatorWitnessDeterministicAcrossSchedulersAndModes) {
  constexpr unsigned Width = 4;
  AbstractBinaryFn Broken = [](const Tnum &P, const Tnum &Q) {
    return brokenAdd(P, Q, Width);
  };
  // Scalar serial-order-first reference witness.
  SweepConfig Reference;
  Reference.NumThreads = 1;
  Reference.ChunkPairs = 1;
  Reference.Simd = SimdMode::Off;
  SoundnessReport Expected =
      checkSoundnessExhaustiveParallel(BinaryOp::Add, Broken, Width, Reference);
  ASSERT_TRUE(Expected.Failure.has_value());

  const SweepConfig Schedulers[] = {
      {/*NumThreads=*/1, /*ChunkPairs=*/1},
      {/*NumThreads=*/2, /*ChunkPairs=*/7},
      {/*NumThreads=*/4, /*ChunkPairs=*/64},
      {/*NumThreads=*/8, /*ChunkPairs=*/4096},
      {/*NumThreads=*/0, /*ChunkPairs=*/257},
  };
  for (SimdMode Mode : {SimdMode::Off, SimdMode::Auto}) {
    for (SweepConfig Config : Schedulers) {
      Config.Simd = Mode;
      SoundnessReport Report = checkSoundnessExhaustiveParallel(
          BinaryOp::Add, Broken, Width, Config);
      SCOPED_TRACE(simdModeName(Mode));
      ASSERT_TRUE(Report.Failure.has_value());
      EXPECT_EQ(Report.Failure->P, Expected.Failure->P);
      EXPECT_EQ(Report.Failure->Q, Expected.Failure->Q);
      EXPECT_EQ(Report.Failure->X, Expected.Failure->X);
      EXPECT_EQ(Report.Failure->Y, Expected.Failure->Y);
      EXPECT_EQ(Report.Failure->Z, Expected.Failure->Z);
      EXPECT_EQ(Report.Failure->R, Expected.Failure->R);
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel monotonicity agrees with the serial checker, witness included
// (kern_mul is non-monotone at width 5 -- a real, deterministic witness).
//===----------------------------------------------------------------------===//

TEST(SimdSweep, ParallelMonotonicityAgreesWithSerial) {
  // Monotone case: exact quadruple totals must match.
  MonotonicityReport Serial =
      checkMonotonicityExhaustive(BinaryOp::Add, 4, MulAlgorithm::Our);
  MonotonicityReport Parallel = checkMonotonicityExhaustiveParallel(
      BinaryOp::Add, 4, MulAlgorithm::Our,
      SweepConfig{/*NumThreads=*/4, /*ChunkPairs=*/64});
  EXPECT_TRUE(Serial.holds());
  EXPECT_TRUE(Parallel.holds());
  EXPECT_EQ(Serial.QuadruplesChecked, Parallel.QuadruplesChecked);

  // Non-monotone case: the witness must be the serial-order first one for
  // every scheduler shape.
  MonotonicityReport SerialBad =
      checkMonotonicityExhaustive(BinaryOp::Mul, 5, MulAlgorithm::Kern);
  ASSERT_FALSE(SerialBad.holds());
  for (const SweepConfig &Config :
       {SweepConfig{1, 1}, SweepConfig{3, 100}, SweepConfig{0, 4096}}) {
    MonotonicityReport ParallelBad = checkMonotonicityExhaustiveParallel(
        BinaryOp::Mul, 5, MulAlgorithm::Kern, Config);
    ASSERT_FALSE(ParallelBad.holds());
    EXPECT_EQ(SerialBad.Failure->P1, ParallelBad.Failure->P1);
    EXPECT_EQ(SerialBad.Failure->Q1, ParallelBad.Failure->Q1);
    EXPECT_EQ(SerialBad.Failure->P2, ParallelBad.Failure->P2);
    EXPECT_EQ(SerialBad.Failure->Q2, ParallelBad.Failure->Q2);
    EXPECT_EQ(SerialBad.Failure->R1, ParallelBad.Failure->R1);
    EXPECT_EQ(SerialBad.Failure->R2, ParallelBad.Failure->R2);
  }
}

//===----------------------------------------------------------------------===//
// The exhaustive mul campaign on the SIMD path: width 6 always, width 8
// (the paper's SMT horizon) behind TNUMS_SLOW_TESTS=1.
//===----------------------------------------------------------------------===//

void expectMulCampaignBitIdentical(unsigned Width) {
  for (MulAlgorithm Alg : AllMulAlgorithms) {
    SCOPED_TRACE(mulAlgorithmName(Alg));
    // Scalar serial checker: the pre-batching reference.
    SoundnessReport Reference =
        checkSoundnessExhaustive(BinaryOp::Mul, Width, Alg, SimdMode::Off);
    // SIMD path, serial and parallel scheduling.
    SoundnessReport Simd =
        checkSoundnessExhaustive(BinaryOp::Mul, Width, Alg, SimdMode::Auto);
    SweepConfig Config;
    Config.Simd = SimdMode::Auto;
    SoundnessReport Parallel =
        checkSoundnessExhaustiveParallel(BinaryOp::Mul, Width, Alg, Config);
    for (const SoundnessReport *Report : {&Simd, &Parallel}) {
      EXPECT_TRUE(Report->holds());
      EXPECT_EQ(Reference.PairsChecked, Report->PairsChecked);
      EXPECT_EQ(Reference.ConcreteChecked, Report->ConcreteChecked);
    }
    EXPECT_TRUE(Reference.holds());
  }
}

TEST(SimdSweep, Width6MulCampaignBitIdenticalToScalarSerial) {
  expectMulCampaignBitIdentical(6);
}

TEST(SimdSweep, Width8MulCampaignBitIdenticalWhenSlowTestsEnabled) {
  const char *Enabled = std::getenv("TNUMS_SLOW_TESTS");
  if (!Enabled || Enabled[0] == '0')
    GTEST_SKIP() << "set TNUMS_SLOW_TESTS=1 to run the width-8 campaign "
                    "(the paper's kern_mul SMT horizon; minutes of CPU)";
  expectMulCampaignBitIdentical(8);
}

} // namespace
