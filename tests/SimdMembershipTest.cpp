//===- tests/SimdMembershipTest.cpp - SIMD membership differential tests --===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential harness pinning the batched member-pair loops
/// (verify/MemberLoops.h, over the padded member lists of
/// tnum/TnumMembers.h) bit-for-bit to the scalar reference checkers. A
/// vectorized hot path silently diverging from the reference is the
/// failure mode this file exists to catch, so every assertion compares
/// full reports -- witnesses AND exact work counters -- not just verdicts.
///
/// The loop differential runs widths 1, 4, 7 and 16; the sweeps stay in
/// 4..8, and the width-8 exhaustive mul campaign is gated behind
/// TNUMS_SLOW_TESTS=1 like ParallelSweepTest's.
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
#include <memory>
#include <vector>

using namespace tnums;

namespace {

//===----------------------------------------------------------------------===//
// Member lists: TnumMembers must hold gamma(P) in forEachMember's exact
// order, padded to a whole vector with copies of the last member.
//===----------------------------------------------------------------------===//

std::vector<uint64_t> membersViaCallback(const Tnum &P) {
  std::vector<uint64_t> Out;
  forEachMember(P, [&](uint64_t X) { Out.push_back(X); });
  return Out;
}

/// Expects \p List to be gamma(\p P) followed by its padding.
void expectPaddedMembers(const Tnum &P, MemberSpan List) {
  std::vector<uint64_t> Expected = membersViaCallback(P);
  ASSERT_EQ(List.Count, Expected.size());
  for (uint64_t I = 0; I != List.Count; ++I)
    EXPECT_EQ(List.Lanes[I], Expected[I]) << "member " << I;
  for (uint64_t I = List.Count; I != paddedMemberCount(List.Count); ++I)
    EXPECT_EQ(List.Lanes[I], Expected.back()) << "padding lane " << I;
}

TEST(TnumMembers, MaterializeMatchesForEachMemberOnRandomTnums) {
  Xoshiro256 Rng(20220402);
  std::vector<MemberLane> Lanes;
  for (unsigned Width : {4u, 5u, 6u, 7u, 8u, 16u}) {
    for (int I = 0; I != 200; ++I) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      if (P.numUnknownBits() > 10)
        continue;
      MemberSpan List = materializeMembers(P, Lanes);
      SCOPED_TRACE("width " + std::to_string(Width) + " P=" +
                   P.toString(Width));
      EXPECT_EQ(Lanes.size(), paddedMemberCount(List.Count));
      expectPaddedMembers(P, List);
    }
  }
}

TEST(TnumMembers, PaddedListsMatchForEachMemberAcrossVectorBoundaries) {
  // |gamma| = 2^popcount(mask): 1, 2 and 4 members pad to one vector; 8
  // fill it exactly; 16 and 256 span several.
  for (const char *Text : {"0000", "000u", "u0u0", "uuu0", "uuuu",
                           "uuuuuuuu", "1111111111111111", "uu11111111111u11"}) {
    Tnum P = *Tnum::parse(Text);
    std::vector<MemberLane> Lanes;
    SCOPED_TRACE(Text);
    expectPaddedMembers(P, materializeMembers(P, Lanes));
  }
}

TEST(TnumMembers, BottomAndConstantEdgeCases) {
  std::vector<MemberLane> Lanes{1, 2, 3};
  MemberSpan Bottom = materializeMembers(Tnum::makeBottom(), Lanes);
  EXPECT_EQ(Bottom.Count, 0u);
  EXPECT_TRUE(Lanes.empty());

  MemberSpan Constant = materializeMembers(Tnum::makeConstant(42), Lanes);
  EXPECT_EQ(Constant.Count, 1u);
  EXPECT_EQ(Lanes, std::vector<MemberLane>(MemberVecLanes, 42));
}

TEST(TnumMembers, MemberTableHoldsEveryListAndItsExactSize) {
  for (unsigned Width = 1; Width <= 6; ++Width) {
    std::vector<Tnum> Universe = allWellFormedTnums(Width);
    MemberTable Table(Universe);
    uint64_t Bytes = 0;
    std::vector<MemberLane> Lanes;
    for (size_t I = 0; I != Universe.size(); ++I) {
      SCOPED_TRACE(Universe[I].toString(Width));
      MemberSpan Listed = Table.members(I);
      MemberSpan Fresh = materializeMembers(Universe[I], Lanes);
      ASSERT_EQ(Listed.Count, Fresh.Count);
      EXPECT_TRUE(std::equal(Lanes.begin(), Lanes.end(), Listed.Lanes));
      Bytes += paddedMemberCount(Listed.Count) * sizeof(MemberLane) +
               sizeof(MemberTable::Entry);
    }
    EXPECT_EQ(memberTableBytes(Width), Bytes) << "width " << Width;
  }
  // The default SweepConfig::MemberTableBytesCap covers width 13, not 14.
  const uint64_t Cap = SweepConfig().MemberTableBytesCap;
  EXPECT_LE(memberTableBytes(13), Cap);
  EXPECT_GT(memberTableBytes(14), Cap);
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
// reference over hand-built member lists, for every operator, list lengths
// 1, 2 and 4 (padded to one vector) and 8 to 128, both batch sides, and a
// failing pair planted at every (X, Y) position.
//===----------------------------------------------------------------------===//

/// Widths of the loop differential: the narrowest, a sweep width, an odd
/// width (no shifts), and the full 16-bit lane, where products wrap.
constexpr unsigned LoopWidths[] = {1, 4, 7, 16};

/// List lengths of the loop differential.
std::vector<unsigned> loopLengths() {
  std::vector<unsigned> Lengths = {1, 2, 4};
  for (unsigned N = 8; N <= 128; ++N)
    Lengths.push_back(N);
  return Lengths;
}

/// Shift semantics are only defined at power-of-two widths.
bool opRunsAtWidth(BinaryOp Op, unsigned Width) {
  return !isShiftOp(Op) || (Width & (Width - 1)) == 0;
}

/// A member list built from arbitrary values, padded like TnumMembers'
/// lists, in a heap block of exactly the padded length so that a sanitizer
/// build catches any load past it.
class PaddedList {
public:
  explicit PaddedList(const std::vector<uint64_t> &Values)
      : Count(Values.size()),
        Lanes(new MemberLane[paddedMemberCount(Values.size())]) {
    for (uint64_t I = 0; I != paddedMemberCount(Count); ++I)
      Lanes[I] = static_cast<MemberLane>(Values[std::min(I, Count - 1)]);
  }
  MemberSpan span() const { return {Lanes.get(), Count}; }

private:
  uint64_t Count;
  std::unique_ptr<MemberLane[]> Lanes;
};

/// An operand of the differential: random, or at width 16 mostly within a
/// small distance of 0xFFFF so that lane products and sums wrap.
uint64_t loopOperand(Xoshiro256 &Rng, unsigned Width) {
  if (Width == 16 && Rng.next() % 4 != 0)
    return 0xFFFF - Rng.next() % 64;
  return Rng.next() & lowBitsMask(Width);
}

std::vector<uint64_t> loopOperands(Xoshiro256 &Rng, unsigned Width,
                                   unsigned N) {
  std::vector<uint64_t> Out(N);
  for (uint64_t &V : Out)
    V = loopOperand(Rng, Width);
  return Out;
}

/// Runs scanPairMembersBatched over (\p Xs, \p Ys) and checks the verdict,
/// the witness and the evaluation count against the scalar scan of the
/// same lists. Returns the serial index of the first failing pair
/// (|Xs| * |Ys| when every pair is a member).
uint64_t expectScanMatchesScalar(BinaryOp Op, unsigned Width,
                                 const std::vector<uint64_t> &Xs,
                                 const std::vector<uint64_t> &Ys,
                                 const Tnum &R) {
  const uint64_t Total = Xs.size() * Ys.size();
  uint64_t First = 0;
  while (First != Total &&
         R.contains(applyConcreteBinary(Op, Xs[First / Ys.size()],
                                        Ys[First % Ys.size()], Width)))
    ++First;
  PaddedList XList(Xs), YList(Ys);
  const Tnum P = Tnum::makeUnknown(Width), Q = Tnum::makeConstant(1);
  uint64_t Checked = 0;
  std::optional<SoundnessCounterexample> Failure = scanPairMembersBatched(
      Op, Width, P, Q, R, XList.span(), YList.span(), Checked);
  EXPECT_EQ(Failure.has_value(), First != Total);
  EXPECT_EQ(Checked, First == Total ? Total : First + 1);
  if (Failure && First != Total) {
    uint64_t X = Xs[First / Ys.size()], Y = Ys[First % Ys.size()];
    EXPECT_EQ(Failure->P, P);
    EXPECT_EQ(Failure->Q, Q);
    EXPECT_EQ(Failure->X, X);
    EXPECT_EQ(Failure->Y, Y);
    EXPECT_EQ(Failure->Z, applyConcreteBinary(Op, X, Y, Width));
    EXPECT_EQ(Failure->R, R);
  }
  return First;
}

/// Operands (X0, X1, Y0, Y1) and an R holding op(X0, Y0), op(X0, Y1) and
/// op(X1, Y0) but not op(X1, Y1): lists of X0 with one X1 and of Y0 with
/// one Y1 then fail at exactly one pair. None exist for xor, nor for add
/// and sub at width 1: those are affine over the bits, and a tnum holding
/// three corners of such a rectangle holds the fourth. The pair loop that
/// positions are planted against is shared by every operator.
struct PlantedFailure {
  uint64_t X0, X1, Y0, Y1;
  Tnum R;
};

std::optional<PlantedFailure> findPlantedFailure(Xoshiro256 &Rng,
                                                 BinaryOp Op,
                                                 unsigned Width) {
  for (int Attempt = 0; Attempt != 4096; ++Attempt) {
    PlantedFailure F{loopOperand(Rng, Width), loopOperand(Rng, Width),
                     loopOperand(Rng, Width), loopOperand(Rng, Width),
                     Tnum::makeBottom()};
    for (auto [X, Y] : {std::pair{F.X0, F.Y0}, std::pair{F.X0, F.Y1},
                        std::pair{F.X1, F.Y0}})
      F.R = abstractInsert(F.R, applyConcreteBinary(Op, X, Y, Width));
    if (!F.R.contains(applyConcreteBinary(Op, F.X1, F.Y1, Width)))
      return F;
  }
  return std::nullopt;
}

TEST(MemberLoops, ScanMatchesScalarReference) {
  Xoshiro256 Rng(20221015);
  const std::vector<unsigned> Lengths = loopLengths();
  for (unsigned Width : LoopWidths) {
    for (BinaryOp Op : AllBinaryOps) {
      if (!opRunsAtWidth(Op, Width))
        continue;
      SCOPED_TRACE(std::string(binaryOpName(Op)) + " width " +
                   std::to_string(Width));
      // Random lists against alpha of their results (every pair a
      // member), a random R, bottom, and an R whose value has a bit above
      // the 16-bit lanes (both: no pair a member), with the batch on
      // either side and both sides long.
      for (unsigned N : Lengths) {
        SCOPED_TRACE("N=" + std::to_string(N));
        for (auto [NX, NY] : {std::pair{1u, N}, std::pair{N, 1u},
                              std::pair{3u, N}, std::pair{N, N % 17 + 1}}) {
          std::vector<uint64_t> Xs = loopOperands(Rng, Width, NX);
          std::vector<uint64_t> Ys = loopOperands(Rng, Width, NY);
          Tnum All = Tnum::makeBottom();
          for (uint64_t X : Xs)
            for (uint64_t Y : Ys)
              All = abstractInsert(All, applyConcreteBinary(Op, X, Y, Width));
          EXPECT_EQ(expectScanMatchesScalar(Op, Width, Xs, Ys, All),
                    uint64_t(NX) * NY);
          expectScanMatchesScalar(Op, Width, Xs, Ys,
                                  randomWellFormedTnum(Rng, Width));
          EXPECT_EQ(expectScanMatchesScalar(Op, Width, Xs, Ys,
                                            Tnum::makeBottom()),
                    0u);
          EXPECT_EQ(expectScanMatchesScalar(
                        Op, Width, Xs, Ys,
                        Tnum(uint64_t(1) << 16, lowBitsMask(Width))),
                    0u);
        }
      }
      // One failing pair planted at each (X, Y) position: every position
      // of short lists, and the first, the vector boundaries, the middle
      // and the last real member (the one the padding repeats) of long
      // ones.
      std::optional<PlantedFailure> Plant =
          findPlantedFailure(Rng, Op, Width);
      if (!Plant) {
        EXPECT_TRUE(Op == BinaryOp::Xor || Width == 1)
            << "no single failing pair to plant";
        continue;
      }
      auto Positions = [](unsigned N) {
        std::vector<unsigned> Out;
        for (unsigned K = 0; K != N; ++K)
          if (N <= 17 || K == 0 || K == 7 || K == 8 || K == N / 2 ||
              K + 1 == N)
            Out.push_back(K);
        return Out;
      };
      for (auto [NX, NY] :
           {std::pair{1u, 1u}, std::pair{1u, 2u}, std::pair{2u, 4u},
            std::pair{4u, 1u}, std::pair{3u, 8u}, std::pair{9u, 5u},
            std::pair{17u, 16u}, std::pair{2u, 128u}, std::pair{128u, 3u},
            std::pair{33u, 64u}}) {
        for (unsigned I : Positions(NX)) {
          for (unsigned J : Positions(NY)) {
            std::vector<uint64_t> Xs(NX, Plant->X0), Ys(NY, Plant->Y0);
            Xs[I] = Plant->X1;
            Ys[J] = Plant->Y1;
            EXPECT_EQ(expectScanMatchesScalar(Op, Width, Xs, Ys, Plant->R),
                      uint64_t(I) * NY + J)
                << NX << "x" << NY << " planted at (" << I << ", " << J
                << ")";
          }
        }
      }
    }
  }
}

TEST(MemberLoops, ReduceMatchesScalarReferenceOnBothSides) {
  // optimalAbstractBinaryMembers batches over the longer list, so a short
  // Xs puts the batch on the rhs and a short Ys puts it on the lhs.
  Xoshiro256 Rng(20221016);
  for (unsigned Width : LoopWidths) {
    for (BinaryOp Op : AllBinaryOps) {
      if (!opRunsAtWidth(Op, Width))
        continue;
      SCOPED_TRACE(std::string(binaryOpName(Op)) + " width " +
                   std::to_string(Width));
      for (unsigned N : loopLengths()) {
        for (unsigned Short : {1u, 3u}) {
          for (bool BatchLhs : {false, true}) {
            std::vector<uint64_t> Long = loopOperands(Rng, Width, N);
            std::vector<uint64_t> Few = loopOperands(Rng, Width, Short);
            const std::vector<uint64_t> &Xs = BatchLhs ? Long : Few;
            const std::vector<uint64_t> &Ys = BatchLhs ? Few : Long;
            Tnum Expected = Tnum::makeBottom();
            for (uint64_t X : Xs)
              for (uint64_t Y : Ys)
                Expected = abstractInsert(
                    Expected, applyConcreteBinary(Op, X, Y, Width));
            PaddedList XList(Xs), YList(Ys);
            ASSERT_EQ(optimalAbstractBinaryMembers(Op, Width, XList.span(),
                                                   YList.span()),
                      Expected)
                << "N=" << N << " short=" << Short
                << (BatchLhs ? " batch lhs" : " batch rhs");
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
  std::vector<MemberLane> XLanes, YLanes;
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
        uint64_t Checked = 0;
        std::optional<SoundnessCounterexample> Failure =
            scanPairMembersBatched(Op, Width, P, Q, R,
                                   materializeMembers(P, XLanes),
                                   materializeMembers(Q, YLanes), Checked);
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
  std::vector<MemberLane> XLanes, YLanes;
  for (unsigned Width : {4u, 8u}) {
    for (int Trial = 0; Trial != 200; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      MemberSpan Xs = materializeMembers(P, XLanes);
      MemberSpan Ys = materializeMembers(Q, YLanes);
      for (BinaryOp Op : AllBinaryOps) {
        Tnum Scalar = optimalAbstractBinary(Op, P, Q, Width);
        Tnum Batched = optimalAbstractBinaryMembers(Op, Width, Xs, Ys);
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
  std::vector<MemberLane> XLanes, YLanes;
  for (unsigned Width = 4; Width <= 8; ++Width) {
    for (int Trial = 0; Trial != 120; ++Trial) {
      Tnum P = randomWellFormedTnum(Rng, Width);
      Tnum Q = randomWellFormedTnum(Rng, Width);
      MemberSpan Xs = materializeMembers(P, XLanes);
      MemberSpan Ys = materializeMembers(Q, YLanes);
      for (BinaryOp Op :
           {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div}) {
        Tnum Scalar = optimalAbstractBinary(Op, P, Q, Width);
        Tnum Memoized = optimalAbstractBinaryMembers(Op, Width, Xs, Ys);
        EXPECT_EQ(Scalar, Memoized)
            << binaryOpName(Op) << " width " << Width
            << " |gamma(P)|=" << Xs.Count << " |gamma(Q)|=" << Ys.Count;
      }
    }
  }
}

TEST(SimdSweep, FusedOptimalityBitIdenticalAcrossSchedulersAndModes) {
  // The fused evaluate-and-reduce loop must never change a report: cross
  // simd mode x three scheduler shapes against the serial scalar
  // reference. Sub exercises the operand order; Mul the 16-bit lane
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
