//===- tests/AnalyzerEngineTest.cpp - Analyzer hot path vs references ----===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's hot path against its references:
///
///  * AbstractState::joinFrom (the fused in-place join/widen over a
///    register delta) against the whole-state propagation it replaced --
///    isSubsetOf, AbstractState::joinWith, per-register widening, ==,
///    assign -- on fixpoint state pairs of every generator family plus
///    mutants and on the lattice-law register samples, with widening on
///    and off;
///  * the live-slot mask (bit i set exactly when slot i is not Uninit)
///    after every kind of slot write, join and copy;
///  * RegValue::makeBottom, makeTop and makeConstant, which skip sync(),
///    against the normal form sync() would give;
///  * the sync short-cuts (constant tnums, refinements and meets that
///    change nothing, joins of nested values) against the plain round
///    loop, RegValue::reduceByRounds: exhaustively at width 4 (width 3 for
///    every meet and join pair) and on seeded width-64 samples;
///  * one reused engine (whose per-point state table is recycled and
///    reset by clearing Reachable) against a fresh engine per program,
///    including stack programs whose live slots differ between runs.
///
//===----------------------------------------------------------------------===//

#include "bpf/Analyzer.h"

#include "bpf/Builder.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"
#include "support/Random.h"
#include "tnum/TnumOps.h"
#include "verify/SoundnessChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

/// Bit i of the live-slot mask is set exactly when slot i is not Uninit.
void expectMaskMatchesSlots(const AbstractState &S, const std::string &What) {
  for (unsigned I = 0; I != NumStackSlots; ++I)
    if (((S.liveSlots() >> I) & 1) != (S.slot(I).kind() != RegKind::Uninit)) {
      ADD_FAILURE() << What << ": live-slot bit " << I << " is "
                    << ((S.liveSlots() >> I) & 1) << " but the slot holds "
                    << S.slot(I).toString();
      return;
    }
}

/// The whole-state propagation step the analyzer ran before joinFrom.
bool referencePropagate(AbstractState &Slot, const AbstractState &State,
                        unsigned &JoinCount, unsigned WideningThreshold) {
  if (!State.Reachable || State.isSubsetOf(Slot))
    return false;
  AbstractState Joined = Slot.joinWith(State);
  if (++JoinCount > WideningThreshold && Slot.Reachable) {
    AbstractState Widened = Joined;
    for (unsigned R = 0; R != NumRegs; ++R)
      Widened.Regs[R] = Slot.Regs[R].widenWith(Joined.Regs[R]);
    for (unsigned S = 0; S != NumStackSlots; ++S)
      Widened.setSlot(S, Slot.slot(S).widenWith(Joined.slot(S)));
    Joined = Widened;
  }
  if (Joined == Slot)
    return false;
  Slot = Joined;
  return true;
}

struct Tally {
  unsigned Cases = 0;
  unsigned Changed = 0;
  unsigned Widened = 0;
};

/// joinFrom over \p From and the reference over \p FromState, the whole
/// state \p From describes, agree on the resulting state, the join count
/// and the "changed" result, with widening off, on, and switched on by
/// this very join.
void expectFusedMatchesReference(const AbstractState &Target,
                                 const StateDelta &From,
                                 const AbstractState &FromState, Tally &T) {
  struct Config {
    unsigned Threshold;
    unsigned StartCount;
  };
  for (Config C : {Config{1u << 20, 0}, Config{0, 0}, Config{2, 1},
                   Config{2, 2}}) {
    AbstractState Ref = Target;
    AbstractState Fused = Target;
    unsigned RefCount = C.StartCount;
    unsigned FusedCount = C.StartCount;
    bool RefChanged =
        referencePropagate(Ref, FromState, RefCount, C.Threshold);
    bool FusedChanged = Fused.joinFrom(From, FusedCount, C.Threshold);
    ++T.Cases;
    T.Changed += RefChanged;
    T.Widened += RefChanged && Target.Reachable && RefCount > C.Threshold;
    ASSERT_EQ(FusedChanged, RefChanged)
        << "threshold " << C.Threshold << "\ntarget: " << Target.toString()
        << "\nfrom: " << FromState.toString();
    ASSERT_EQ(FusedCount, RefCount) << "threshold " << C.Threshold;
    ASSERT_TRUE(Fused == Ref)
        << "threshold " << C.Threshold << "\nfused: " << Fused.toString()
        << "\nreference: " << Ref.toString();
    expectMaskMatchesSlots(Fused, "after joinFrom");
    expectMaskMatchesSlots(Ref, "after joinWith and assignment");
  }
}

/// Every pairing of \p A and \p B the analyzer can produce: whole states
/// in both directions, and \p B described as \p A with one or two
/// registers replaced (the same one twice, where the later value wins).
void checkPair(const AbstractState &A, const AbstractState &B, unsigned Salt,
               Tally &T) {
  expectFusedMatchesReference(A, StateDelta(B), B, T);
  expectFusedMatchesReference(B, StateDelta(A), A, T);
  unsigned Dst = Salt % NumRegs;
  unsigned Src = (Salt / NumRegs) % NumRegs;
  StateDelta OneReg(A);
  OneReg.set(Dst, B.Regs[Dst]);
  AbstractState OneRegState = A;
  OneRegState.Regs[Dst] = B.Regs[Dst];
  expectFusedMatchesReference(B, OneReg, OneRegState, T);
  expectFusedMatchesReference(A, OneReg, OneRegState, T);
  StateDelta TwoRegs(A);
  TwoRegs.set(Dst, A.Regs[Src]);
  TwoRegs.set(Src, B.Regs[Src]);
  AbstractState TwoRegsState = A;
  TwoRegsState.Regs[Dst] = A.Regs[Src];
  TwoRegsState.Regs[Src] = B.Regs[Src]; // Src == Dst: the later value wins.
  expectFusedMatchesReference(B, TwoRegs, TwoRegsState, T);
  expectFusedMatchesReference(A, TwoRegs, TwoRegsState, T);
}

TEST(FusedJoin, MatchesWholeStateJoinOnFixpointStatePairs) {
  const GenProfile Families[] = {
      GenProfile::AluMix, GenProfile::BoundsCheck, GenProfile::PacketFilter,
      GenProfile::Loops,  GenProfile::MaskIdx,     GenProfile::Scaled};
  Analyzer Engine;
  Tally T;
  unsigned Salt = 0;
  for (GenProfile Family : Families) {
    GenOptions Opts;
    Opts.Profile = Family;
    Opts.MemSize = MemSize;
    ProgramGen Gen(0x5EED + static_cast<unsigned>(Family), Opts);
    for (unsigned Draw = 0; Draw != 6; ++Draw) {
      Program Prog = Gen.next();
      for (const Program &P : {Prog, Gen.mutate(Prog)}) {
        if (P.validate())
          continue;
        Analyzer::Options AOpts;
        AOpts.MemSize = MemSize;
        Engine.analyze(P, AOpts);
        std::vector<AbstractState> States = Engine.inStates();
        for (size_t Pc = 0; Pc + 1 < States.size(); ++Pc) {
          checkPair(States[Pc], States[Pc + 1], ++Salt, T);
          checkPair(States[Pc], States[0], ++Salt, T);
          if (::testing::Test::HasFatalFailure())
            return;
        }
      }
    }
  }
  // The stream exercises both outcomes and the widening branch.
  EXPECT_GT(T.Cases, 10000u);
  EXPECT_GT(T.Changed, 1000u);
  EXPECT_GT(T.Widened, 100u);
}

TEST(FusedJoin, MatchesWholeStateJoinOnLatticeSamples) {
  // The register samples of LatticeLaws.AbsRegJoinIsUpperBound, at the
  // analyzer's width.
  Xoshiro256 Rng(0xAB5);
  std::vector<AbsReg> Values{AbsReg::makeUninit(), AbsReg::makeInvalid()};
  for (int I = 0; I != 8; ++I)
    Values.push_back(AbsReg::makeScalar(
        RegValue::fromTnum(randomWellFormedTnum(Rng, 8))));
  Values.push_back(
      AbsReg::makePointer(RegKind::PtrToMem, RegValue::makeConstant(0)));
  Values.push_back(
      AbsReg::makePointer(RegKind::PtrToStack, RegValue::makeConstant(0)));
  Values.push_back(AbsReg::makeScalar(RegValue::makeTop()));

  // States that place the samples in registers and slots, plus the
  // unreachable state.
  std::vector<AbstractState> States{AbstractState::makeUnreachable(),
                                    AbstractState::makeEntry(MemSize)};
  for (size_t I = 0; I != Values.size(); ++I) {
    AbstractState S = AbstractState::makeEntry(MemSize);
    S.Regs[R3] = Values[I];
    S.Regs[R0] = Values[(I * 5 + 1) % Values.size()];
    S.setSlot(I % NumStackSlots, Values[(I * 3 + 2) % Values.size()]);
    S.setSlot(NumStackSlots - 1, Values[(I * 7 + 3) % Values.size()]);
    States.push_back(S);
  }
  Tally T;
  unsigned Salt = 0;
  for (const AbstractState &A : States)
    for (const AbstractState &B : States) {
      checkPair(A, B, Salt += 7, T);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  EXPECT_GT(T.Changed, 100u);
  EXPECT_GT(T.Widened, 10u);
}

TEST(LiveSlots, MaskTracksEverySlotWrite) {
  AbsReg Scalar = AbsReg::makeScalar(RegValue::makeConstant(7));
  AbsReg Pointer =
      AbsReg::makePointer(RegKind::PtrToStack, RegValue::makeConstant(0));
  AbstractState S = AbstractState::makeEntry(MemSize);
  EXPECT_EQ(S.liveSlots(), 0u);
  S.setSlot(3, Scalar);
  S.setSlot(5, AbsReg::makeInvalid());
  S.setSlot(NumStackSlots - 1, Pointer);
  S.setSlot(3, AbsReg::makeUninit());
  expectMaskMatchesSlots(S, "after setSlot");
  EXPECT_EQ(S.liveSlots(),
            (uint64_t(1) << 5) | (uint64_t(1) << (NumStackSlots - 1)));

  // Copy-assignment over a state with other live slots resets them.
  AbstractState T = AbstractState::makeEntry(MemSize);
  T.setSlot(0, Scalar);
  T.setSlot(5, Scalar);
  AbstractState Other = T;
  T = S;
  expectMaskMatchesSlots(T, "after copy-assignment");
  EXPECT_TRUE(T == S);
  EXPECT_EQ(T.slot(0).kind(), RegKind::Uninit);
  EXPECT_EQ(T.toString(), S.toString());

  // The join keeps every slot live on either side; one-sided ones become
  // Invalid.
  AbstractState J = S.joinWith(Other);
  expectMaskMatchesSlots(J, "after joinWith");
  EXPECT_EQ(J.liveSlots(), S.liveSlots() | Other.liveSlots());
  EXPECT_EQ(J.slot(0).kind(), RegKind::Invalid);
  EXPECT_EQ(J.slot(5).kind(), RegKind::Invalid);
  EXPECT_TRUE(S.isSubsetOf(J));
  EXPECT_TRUE(Other.isSubsetOf(J));
  EXPECT_FALSE(J.isSubsetOf(S));

  // A recycled, unreachable state with stale live slots takes a first
  // reach whole: none of its old slots survive.
  AbstractState Stale = Other;
  Stale.setSlot(9, Pointer);
  Stale.Reachable = false;
  unsigned Count = 0;
  EXPECT_TRUE(Stale.joinFrom(StateDelta(S), Count, 8));
  expectMaskMatchesSlots(Stale, "after first-reach joinFrom");
  EXPECT_TRUE(Stale == S);
  EXPECT_EQ(Stale.slot(0).kind(), RegKind::Uninit);
  EXPECT_EQ(Stale.slot(9).kind(), RegKind::Uninit);

  // And a later join grows it to the union.
  EXPECT_TRUE(Stale.joinFrom(StateDelta(Other), Count, 8));
  expectMaskMatchesSlots(Stale, "after joinFrom");
  EXPECT_TRUE(Stale == J);

  // The entry reset drops every live slot.
  Stale.assignEntry(MemSize);
  expectMaskMatchesSlots(Stale, "after assignEntry");
  EXPECT_TRUE(Stale == AbstractState::makeEntry(MemSize));
  EXPECT_EQ(Stale.liveSlots(), 0u);
}

/// Field-wise identity, stronger than operator== (which equates every
/// bottom of one width).
void expectSameFields(const RegValue &A, const RegValue &B,
                      const std::string &What) {
  EXPECT_EQ(A.width(), B.width()) << What;
  EXPECT_EQ(A.isBottom(), B.isBottom()) << What;
  EXPECT_EQ(A.tnum(), B.tnum()) << What;
  EXPECT_EQ(A.unsignedBounds(), B.unsignedBounds()) << What;
  EXPECT_EQ(A.signedBounds(), B.signedBounds()) << What;
}

TEST(NormalForm, MakeBottomIsTheCanonicalBottom) {
  for (unsigned W = 1; W <= MaxBitWidth; ++W) {
    RegValue Bottom = RegValue::makeBottom(W);
    EXPECT_TRUE(Bottom.isBottom()) << W;
    EXPECT_EQ(Bottom.width(), W);
    // The fields the old makeTop-then-overwrite construction produced.
    EXPECT_EQ(Bottom.tnum().value(), Tnum::makeBottom().value()) << W;
    EXPECT_EQ(Bottom.tnum().mask(), Tnum::makeBottom().mask()) << W;
    EXPECT_TRUE(Bottom.unsignedBounds().isBottom()) << W;
    EXPECT_TRUE(Bottom.signedBounds().isBottom()) << W;
    // A contradiction collapses to the same value.
    EXPECT_EQ(Bottom, RegValue::makeConstant(0, W).meetWith(
                          RegValue::makeConstant(1, W)))
        << W;
    RegValue Synced = Bottom;
    Synced.sync();
    expectSameFields(Synced, Bottom, "bottom at width " + std::to_string(W));
  }
}

TEST(NormalForm, TopAndConstantsAreUnchangedBySync) {
  // makeTop and makeConstant skip sync() as well; that is only sound if
  // sync() would change nothing.
  Xoshiro256 Rng(0xC0457);
  for (unsigned W = 1; W <= MaxBitWidth; ++W) {
    RegValue Top = RegValue::makeTop(W);
    RegValue SyncedTop = Top;
    SyncedTop.sync();
    expectSameFields(SyncedTop, Top, "top at width " + std::to_string(W));
    uint64_t SignBit = uint64_t(1) << (W - 1);
    for (uint64_t C : {uint64_t(0), uint64_t(1), SignBit - 1, SignBit,
                       lowBitsMask(W), Rng.next(), Rng.next()}) {
      RegValue Constant = RegValue::makeConstant(C, W);
      RegValue Synced = Constant;
      Synced.sync();
      expectSameFields(Synced, Constant,
                       "constant " + std::to_string(C) + " at width " +
                           std::to_string(W));
      EXPECT_TRUE(Constant.isConstant());
      EXPECT_EQ(Constant.constantValue(), truncateToWidth(C, W));
    }
  }
}

//===----------------------------------------------------------------------===//
// Sync short-cuts
//===----------------------------------------------------------------------===//

// sync() answers a constant tnum directly, the refinements and meetWith
// return their operand when the meet changes nothing, and joinWith returns
// the larger of two nested operands. Each must equal what the plain round
// loop, RegValue::reduceByRounds, makes of the same components.

/// Field-wise identity as a predicate; on a mismatch reports it like
/// expectSameFields, naming the case by \p Describe(), and returns false.
template <typename DescribeT>
bool sameFields(const RegValue &A, const RegValue &B, DescribeT Describe) {
  if (A.width() == B.width() && A.isBottom() == B.isBottom() &&
      A.tnum() == B.tnum() && A.unsignedBounds() == B.unsignedBounds() &&
      A.signedBounds() == B.signedBounds())
    return true;
  expectSameFields(A, B, Describe());
  return false;
}

RegValue refRefineTnum(const RegValue &V, Tnum T) {
  if (V.isBottom())
    return V;
  return RegValue::reduceByRounds(V.tnum().meetWith(T), V.unsignedBounds(),
                                  V.signedBounds(), V.width());
}

RegValue refRefineUnsigned(const RegValue &V, Interval I) {
  if (V.isBottom())
    return V;
  return RegValue::reduceByRounds(V.tnum(), V.unsignedBounds().meetWith(I),
                                  V.signedBounds(), V.width());
}

RegValue refRefineSigned(const RegValue &V, SignedRange S) {
  if (V.isBottom())
    return V;
  return RegValue::reduceByRounds(V.tnum(), V.unsignedBounds(),
                                  V.signedBounds().meetWith(S), V.width());
}

RegValue refMeet(const RegValue &A, const RegValue &B) {
  if (A.isBottom() || B.isBottom())
    return RegValue::makeBottom(A.width());
  return RegValue::reduceByRounds(
      A.tnum().meetWith(B.tnum()),
      A.unsignedBounds().meetWith(B.unsignedBounds()),
      A.signedBounds().meetWith(B.signedBounds()), A.width());
}

RegValue refJoin(const RegValue &A, const RegValue &B) {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  return RegValue::reduceByRounds(
      A.tnum().joinWith(B.tnum()),
      A.unsignedBounds().joinWith(B.unsignedBounds()),
      A.signedBounds().joinWith(B.signedBounds()), A.width());
}

/// Every tnum, unsigned interval and signed range at width \p W, each
/// list ending in its bottom, and every distinct synced value the round
/// loop makes of their non-bottom triples, bottom first.
struct ComponentGrid {
  std::vector<Tnum> Tnums;
  std::vector<Interval> Intervals;
  std::vector<SignedRange> Ranges;
  std::vector<RegValue> Canonical;

  explicit ComponentGrid(unsigned W) {
    uint64_t Max = lowBitsMask(W);
    for (uint64_t Value = 0; Value <= Max; ++Value)
      for (uint64_t Mask = 0; Mask <= Max; ++Mask)
        if ((Value & Mask) == 0)
          Tnums.push_back(Tnum(Value, Mask));
    for (uint64_t Lo = 0; Lo <= Max; ++Lo)
      for (uint64_t Hi = Lo; Hi <= Max; ++Hi)
        Intervals.push_back(Interval(Lo, Hi));
    SignedRange Top = SignedRange::makeTop(W);
    for (int64_t Lo = Top.min(); Lo <= Top.max(); ++Lo)
      for (int64_t Hi = Lo; Hi <= Top.max(); ++Hi)
        Ranges.push_back(SignedRange(Lo, Hi));

    using Key = std::array<uint64_t, 6>;
    std::set<Key> Seen;
    Canonical.push_back(RegValue::makeBottom(W));
    for (const Tnum &T : Tnums)
      for (const Interval &U : Intervals)
        for (const SignedRange &S : Ranges) {
          RegValue V = RegValue::reduceByRounds(T, U, S, W);
          if (V.isBottom())
            continue;
          Key K{V.tnum().value(),
                V.tnum().mask(),
                V.unsignedBounds().min(),
                V.unsignedBounds().max(),
                static_cast<uint64_t>(V.signedBounds().min()),
                static_cast<uint64_t>(V.signedBounds().max())};
          if (Seen.insert(K).second)
            Canonical.push_back(V);
        }
    Tnums.push_back(Tnum::makeBottom());
    Intervals.push_back(Interval::makeBottom());
    Ranges.push_back(SignedRange::makeBottom());
  }
};

const ComponentGrid &width4Grid() {
  static const ComponentGrid Grid(4);
  return Grid;
}

TEST(SyncShortCuts, SyncMatchesRoundLoopOnEveryTripleAtWidth4) {
  // Every triple, also those no operation produces, through the syncing
  // construction -- which answers every constant tnum without a round.
  const ComponentGrid &Grid = width4Grid();
  unsigned Constants = 0;
  for (const Tnum &T : Grid.Tnums)
    for (const Interval &U : Grid.Intervals)
      for (const SignedRange &S : Grid.Ranges) {
        Constants += T.isConstant();
        if (!sameFields(RegValue::fromComponents(T, U, S, 4),
                        RegValue::reduceByRounds(T, U, S, 4), [&] {
                          return "sync of " + T.toString(4) + " " +
                                 U.toString() + " " + S.toString();
                        }))
          return;
      }
  EXPECT_EQ(Constants, 16u * Grid.Intervals.size() * Grid.Ranges.size());
  EXPECT_GT(Grid.Canonical.size(), 50000u);
}

/// Runs \p Check(V, Arg) for every canonical width-4 value and every
/// argument in \p Args, stopping at the first failure.
template <typename ArgT, typename CheckT>
void forEveryValueAndArg(const std::vector<ArgT> &Args, CheckT Check) {
  for (const RegValue &V : width4Grid().Canonical)
    for (const ArgT &Arg : Args)
      if (!Check(V, Arg))
        return;
}

TEST(SyncShortCuts, RefineTnumMatchesRoundLoopAtWidth4) {
  forEveryValueAndArg(width4Grid().Tnums, [](const RegValue &V, Tnum T) {
    return sameFields(V.refineTnum(T), refRefineTnum(V, T), [&] {
      return V.toString() + " refineTnum " + T.toString(4);
    });
  });
}

TEST(SyncShortCuts, RefineUnsignedMatchesRoundLoopAtWidth4) {
  forEveryValueAndArg(width4Grid().Intervals,
                      [](const RegValue &V, Interval I) {
                        return sameFields(
                            V.refineUnsigned(I), refRefineUnsigned(V, I), [&] {
                              return V.toString() + " refineUnsigned " +
                                     I.toString();
                            });
                      });
}

TEST(SyncShortCuts, RefineSignedMatchesRoundLoopAtWidth4) {
  forEveryValueAndArg(width4Grid().Ranges,
                      [](const RegValue &V, SignedRange S) {
                        return sameFields(
                            V.refineSigned(S), refRefineSigned(V, S), [&] {
                              return V.toString() + " refineSigned " +
                                     S.toString();
                            });
                      });
}

/// \p A meetWith and joinWith \p B against the round loop; counts the
/// pairs where the join short-cut applies.
bool meetAndJoinMatch(const RegValue &A, const RegValue &B,
                      unsigned &Nested) {
  Nested += A.isSubsetOf(B) || B.isSubsetOf(A);
  auto What = [&](const char *Op) {
    return [&A, &B, Op] {
      return A.toString() + " " + Op + " " + B.toString();
    };
  };
  return sameFields(A.meetWith(B), refMeet(A, B), What("meet")) &&
         sameFields(A.joinWith(B), refJoin(A, B), What("join"));
}

TEST(SyncShortCuts, MeetAndJoinMatchRoundLoopAtWidth4) {
  // Every canonical value against the best value of every tnum. (All
  // pairs of the 50k values are too many; the width-3 test below takes
  // every pair.) Both join short-cuts apply: fromTnum(T) lies inside the
  // values below it and contains those above it.
  std::vector<RegValue> Args{RegValue::makeBottom(4)};
  for (const Tnum &T : width4Grid().Tnums)
    if (!T.isBottom())
      Args.push_back(RegValue::fromTnum(T, 4));
  unsigned Nested = 0;
  forEveryValueAndArg(Args, [&](const RegValue &V, const RegValue &Arg) {
    return meetAndJoinMatch(V, Arg, Nested);
  });
  EXPECT_GT(Nested, 100000u);
}

TEST(SyncShortCuts, MeetAndJoinMatchRoundLoopOnEveryPairAtWidth3) {
  ComponentGrid Grid(3);
  unsigned Nested = 0;
  for (const RegValue &A : Grid.Canonical)
    for (const RegValue &B : Grid.Canonical)
      if (!meetAndJoinMatch(A, B, Nested))
        return;
  EXPECT_GT(Nested, 10000u);
}

/// A seeded pool of width-64 values of the shapes the analyzer holds:
/// constants, byte and word ranges, random tnums and triples, and the
/// results of 64- and 32-bit ALU transfers on those.
std::vector<RegValue> width64Pool(Xoshiro256 &Rng) {
  std::vector<RegValue> Pool{RegValue::makeTop(), RegValue::makeBottom(),
                             RegValue::makeConstant(0),
                             RegValue::makeConstant(~uint64_t(0))};
  for (unsigned I = 0; I != 12; ++I) {
    Pool.push_back(RegValue::makeConstant(Rng.next() >> Rng.nextBelow(64)));
    Pool.push_back(RegValue::fromUnsignedRange(
        0, lowBitsMask(8u << Rng.nextBelow(4))));
    Pool.push_back(RegValue::fromTnum(randomWellFormedTnum(Rng, 64)));
    uint64_t A = Rng.next() >> Rng.nextBelow(64);
    uint64_t B = Rng.next() >> Rng.nextBelow(64);
    Pool.push_back(
        RegValue::fromUnsignedRange(std::min(A, B), std::max(A, B)));
    int64_t C = static_cast<int64_t>(Rng.next()) >> Rng.nextBelow(64);
    int64_t D = static_cast<int64_t>(Rng.next()) >> Rng.nextBelow(64);
    Pool.push_back(RegValue::fromComponents(
        randomWellFormedTnum(Rng, 64), Interval::makeTop(),
        SignedRange(std::min(C, D), std::max(C, D))));
  }
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                          BinaryOp::And, BinaryOp::Or,  BinaryOp::Xor,
                          BinaryOp::Lsh, BinaryOp::Rsh, BinaryOp::Arsh};
  size_t Seeds = Pool.size();
  for (unsigned I = 0; I != 48; ++I) {
    RegValue L = Pool[Rng.nextBelow(Seeds)];
    RegValue R = Pool[Rng.nextBelow(Seeds)];
    BinaryOp Op = Ops[Rng.nextBelow(std::size(Ops))];
    Pool.push_back(applyBinary(Op, L, R));
    Pool.push_back(applyBinary32(Op, L, R));
  }
  return Pool;
}

/// truncateToSubreg and zeroExtendSubreg built from the round loop.
RegValue refTruncateToSubreg(const RegValue &V) {
  if (V.isBottom())
    return RegValue::makeBottom(32);
  RegValue Out = RegValue::reduceByRounds(tnumTruncate(V.tnum(), 32),
                                          Interval::makeTop(32),
                                          SignedRange::makeTop(32), 32);
  if (V.unsignedBounds().max() <= lowBitsMask(32))
    Out = refRefineUnsigned(Out, V.unsignedBounds());
  return Out;
}

RegValue refZeroExtendSubreg(const RegValue &V32) {
  if (V32.isBottom())
    return RegValue::makeBottom(64);
  RegValue Out = RegValue::reduceByRounds(
      V32.tnum(), Interval::makeTop(64), SignedRange::makeTop(64), 64);
  return refRefineUnsigned(Out, V32.unsignedBounds());
}

TEST(SyncShortCuts, MatchRoundLoopOnSeededSamplesAtWidth64) {
  Xoshiro256 Rng(0x5C0);
  std::vector<RegValue> Pool = width64Pool(Rng);
  uint64_t HighMask = ~lowBitsMask(32);
  unsigned Nested = 0;
  for (const RegValue &A : Pool) {
    std::string Name = A.toString();
    auto Named = [&Name](const char *What) {
      return [&Name, What] { return Name + " " + What; };
    };
    // ALU32: truncation to the subregister and zero-extension back.
    RegValue A32 = truncateToSubreg(A);
    if (!sameFields(A32, refTruncateToSubreg(A), Named("truncate")) ||
        !sameFields(zeroExtendSubreg(A32), refZeroExtendSubreg(A32),
                    Named("zero-extend")))
      return;
    for (const RegValue &B : Pool) {
      if (!meetAndJoinMatch(A, B, Nested))
        return;
      // Refinement by the other value's components, and by the folded-back
      // subregister tnum and bounds that JMP32 refinement meets with.
      RegValue B32 = truncateToSubreg(B);
      Tnum FoldBack(B32.tnum().value(), B32.tnum().mask() | HighMask);
      if (B.isBottom())
        FoldBack = Tnum::makeBottom();
      auto By = [&Name, &B](const char *What) {
        return [&Name, &B, What] {
          return Name + " by " + B.toString() + ": " + What;
        };
      };
      if (!sameFields(A.refineTnum(B.tnum()), refRefineTnum(A, B.tnum()),
                      By("refineTnum")) ||
          !sameFields(A.refineUnsigned(B.unsignedBounds()),
                      refRefineUnsigned(A, B.unsignedBounds()),
                      By("refineUnsigned")) ||
          !sameFields(A.refineSigned(B.signedBounds()),
                      refRefineSigned(A, B.signedBounds()),
                      By("refineSigned")) ||
          !sameFields(A.refineTnum(FoldBack), refRefineTnum(A, FoldBack),
                      By("JMP32 tnum fold-back")) ||
          !sameFields(A.refineUnsigned(B32.unsignedBounds()),
                      refRefineUnsigned(A, B32.unsignedBounds()),
                      By("JMP32 bounds fold-back")) ||
          !sameFields(A32.refineUnsigned(B32.unsignedBounds()),
                      refRefineUnsigned(A32, B32.unsignedBounds()),
                      By("subregister refineUnsigned")) ||
          !sameFields(A32.refineSigned(B32.signedBounds()),
                      refRefineSigned(A32, B32.signedBounds()),
                      By("subregister refineSigned")))
        return;
    }
  }
  EXPECT_GT(Pool.size(), 150u);
  EXPECT_GT(Nested, 1000u);
}

//===----------------------------------------------------------------------===//
// Recycled state table
//===----------------------------------------------------------------------===//

/// A long program whose every point is reachable: a guarded byte load, a
/// spill/fill round trip, and an ALU chain.
Program longReachable() {
  ProgramBuilder B;
  B.load(R3, R1, 0, 1).movImm(R0, 0).jmpImm(CompareOp::Gt, R3, 100, "big");
  for (int I = 0; I != 8; ++I)
    B.aluImm(AluOp::Add, R0, I).aluImm(AluOp::Xor, R3, I);
  B.label("big").store(R10, -8, R3, 8).load(R4, R10, -8, 8);
  for (int I = 0; I != 8; ++I)
    B.alu(AluOp::Add, R0, R4);
  return B.exit().build();
}

/// As long as longReachable(), but a constant guard skips the middle:
/// points reachable there are unreachable here, and the skipped block
/// would report a violation (a load via uninitialized r5) if a stale
/// state ever leaked into it.
Program longWithDeadBlock() {
  ProgramBuilder B;
  B.movImm(R0, 0).movImm(R4, 0).jmpImm(CompareOp::Eq, R4, 0, "live");
  B.load(R6, R5, 0, 8);
  for (int I = 0; I != 14; ++I)
    B.aluImm(AluOp::Add, R0, I);
  B.label("live").movImm(R3, 7);
  for (int I = 0; I != 8; ++I)
    B.alu(AluOp::Add, R0, R3);
  return B.exit().build();
}

/// Spills a byte of context to each of \p Offsets, and on one branch a
/// pointer to fp-32, then fills from fp-8 (8 bytes) and fp-16 (4 bytes):
/// each fill is a violation unless its slot was spilled, so a slot left
/// live by an earlier program would change the verdict.
Program stackSpills(const std::vector<int32_t> &Offsets) {
  ProgramBuilder B;
  B.load(R3, R1, 0, 1);
  for (int32_t Offset : Offsets)
    B.store(R10, Offset, R3, 8);
  B.jmpImm(CompareOp::Gt, R3, 8, "merge").store(R10, -32, R1, 8);
  B.label("merge").load(R4, R10, -8, 8).load(R5, R10, -16, 4);
  return B.movImm(R0, 0).exit().build();
}

/// A short widening loop.
Program shortLoop() {
  return ProgramBuilder()
      .movImm(R0, 0)
      .label("head")
      .aluImm(AluOp::Add, R0, 1)
      .jmpImm(CompareOp::Lt, R0, 50, "head")
      .exit()
      .build();
}

void expectSameVerdict(const VerifyResult &A, const VerifyResult &B,
                       size_t Index) {
  EXPECT_EQ(A.Done, B.Done) << Index;
  EXPECT_EQ(A.Accepted, B.Accepted) << Index;
  EXPECT_EQ(A.InsnVisits, B.InsnVisits) << Index;
  EXPECT_EQ(A.StructuralError, B.StructuralError) << Index;
  ASSERT_EQ(A.Violations.size(), B.Violations.size()) << Index;
  for (size_t V = 0; V != A.Violations.size(); ++V) {
    EXPECT_EQ(A.Violations[V].Pc, B.Violations[V].Pc) << Index;
    EXPECT_EQ(A.Violations[V].Message, B.Violations[V].Message) << Index;
  }
}

TEST(RecycledStateTable, ReusedEngineMatchesFreshEngine) {
  // Stack programs whose live slots differ from one program to the next
  // (spills, then none, then other spills), then reachability flips.
  std::vector<Program> Programs{stackSpills({-8, -16, -24}),
                                stackSpills({}),
                                stackSpills({-64, -512, -16}),
                                stackSpills({-8}),
                                stackSpills({}),
                                longReachable(),
                                shortLoop(),
                                longWithDeadBlock(),
                                longReachable(),
                                shortLoop(),
                                longWithDeadBlock()};
  // Then generated programs, alternating the longest and shortest left.
  GenOptions Opts;
  Opts.MemSize = MemSize;
  ProgramGen Gen(0x15017, Opts);
  std::vector<Program> Drawn;
  for (unsigned I = 0; I != 40; ++I)
    Drawn.push_back(Gen.next());
  std::sort(Drawn.begin(), Drawn.end(),
            [](const Program &A, const Program &B) {
              return A.size() < B.size();
            });
  for (size_t Lo = 0, Hi = Drawn.size(); Lo < Hi;) {
    Programs.push_back(Drawn[--Hi]);
    if (Lo < Hi)
      Programs.push_back(Drawn[Lo++]);
  }

  // The stack programs fill exactly the slots they spilled.
  {
    Analyzer Fresh;
    Analyzer::Options AOpts;
    AOpts.MemSize = MemSize;
    EXPECT_TRUE(Fresh.analyze(Programs[0], AOpts).accepted());
    AnalysisResult NoSpills = Fresh.analyze(Programs[1], AOpts);
    ASSERT_EQ(NoSpills.Violations.size(), 2u);
    EXPECT_EQ(NoSpills.Violations[0].Message,
              "read of uninit stack slot at fp-8");
    EXPECT_EQ(Fresh.analyze(Programs[2], AOpts).Violations.size(), 1u);
    EXPECT_EQ(Fresh.analyze(Programs[3], AOpts).Violations.size(), 1u);
  }

  // The hand-written trio really does flip reachability between runs.
  {
    Analyzer Fresh;
    Analyzer::Options AOpts;
    AOpts.MemSize = MemSize;
    Fresh.analyze(Programs[5], AOpts);
    std::vector<AbstractState> Long = Fresh.inStates();
    Fresh.analyze(Programs[7], AOpts);
    std::vector<AbstractState> Dead = Fresh.inStates();
    unsigned Flipped = 0;
    for (size_t Pc = 0; Pc != std::min(Long.size(), Dead.size()); ++Pc)
      Flipped += Long[Pc].Reachable && !Dead[Pc].Reachable;
    EXPECT_GE(Flipped, 10u);
  }

  Analyzer Reused;
  Analyzer ReusedNoStates;
  for (size_t Index = 0; Index != Programs.size(); ++Index) {
    VerifyRequest Request;
    Request.Prog = Programs[Index];
    Request.MemSize = MemSize;

    Analyzer FreshEngine;
    VerifyResult Fresh, Recycled, NoStates;
    verifyRequestInto(Request, /*KeepStates=*/true, FreshEngine, Fresh);
    verifyRequestInto(Request, /*KeepStates=*/true, Reused, Recycled);
    verifyRequestInto(Request, /*KeepStates=*/false, ReusedNoStates,
                      NoStates);

    expectSameVerdict(Recycled, Fresh, Index);
    expectSameVerdict(NoStates, Fresh, Index);
    EXPECT_TRUE(NoStates.InStates.empty()) << Index;
    ASSERT_EQ(Recycled.InStates.size(), Request.Prog.size()) << Index;
    ASSERT_EQ(Fresh.InStates.size(), Request.Prog.size()) << Index;
    for (size_t Pc = 0; Pc != Fresh.InStates.size(); ++Pc) {
      EXPECT_TRUE(Recycled.InStates[Pc] == Fresh.InStates[Pc])
          << "program " << Index << " pc " << Pc;
      expectMaskMatchesSlots(Recycled.InStates[Pc],
                             "program " + std::to_string(Index) + " pc " +
                                 std::to_string(Pc));
      if (!Fresh.InStates[Pc].Reachable) {
        // Unreachable points come back canonical, whatever the recycled
        // table held there before.
        EXPECT_EQ(Recycled.InStates[Pc].toString(),
                  AbstractState::makeUnreachable().toString());
        for (unsigned R = 0; R != NumRegs; ++R)
          EXPECT_EQ(Recycled.InStates[Pc].Regs[R].kind(), RegKind::Uninit);
      }
    }
  }
}

} // namespace
