//===- tests/AnalyzerEngineTest.cpp - Fused join and recycled state table -===//
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
///  * RegValue::makeBottom, makeTop and makeConstant, which skip sync(),
///    against the normal form sync() would give;
///  * one reused engine (whose per-point state table is recycled and
///    reset by clearing Reachable) against a fresh engine per program.
///
//===----------------------------------------------------------------------===//

#include "bpf/Analyzer.h"

#include "bpf/Builder.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"
#include "support/Random.h"
#include "verify/SoundnessChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

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
      Widened.Slots[S] = Slot.Slots[S].widenWith(Joined.Slots[S]);
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
    S.Slots[I % NumStackSlots] = Values[(I * 3 + 2) % Values.size()];
    S.Slots[NumStackSlots - 1] = Values[(I * 7 + 3) % Values.size()];
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
  std::vector<Program> Programs{longReachable(), shortLoop(),
                                longWithDeadBlock(), longReachable(),
                                shortLoop(), longWithDeadBlock()};
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

  // The hand-written trio really does flip reachability between runs.
  {
    Analyzer Fresh;
    Analyzer::Options AOpts;
    AOpts.MemSize = MemSize;
    Fresh.analyze(Programs[0], AOpts);
    std::vector<AbstractState> Long = Fresh.inStates();
    Fresh.analyze(Programs[2], AOpts);
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
