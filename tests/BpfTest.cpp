//===- tests/BpfTest.cpp - Program/Builder/Interpreter/Cfg tests ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Builder.h"
#include "bpf/Cfg.h"
#include "bpf/Interpreter.h"
#include "service/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tnums;
using namespace tnums::bpf;

namespace {

Program simpleReturn(int64_t Value) {
  return ProgramBuilder().movImm(R0, Value).exit().build();
}

//===----------------------------------------------------------------------===//
// Structural validation
//===----------------------------------------------------------------------===//

TEST(ProgramValidate, AcceptsMinimalProgram) {
  EXPECT_FALSE(simpleReturn(0).validate().has_value());
}

TEST(ProgramValidate, RejectsEmptyProgram) {
  EXPECT_TRUE(Program().validate().has_value());
}

TEST(ProgramValidate, RejectsWriteToR10) {
  Program P({Insn::movImm(R10, 0), Insn::exit()});
  std::optional<std::string> Error = P.validate();
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("r10"), std::string::npos);
}

TEST(ProgramValidate, RejectsJumpOutOfRange) {
  Program P({Insn::ja(5), Insn::exit()});
  EXPECT_TRUE(P.validate().has_value());
  Program Back({Insn::ja(-3), Insn::exit()});
  EXPECT_TRUE(Back.validate().has_value());
}

TEST(ProgramValidate, RejectsFallthroughPastEnd) {
  Program P({Insn::movImm(R0, 1)});
  std::optional<std::string> Error = P.validate();
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("fall-through"), std::string::npos);
}

TEST(ProgramValidate, RejectsBadRegister) {
  Insn Bad = Insn::movImm(R0, 1);
  Bad.Dst = 12;
  EXPECT_TRUE(Program({Bad, Insn::exit()}).validate().has_value());
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(Builder, ResolvesForwardAndBackwardLabels) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("loop")
                  .aluImm(AluOp::Add, R0, 1)
                  .jmpImm(CompareOp::Lt, R0, 3, "loop")
                  .ja("out")
                  .label("out")
                  .exit()
                  .build();
  EXPECT_FALSE(P.validate().has_value());
  // The conditional jump at index 2 targets index 1: offset -2.
  EXPECT_EQ(P.insn(2).Offset, -2);
  // The ja at index 3 targets index 4: offset 0.
  EXPECT_EQ(P.insn(3).Offset, 0);
}

TEST(Builder, DisassemblyIsReadable) {
  Program P = ProgramBuilder()
                  .load(R2, R1, 0, 1)
                  .jmpImm(CompareOp::Gt, R2, 8, "out")
                  .label("out")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  std::string Text = P.disassemble();
  EXPECT_NE(Text.find("r2 = *(u8 *)(r1 +0)"), std::string::npos);
  EXPECT_NE(Text.find("if r2 > 8 goto +0"), std::string::npos);
  EXPECT_NE(Text.find("exit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CFG
//===----------------------------------------------------------------------===//

TEST(CfgTest, StraightLine) {
  Program P = simpleReturn(7);
  Cfg G(P);
  EXPECT_EQ(G.successors(0), std::vector<size_t>{1});
  EXPECT_TRUE(G.successors(1).empty());
  EXPECT_FALSE(G.hasLoop());
  EXPECT_EQ(G.reversePostOrder(), (std::vector<size_t>{0, 1}));
}

TEST(CfgTest, ConditionalEdges) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .jmpImm(CompareOp::Eq, R0, 0, "target")
                  .aluImm(AluOp::Add, R0, 1)
                  .label("target")
                  .exit()
                  .build();
  Cfg G(P);
  EXPECT_EQ(G.successors(1), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(G.predecessors(3), (std::vector<size_t>{1, 2}));
  EXPECT_FALSE(G.hasLoop());
}

TEST(CfgTest, DetectsLoop) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("loop")
                  .aluImm(AluOp::Add, R0, 1)
                  .jmpImm(CompareOp::Lt, R0, 10, "loop")
                  .exit()
                  .build();
  Cfg G(P);
  EXPECT_TRUE(G.hasLoop());
}

TEST(CfgTest, UnreachableCode) {
  Program P = ProgramBuilder()
                  .ja("end")
                  .movImm(R0, 1) // Dead.
                  .label("end")
                  .movImm(R0, 0)
                  .exit()
                  .build();
  Cfg G(P);
  EXPECT_FALSE(G.isReachable(1));
  EXPECT_TRUE(G.isReachable(2));
}

/// The CFG facts Cfg computes, recomputed from scratch: a recursive DFS
/// from entry over edges read off the instructions with
/// Program::jumpTarget, fall-through first.
struct ReferenceCfg {
  std::vector<std::vector<size_t>> Succs;
  std::vector<size_t> Rpo;
  std::vector<bool> Reachable;
  bool Loop = false;

  explicit ReferenceCfg(const Program &P)
      : Succs(P.size()), Reachable(P.size(), false), OnStack(P.size()) {
    for (size_t Pc = 0; Pc != P.size(); ++Pc) {
      const Insn &I = P.insn(Pc);
      size_t Target = Program::jumpTarget(Pc, I);
      if (I.InsnKind == Insn::Kind::Ja)
        Succs[Pc] = {Target};
      else if (I.InsnKind == Insn::Kind::Jmp && Target != Pc + 1)
        Succs[Pc] = {Pc + 1, Target};
      else if (I.InsnKind != Insn::Kind::Exit)
        Succs[Pc] = {Pc + 1};
    }
    visit(0);
    std::reverse(Rpo.begin(), Rpo.end());
  }

private:
  std::vector<bool> OnStack;

  void visit(size_t Pc) {
    Reachable[Pc] = true;
    OnStack[Pc] = true;
    for (size_t Succ : Succs[Pc]) {
      if (OnStack[Succ])
        Loop = true;
      else if (!Reachable[Succ])
        visit(Succ);
    }
    OnStack[Pc] = false;
    Rpo.push_back(Pc); // Post-order until the constructor reverses it.
  }
};

/// Checks \p G, built for \p P, against the reference DFS, and checks
/// that predecessors() is exactly the ascending inverse of successors().
void expectMatchesReference(const Cfg &G, const Program &P) {
  ReferenceCfg Ref(P);
  ASSERT_EQ(G.size(), P.size());
  EXPECT_EQ(G.reversePostOrder(), Ref.Rpo);
  EXPECT_EQ(G.hasLoop(), Ref.Loop);
  std::vector<std::vector<size_t>> Inverse(P.size());
  for (size_t Pc = 0; Pc != P.size(); ++Pc) {
    EXPECT_EQ(G.isReachable(Pc), Ref.Reachable[Pc]) << "pc " << Pc;
    EXPECT_EQ(G.successors(Pc), Ref.Succs[Pc]) << "pc " << Pc;
    for (size_t Succ : G.successors(Pc))
      Inverse[Succ].push_back(Pc); // Pc ascends, so each list does too.
  }
  for (size_t Pc = 0; Pc != P.size(); ++Pc)
    EXPECT_EQ(G.predecessors(Pc), Inverse[Pc]) << "pc " << Pc;
}

TEST(CfgTest, MatchesReferenceDfsOnEveryFamilyAndMutants) {
  using service::GenOptions;
  using service::GenProfile;
  using service::ProgramGen;
  // One long-lived Cfg rebuilt across the whole stream, as the analyzer
  // uses it, next to a fresh one per program.
  Cfg Recycled;
  size_t Looping = 0;
  for (GenProfile Family :
       {GenProfile::AluMix, GenProfile::BoundsCheck, GenProfile::PacketFilter,
        GenProfile::Loops, GenProfile::MaskIdx, GenProfile::Scaled}) {
    for (uint64_t Seed : {1u, 2u, 3u, 424242u}) {
      GenOptions Opts;
      Opts.Profile = Family;
      ProgramGen Gen(Seed, Opts);
      for (int I = 0; I != 20; ++I) {
        Program Base = Gen.next();
        for (const Program &P : {Base, Gen.mutate(Base)}) {
          SCOPED_TRACE(std::string(service::genProfileName(Family)) +
                       " seed " + std::to_string(Seed) + " program " +
                       std::to_string(I) + "\n" + P.disassemble());
          ASSERT_FALSE(P.validate().has_value());
          expectMatchesReference(Cfg(P), P);
          Recycled.rebuild(P);
          expectMatchesReference(Recycled, P);
          Looping += Recycled.hasLoop();
        }
      }
    }
  }
  EXPECT_GT(Looping, 0u); // The loop family reaches the back-edge path.

  // Shapes the generator never emits: a conditional jump to its own
  // fall-through (one edge, not two) and dead code after a ja.
  for (const Program &P :
       {ProgramBuilder()
            .movImm(R0, 0)
            .jmpImm(CompareOp::Eq, R0, 0, "next")
            .label("next")
            .exit()
            .build(),
        ProgramBuilder()
            .ja("end")
            .movImm(R0, 1)
            .label("end")
            .movImm(R0, 0)
            .exit()
            .build()}) {
    SCOPED_TRACE(P.disassemble());
    expectMatchesReference(Cfg(P), P);
    Recycled.rebuild(P);
    expectMatchesReference(Recycled, P);
  }
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(Interp, ReturnsImmediate) {
  std::vector<uint8_t> Mem(16, 0);
  Interpreter I(simpleReturn(42), Mem);
  ExecResult R = I.run();
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 42u);
}

TEST(Interp, AluSemantics) {
  // r0 = ((5 + 3) * 2 - 6) / 2 % 4 = 10 / 2 % 4 = 5 % 4 = 1
  Program P = ProgramBuilder()
                  .movImm(R0, 5)
                  .aluImm(AluOp::Add, R0, 3)
                  .aluImm(AluOp::Mul, R0, 2)
                  .aluImm(AluOp::Sub, R0, 6)
                  .aluImm(AluOp::Div, R0, 2)
                  .aluImm(AluOp::Mod, R0, 4)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 1u);
}

TEST(Interp, DivModByZeroConventions) {
  Program P = ProgramBuilder()
                  .movImm(R3, 7)
                  .movImm(R4, 0)
                  .mov(R0, R3)
                  .alu(AluOp::Div, R0, R4) // 7 / 0 == 0
                  .mov(R5, R3)
                  .alu(AluOp::Mod, R5, R4) // 7 % 0 == 7
                  .alu(AluOp::Add, R0, R5)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 7u);
}

TEST(Interp, MemoryLoadStoreLittleEndian) {
  Program P = ProgramBuilder()
                  .storeImm(R1, 0, 0x11223344, 4)
                  .load(R0, R1, 0, 2)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 0x3344u);
  EXPECT_EQ(Mem[0], 0x44u);
  EXPECT_EQ(Mem[3], 0x11u);
}

TEST(Interp, StackIsAddressable) {
  Program P = ProgramBuilder()
                  .storeImm(R10, -8, 99, 8)
                  .load(R0, R10, -8, 8)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 99u);
}

TEST(Interp, OutOfBoundsLoadTraps) {
  Program P = ProgramBuilder().load(R0, R1, 16, 1).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  EXPECT_EQ(R.St, ExecResult::Status::OutOfBounds);
  EXPECT_EQ(R.FaultPc, 0u);
}

TEST(Interp, StraddlingAccessTraps) {
  // 8-byte load at offset 12 of a 16-byte region crosses the boundary.
  Program P = ProgramBuilder().load(R0, R1, 12, 8).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, StackOverflowTraps) {
  Program P = ProgramBuilder().storeImm(R10, -520, 1, 8).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, PositiveStackOffsetTraps) {
  // R10 is the top of the stack; nothing lives at or above it.
  Program P = ProgramBuilder().load(R0, R10, 0, 1).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::OutOfBounds);
}

TEST(Interp, UninitReadTraps) {
  Program P = ProgramBuilder().mov(R0, R5).exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::UninitRead);
}

TEST(Interp, UninitR0AtExitTraps) {
  Program P = ProgramBuilder().exit().build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run().St, ExecResult::Status::UninitRead);
}

TEST(Interp, StepLimitTerminatesInfiniteLoop) {
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .label("spin")
                  .ja("spin")
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  EXPECT_EQ(Interpreter(P, Mem).run(1000).St, ExecResult::Status::StepLimit);
}

TEST(Interp, LoopComputesSum) {
  // sum = 1 + 2 + ... + 10 = 55
  Program P = ProgramBuilder()
                  .movImm(R0, 0)
                  .movImm(R3, 1)
                  .label("loop")
                  .alu(AluOp::Add, R0, R3)
                  .aluImm(AluOp::Add, R3, 1)
                  .jmpImm(CompareOp::Le, R3, 10, "loop")
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 55u);
}

TEST(Interp, SignedComparison) {
  // -1 s< 0 but -1 u> 0.
  Program P = ProgramBuilder()
                  .movImm(R3, -1)
                  .movImm(R0, 0)
                  .jmpImm(CompareOp::SLt, R3, 0, "signed_less")
                  .exit()
                  .label("signed_less")
                  .movImm(R0, 1)
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 1u);
}

TEST(Interp, R2HoldsMemSize) {
  Program P = ProgramBuilder().mov(R0, R2).exit().build();
  std::vector<uint8_t> Mem(24, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 24u);
}

TEST(Interp, ShiftMasksAmount) {
  Program P = ProgramBuilder()
                  .movImm(R0, 1)
                  .aluImm(AluOp::Lsh, R0, 65) // 65 & 63 == 1
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 2u);
}

TEST(Interp, NegAndArsh) {
  Program P = ProgramBuilder()
                  .movImm(R0, 8)
                  .neg(R0)                     // -8
                  .aluImm(AluOp::Arsh, R0, 2)  // -2
                  .exit()
                  .build();
  std::vector<uint8_t> Mem(16, 0);
  ExecResult R = Interpreter(P, Mem).run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(static_cast<int64_t>(R.ReturnValue), -2);
}

} // namespace
