//===- tests/InterpreterDifferentialTest.cpp - Decoded-vs-legacy lockstep -===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks DecodedProgram's determinism contract (bpf/Decoded.h): run() is
/// bit-identical to the legacy Interpreter on the same (program, memory,
/// step limit) -- Status, ReturnValue, ExitPc, FaultPc, Steps, Message,
/// init flags, initialized register values, and memory contents -- in
/// BOTH dispatch modes, over every generator profile (mutants included),
/// across reuse of one decoded program on many memories, and at step
/// limits that land inside fused instruction groups (which forces the
/// tied whole-iteration fast paths to fall back mid-group). Also checks
/// that every fused handler is reachable from generated code.
///
//===----------------------------------------------------------------------===//

#include "bpf/Decoded.h"

#include "service/ProgramGen.h"
#include "support/Random.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

constexpr GenProfile AllProfiles[] = {
    GenProfile::AluMix,  GenProfile::BoundsCheck, GenProfile::PacketFilter,
    GenProfile::Loops,   GenProfile::MaskIdx,     GenProfile::Scaled,
    GenProfile::Mixed};

/// Deterministic input memory for (seed, program, run).
std::vector<uint8_t> makeMemory(uint64_t Seed, uint64_t Index, unsigned Run) {
  Xoshiro256 Rng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
  std::vector<uint8_t> Mem(MemSize);
  for (uint8_t &Byte : Mem)
    Byte = static_cast<uint8_t>(Rng.next());
  return Mem;
}

/// Everything the contract promises to be identical after one execution.
struct Outcome {
  ExecResult R;
  std::array<uint64_t, NumRegs> Regs;
  std::array<bool, NumRegs> Inited;
  std::vector<uint8_t> Mem;
};

Outcome runLegacy(const Program &P, std::vector<uint8_t> Mem,
                  uint64_t StepLimit) {
  Outcome O;
  O.Mem = std::move(Mem);
  Interpreter Interp(P, O.Mem);
  O.R = Interp.run(StepLimit);
  O.Regs = Interp.registers();
  O.Inited = Interp.initialized();
  return O;
}

Outcome runDecoded(DecodedProgram &Exec, std::vector<uint8_t> Mem,
                   uint64_t StepLimit, DispatchMode Mode) {
  Outcome O;
  O.Mem = std::move(Mem);
  O.R = Exec.run(O.Mem, StepLimit, Mode);
  O.Regs = Exec.registers();
  O.Inited = Exec.initialized();
  return O;
}

/// Asserts \p Got matches \p Want bit-for-bit. Registers are compared
/// where initialized (an uninitialized register's storage is not part of
/// the machine state -- the init flags themselves are compared exactly).
void expectIdentical(const Outcome &Want, const Outcome &Got,
                     const Program &P, const std::string &What) {
  EXPECT_EQ(static_cast<int>(Want.R.St), static_cast<int>(Got.R.St))
      << What << "\n"
      << P.disassemble();
  EXPECT_EQ(Want.R.ReturnValue, Got.R.ReturnValue) << What;
  EXPECT_EQ(Want.R.ExitPc, Got.R.ExitPc) << What;
  EXPECT_EQ(Want.R.FaultPc, Got.R.FaultPc) << What;
  EXPECT_EQ(Want.R.Steps, Got.R.Steps) << What << "\n" << P.disassemble();
  EXPECT_EQ(Want.R.Message, Got.R.Message) << What;
  for (unsigned Reg = 0; Reg != NumRegs; ++Reg) {
    EXPECT_EQ(Want.Inited[Reg], Got.Inited[Reg]) << What << " r" << Reg;
    if (Want.Inited[Reg] && Got.Inited[Reg]) {
      EXPECT_EQ(Want.Regs[Reg], Got.Regs[Reg])
          << What << " r" << Reg << "\n"
          << P.disassemble();
    }
  }
  EXPECT_EQ(Want.Mem, Got.Mem) << What << " memory";
}

/// The profile-sweep body: \p Check runs per (program, memory) pair.
void sweepProfiles(uint64_t Programs, unsigned RunsPerProgram,
                   uint64_t StepLimit) {
  for (GenProfile Profile : AllProfiles) {
    for (uint64_t Seed : {uint64_t(1), uint64_t(7), uint64_t(2022)}) {
      GenOptions Opts;
      Opts.Profile = Profile;
      Opts.MemSize = MemSize;
      ProgramGen Gen(Seed, Opts);
      Program Predecessor;
      for (uint64_t Index = 0; Index != Programs; ++Index) {
        // Every 4th program is a mutant, like the fuzz campaign's stream:
        // mutation reaches shapes (narrowed sizes, shifted offsets) the
        // profiles never emit directly.
        Program P = (Index % 4 == 3) ? Gen.mutate(Predecessor) : Gen.next();
        Predecessor = P;
        std::string Error;
        std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
        ASSERT_TRUE(Exec) << Error << "\n" << P.disassemble();
        for (unsigned Run = 0; Run != RunsPerProgram; ++Run) {
          std::vector<uint8_t> Mem = makeMemory(Seed, Index, Run);
          Outcome Legacy = runLegacy(P, Mem, StepLimit);
          std::string Tag =
              formatString("%s seed %llu program %llu run %u",
                           genProfileName(Profile),
                           static_cast<unsigned long long>(Seed),
                           static_cast<unsigned long long>(Index), Run);
          expectIdentical(Legacy,
                          runDecoded(*Exec, Mem, StepLimit,
                                     DispatchMode::Switch),
                          P, Tag + " [switch]");
          expectIdentical(Legacy,
                          runDecoded(*Exec, Mem, StepLimit,
                                     DispatchMode::Threaded),
                          P, Tag + " [threaded]");
        }
      }
    }
  }
}

TEST(InterpreterDifferential, AllProfilesBothModesMatchLegacy) {
  sweepProfiles(/*Programs=*/30, /*RunsPerProgram=*/3,
                /*StepLimit=*/1 << 16);
}

TEST(InterpreterDifferential, MidGroupStepLimitsStayBitIdentical) {
  // Step limits chosen to land on every boundary of the fused groups
  // (3-instruction bodies, 5-, 7- and 9-instruction iterations) in every
  // family: a group must stop exactly at the limit, and the tied fast
  // paths must refuse the whole-iteration shortcut when the remaining
  // budget is short and fall back to slot-by-slot execution with exact
  // Steps and trap attribution.
  for (GenProfile Profile : AllProfiles) {
    if (Profile == GenProfile::Mixed)
      continue;
    GenOptions Opts;
    Opts.Profile = Profile;
    Opts.MemSize = MemSize;
    ProgramGen Gen(2022, Opts);
    for (uint64_t Index = 0; Index != 20; ++Index) {
      Program P = Gen.next();
      std::string Error;
      std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
      ASSERT_TRUE(Exec) << Error;
      for (uint64_t StepLimit : std::vector<uint64_t>{
               1, 2, 3, 5, 7, 8, 9, 10, 13, 20, 48, 49, 50}) {
        std::vector<uint8_t> Mem = makeMemory(99, Index, 0);
        Outcome Legacy = runLegacy(P, Mem, StepLimit);
        std::string Tag = formatString(
            "%s program %llu limit %llu", genProfileName(Profile),
            static_cast<unsigned long long>(Index),
            static_cast<unsigned long long>(StepLimit));
        expectIdentical(
            Legacy, runDecoded(*Exec, Mem, StepLimit, DispatchMode::Switch),
            P, Tag + " [switch]");
        expectIdentical(
            Legacy,
            runDecoded(*Exec, Mem, StepLimit, DispatchMode::Threaded), P,
            Tag + " [threaded]");
      }
    }
  }
}

TEST(InterpreterDifferential, DecodeRefusesInvalidPrograms) {
  // No terminating exit: Program::validate refuses it, so decode() must
  // too (corpus replay feeds decode() unvalidated bytes), mirroring the
  // legacy interpreter's InvalidProgram status.
  Program Invalid(std::vector<Insn>{Insn::movImm(R0, 0)});
  ASSERT_TRUE(Invalid.validate().has_value());
  std::string Error;
  EXPECT_FALSE(DecodedProgram::decode(Invalid, Error));
  EXPECT_FALSE(Error.empty());
  std::vector<uint8_t> Mem(MemSize);
  EXPECT_EQ(static_cast<int>(Interpreter(Invalid, Mem).run().St),
            static_cast<int>(ExecResult::Status::InvalidProgram));
}

TEST(InterpreterDifferential, ReusedDecodedProgramMatchesFreshInterpreters) {
  // One decoded program, many runs: the reused stack must behave as if
  // freshly zeroed every time (the dirty-span re-zeroing optimization),
  // so each run is compared against a brand-new legacy interpreter.
  // Hunt for a program that actually spills to the stack.
  GenOptions Opts;
  Opts.Profile = GenProfile::Mixed;
  Opts.MemSize = MemSize;
  ProgramGen Gen(5, Opts);
  Program P;
  bool HasStore = false;
  for (unsigned Tries = 0; Tries != 500 && !HasStore; ++Tries) {
    P = Gen.next();
    for (const Insn &In : P)
      HasStore |= In.InsnKind == Insn::Kind::Store;
  }
  ASSERT_TRUE(HasStore) << "no storing program in 500 draws";

  std::string Error;
  std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
  ASSERT_TRUE(Exec) << Error;
  for (unsigned Run = 0; Run != 10; ++Run) {
    std::vector<uint8_t> Mem = makeMemory(5, 0, Run);
    Outcome Legacy = runLegacy(P, Mem, 1 << 16);
    expectIdentical(Legacy, runDecoded(*Exec, Mem, 1 << 16,
                                       DispatchMode::Switch),
                    P, formatString("reuse run %u [switch]", Run));
    expectIdentical(Legacy, runDecoded(*Exec, Mem, 1 << 16,
                                       DispatchMode::Threaded),
                    P, formatString("reuse run %u [threaded]", Run));
  }
}

TEST(InterpreterDifferential, EveryFusedHandlerIsLive) {
  // Fusion pays only where generated code reaches it, so a handler no
  // family decodes to is dead weight. Every fused opcode decode() can
  // write must head a group in some program of the six families. A tied
  // variant counts for its generic group: that handler is the tied fast
  // path's fallback, so it runs whenever the tied opcode does.
  std::vector<bool> Live(DecodedProgram::OpCount, false);
  for (GenProfile Profile : AllProfiles) {
    if (Profile == GenProfile::Mixed)
      continue;
    GenOptions Opts;
    Opts.Profile = Profile;
    Opts.MemSize = MemSize;
    ProgramGen Gen(2022, Opts);
    for (uint64_t Index = 0; Index != 256; ++Index) {
      Program P = Gen.next();
      std::string Error;
      std::optional<DecodedProgram> Exec = DecodedProgram::decode(P, Error);
      ASSERT_TRUE(Exec) << Error;
      for (const DecodedProgram::DInsn &D : Exec->code()) {
        ASSERT_LT(D.Op, DecodedProgram::OpCount);
        if (D.Op >= DecodedProgram::FirstFusedOp) {
          Live[D.Op] = true;
          Live[DecodedProgram::genericGroupOp(D.Op)] = true;
        }
      }
    }
  }
  for (unsigned Op = DecodedProgram::FirstFusedOp;
       Op != DecodedProgram::OpCount; ++Op)
    EXPECT_TRUE(Live[Op]) << "fused opcode " << Op
                          << " heads no group in any family";
}

} // namespace
