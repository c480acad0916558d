//===- bpf/Decoded.cpp - Pre-decoded threaded-dispatch executor -----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
//
// decode() lowers validated Insns into flat DInsn records whose Op field
// indexes the specialized handlers in DecodedBody.inc, then fuses the
// generated loops' hot groups; run() executes them with computed-goto
// threaded dispatch or, for the differential tests, a switch loop. The
// handler bodies live in DecodedBody.inc and are included once per
// dispatch mode, so the two modes cannot drift.
//
//===----------------------------------------------------------------------===//

#include "bpf/Decoded.h"

#include "support/Metrics.h"
#include "support/Table.h"

#include <cassert>
#include <cstring>

using namespace tnums;
using namespace tnums::bpf;

namespace {

//===----------------------------------------------------------------------===//
// The specialized opcode set. One X(name) per opcode, in dispatch-table
// order; the grouping and order are load-bearing -- decode() computes
// opcode values arithmetically from (AluOp, UsesImm, Is32, Size), and the
// static_asserts below pin the layout.
//===----------------------------------------------------------------------===//

#define TNUMS_ARITH_LIST(X)                                                    \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Lsh) X(Rsh) X(Arsh)

// CompareOp enumeration order (RegValue.h); the jump opcode blocks follow
// it so decode() can compute the opcode arithmetically.
#define TNUMS_COMPARE_LIST(X)                                                  \
  X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge) X(SLt) X(SLe) X(SGt) X(SGe) X(Set)

#define TNUMS_DOP_ARITH_VARIANTS(X, NAME)                                      \
  X(NAME##Reg64) X(NAME##Imm64) X(NAME##Reg32) X(NAME##Imm32)

#define TNUMS_DOP_JMP_VARIANTS(X, NAME)                                        \
  X(Jmp##NAME##Reg64) X(Jmp##NAME##Imm64) X(Jmp##NAME##Reg32)                  \
  X(Jmp##NAME##Imm32)

#define TNUMS_DOP_LIST(X)                                                      \
  TNUMS_DOP_ARITH_VARIANTS(X, Add)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Sub)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Mul)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Div)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Mod)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, And)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Or)                                              \
  TNUMS_DOP_ARITH_VARIANTS(X, Xor)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Lsh)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Rsh)                                             \
  TNUMS_DOP_ARITH_VARIANTS(X, Arsh)                                            \
  X(MovReg64) X(MovImm64) X(MovReg32) X(MovImm32)                              \
  X(Neg64) X(Neg32)                                                            \
  X(LoadImm)                                                                   \
  X(Load1) X(Load2) X(Load4) X(Load8)                                          \
  X(StoreReg1) X(StoreReg2) X(StoreReg4) X(StoreReg8)                          \
  X(StoreImm1) X(StoreImm2) X(StoreImm4) X(StoreImm8)                          \
  TNUMS_DOP_JMP_VARIANTS(X, Eq)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, Ne)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, Lt)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, Le)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, Gt)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, Ge)                                                \
  TNUMS_DOP_JMP_VARIANTS(X, SLt)                                               \
  TNUMS_DOP_JMP_VARIANTS(X, SLe)                                               \
  TNUMS_DOP_JMP_VARIANTS(X, SGt)                                               \
  TNUMS_DOP_JMP_VARIANTS(X, SGe)                                               \
  TNUMS_DOP_JMP_VARIANTS(X, Set)                                               \
  X(Ja) X(Exit)                                                                \
  TNUMS_DOP_FUSE_LIST(X)

// Fused superinstructions: decode() rewrites the FIRST record of a hot
// group of adjacent instructions to one of these opcodes, executing the
// whole group in a single dispatch. The records behind it keep their
// original opcodes (the handler reads their operands via I[k] after each
// mid-group step), so jumps into the middle of a group execute them
// standalone and nothing changes observably: per-instruction step
// counting, trap pcs, and the step-limit check between slots are all
// preserved. Every family removes dispatches from a generated loop:
//   - aluimm+addimm+jlt: an up-counting loop's body, induction and
//     back-edge;
//   - whole iterations (up-counting masked, down-counting masked, and
//     down-counting random-body, one per ALU op);
//   - the tied variants (T) of the two masked iterations, whose fast path
//     falls back to the generic group's handler.
#define TNUMS_DOP_FUSE_LIST(X)                                                 \
  X(FuseAddImmAddImmJmpLt) X(FuseSubImmAddImmJmpLt)                            \
  X(FuseMulImmAddImmJmpLt) X(FuseDivImmAddImmJmpLt)                            \
  X(FuseModImmAddImmJmpLt) X(FuseAndImmAddImmJmpLt)                            \
  X(FuseOrImmAddImmJmpLt) X(FuseXorImmAddImmJmpLt)                             \
  X(FuseLshImmAddImmJmpLt) X(FuseRshImmAddImmJmpLt)                            \
  X(FuseArshImmAddImmJmpLt)                                                    \
  X(FuseMaskedAccumJmpLt) X(FuseDownMaskedIter)                                \
  X(FuseDownRandAdd) X(FuseDownRandSub) X(FuseDownRandMul)                     \
  X(FuseDownRandDiv) X(FuseDownRandMod) X(FuseDownRandAnd)                     \
  X(FuseDownRandOr) X(FuseDownRandXor) X(FuseDownRandLsh)                      \
  X(FuseDownRandRsh) X(FuseDownRandArsh)                                       \
  X(FuseMaskedAccumJmpLtT) X(FuseDownMaskedIterT)

enum DOp : uint8_t {
#define TNUMS_DOP_ENUM(Name) D##Name,
  TNUMS_DOP_LIST(TNUMS_DOP_ENUM)
#undef TNUMS_DOP_ENUM
};

// decode() computes arithmetic opcodes as AluOp * 4 + UsesImm + 2 * Is32,
// mov/jump/memory opcodes as base + offset. Pin every assumption.
static_assert(DAddReg64 == 0 && DAddImm64 == 1 && DAddReg32 == 2 &&
                  DAddImm32 == 3,
              "arith variant order is (reg64, imm64, reg32, imm32)");
static_assert(DArshImm32 ==
                  static_cast<unsigned>(AluOp::Arsh) * 4 + 3,
              "arith opcode blocks follow AluOp order");
static_assert(DMovReg64 == 44 && DNeg64 == 48 && DLoadImm == 50,
              "mov/neg/loadimm block layout");
static_assert(DLoad8 == DLoad1 + 3 && DStoreReg8 == DStoreReg1 + 3 &&
                  DStoreImm8 == DStoreImm1 + 3,
              "memory opcodes are ordered by log2(size)");
static_assert(DJmpEqReg64 == 63 && DJmpEqImm64 == DJmpEqReg64 + 1 &&
                  DJmpEqReg32 == DJmpEqReg64 + 2 &&
                  DJmpEqImm32 == DJmpEqReg64 + 3,
              "jump variant order is (reg64, imm64, reg32, imm32)");
static_assert(DJmpSetReg64 ==
                  DJmpEqReg64 + static_cast<unsigned>(CompareOp::Set) * 4,
              "jump opcode blocks follow CompareOp order");
static_assert(DJa == 107 && DExit == 108, "plain opcode count");
static_assert(DFuseAddImmAddImmJmpLt == 109 &&
                  DFuseArshImmAddImmJmpLt == 119,
              "aluimm+addimm+jmplt fused block follows AluOp order");
static_assert(DFuseMaskedAccumJmpLt == 120 && DFuseDownMaskedIter == 121 &&
                  DFuseDownRandAdd == 122 && DFuseDownRandArsh == 132,
              "whole-iteration fused block follows AluOp order");
static_assert(DFuseMaskedAccumJmpLtT == 133 && DFuseDownMaskedIterT == 134,
              "tied whole-iteration variants close the opcode space");
static_assert(DecodedProgram::FirstFusedOp == DFuseAddImmAddImmJmpLt &&
                  DecodedProgram::OpCount == DFuseDownMaskedIterT + 1,
              "Decoded.h publishes the fused opcode range");

/// Resolves the access [Addr, Addr + Size) to a host pointer inside the
/// context region or the stack, or nullptr when out of bounds -- the same
/// address model as Interpreter::resolve.
inline uint8_t *spanAt(uint8_t *MemData, uint64_t MemSize, uint8_t *StackData,
                       uint64_t Addr, unsigned Size) {
  if (Addr >= MemBase && Size <= MemSize && Addr - MemBase <= MemSize - Size)
    return MemData + (Addr - MemBase);
  constexpr uint64_t StackLow = StackBase - StackSize;
  if (Addr >= StackLow && Addr - StackLow <= StackSize - Size &&
      Addr < StackBase)
    return StackData + (Addr - StackLow);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Per-op evaluation expressions (BPF conventions: x / 0 == 0, x % 0 == x,
// shift amounts masked to 63 / 31, 32-bit results zero-extended). The
// 64-bit forms take uint64_t operands, the 32-bit forms uint32_t and
// return the zero-extended uint64_t register value.
//===----------------------------------------------------------------------===//

#define TNUMS_EVAL64_Add(L, R) ((L) + (R))
#define TNUMS_EVAL64_Sub(L, R) ((L) - (R))
#define TNUMS_EVAL64_Mul(L, R) ((L) * (R))
#define TNUMS_EVAL64_Div(L, R) ((R) == 0 ? 0 : (L) / (R))
#define TNUMS_EVAL64_Mod(L, R) ((R) == 0 ? (L) : (L) % (R))
#define TNUMS_EVAL64_And(L, R) ((L) & (R))
#define TNUMS_EVAL64_Or(L, R) ((L) | (R))
#define TNUMS_EVAL64_Xor(L, R) ((L) ^ (R))
#define TNUMS_EVAL64_Lsh(L, R) ((L) << ((R) & 63))
#define TNUMS_EVAL64_Rsh(L, R) ((L) >> ((R) & 63))
#define TNUMS_EVAL64_Arsh(L, R)                                                \
  (static_cast<uint64_t>(static_cast<int64_t>(L) >> ((R) & 63)))

#define TNUMS_EVAL32_Add(L, R) (static_cast<uint32_t>((L) + (R)))
#define TNUMS_EVAL32_Sub(L, R) (static_cast<uint32_t>((L) - (R)))
#define TNUMS_EVAL32_Mul(L, R) (static_cast<uint32_t>((L) * (R)))
#define TNUMS_EVAL32_Div(L, R) ((R) == 0 ? 0u : (L) / (R))
#define TNUMS_EVAL32_Mod(L, R) ((R) == 0 ? (L) : (L) % (R))
#define TNUMS_EVAL32_And(L, R) ((L) & (R))
#define TNUMS_EVAL32_Or(L, R) ((L) | (R))
#define TNUMS_EVAL32_Xor(L, R) ((L) ^ (R))
#define TNUMS_EVAL32_Lsh(L, R) (static_cast<uint32_t>((L) << ((R) & 31)))
#define TNUMS_EVAL32_Rsh(L, R) ((L) >> ((R) & 31))
#define TNUMS_EVAL32_Arsh(L, R)                                                \
  (static_cast<uint32_t>(static_cast<int32_t>(L) >> ((R) & 31)))

//===----------------------------------------------------------------------===//
// Per-compare expressions, specialized into the jump opcodes at decode
// time so the hot loop never calls out to applyConcreteCompare. The
// 64-bit forms match applyConcreteCompare at MaxBitWidth, the 32-bit
// forms at width 32 (operate on the low subregister; signed compares
// sign-extend it, exactly like signExtend(L, 32)).
//===----------------------------------------------------------------------===//

#define TNUMS_CMP64_Eq(L, R) ((L) == (R))
#define TNUMS_CMP64_Ne(L, R) ((L) != (R))
#define TNUMS_CMP64_Lt(L, R) ((L) < (R))
#define TNUMS_CMP64_Le(L, R) ((L) <= (R))
#define TNUMS_CMP64_Gt(L, R) ((L) > (R))
#define TNUMS_CMP64_Ge(L, R) ((L) >= (R))
#define TNUMS_CMP64_SLt(L, R)                                                  \
  (static_cast<int64_t>(L) < static_cast<int64_t>(R))
#define TNUMS_CMP64_SLe(L, R)                                                  \
  (static_cast<int64_t>(L) <= static_cast<int64_t>(R))
#define TNUMS_CMP64_SGt(L, R)                                                  \
  (static_cast<int64_t>(L) > static_cast<int64_t>(R))
#define TNUMS_CMP64_SGe(L, R)                                                  \
  (static_cast<int64_t>(L) >= static_cast<int64_t>(R))
#define TNUMS_CMP64_Set(L, R) (((L) & (R)) != 0)

#define TNUMS_CMP32_Eq(L, R)                                                   \
  (static_cast<uint32_t>(L) == static_cast<uint32_t>(R))
#define TNUMS_CMP32_Ne(L, R)                                                   \
  (static_cast<uint32_t>(L) != static_cast<uint32_t>(R))
#define TNUMS_CMP32_Lt(L, R)                                                   \
  (static_cast<uint32_t>(L) < static_cast<uint32_t>(R))
#define TNUMS_CMP32_Le(L, R)                                                   \
  (static_cast<uint32_t>(L) <= static_cast<uint32_t>(R))
#define TNUMS_CMP32_Gt(L, R)                                                   \
  (static_cast<uint32_t>(L) > static_cast<uint32_t>(R))
#define TNUMS_CMP32_Ge(L, R)                                                   \
  (static_cast<uint32_t>(L) >= static_cast<uint32_t>(R))
#define TNUMS_CMP32_SLt(L, R)                                                  \
  (static_cast<int32_t>(static_cast<uint32_t>(L)) <                            \
   static_cast<int32_t>(static_cast<uint32_t>(R)))
#define TNUMS_CMP32_SLe(L, R)                                                  \
  (static_cast<int32_t>(static_cast<uint32_t>(L)) <=                           \
   static_cast<int32_t>(static_cast<uint32_t>(R)))
#define TNUMS_CMP32_SGt(L, R)                                                  \
  (static_cast<int32_t>(static_cast<uint32_t>(L)) >                            \
   static_cast<int32_t>(static_cast<uint32_t>(R)))
#define TNUMS_CMP32_SGe(L, R)                                                  \
  (static_cast<int32_t>(static_cast<uint32_t>(L)) >=                           \
   static_cast<int32_t>(static_cast<uint32_t>(R)))
#define TNUMS_CMP32_Set(L, R)                                                  \
  ((static_cast<uint32_t>(L) & static_cast<uint32_t>(R)) != 0)

//===----------------------------------------------------------------------===//
// Register-init tracking. The run loops keep the per-register init flags
// in one bitmask register (InitMask, a uint32_t local) instead of a bool
// array; NumRegs == 11 bits.
//===----------------------------------------------------------------------===//

#define TNUMS_INITED(R) ((InitMask >> (R)) & 1u)
#define TNUMS_SET_INITED(R) (void)(InitMask |= (1u << (R)))

//===----------------------------------------------------------------------===//
// Handler-family generators, expanded by DecodedBody.inc with the
// includer's TNUMS_OP / TNUMS_NEXT / TNUMS_TRAP primitives in force.
// Operand-check order mirrors Interpreter.cpp: ALU reads check Src before
// Dst; stores check the base (Dst) before the value (Src).
//===----------------------------------------------------------------------===//

// Statement bodies shared between the standalone handlers and the fused
// groups (each fused handler is body1 + TNUMS_FUSE + body2 + ..., so fused
// and unfused execution can never drift). A body performs its init checks
// (trapping at the current I) and the state update, but no dispatch.

#define TNUMS_BODY_ALU_REG64(NAME)                                             \
  if (!TNUMS_INITED(I->Src))                                                   \
    TNUMS_TRAP(UninitRead, "read of uninit reg");                              \
  if (!TNUMS_INITED(I->Dst))                                                   \
    TNUMS_TRAP(UninitRead, "read of uninit reg");                              \
  Regs[I->Dst] = TNUMS_EVAL64_##NAME(Regs[I->Dst], Regs[I->Src]);

#define TNUMS_BODY_ALU_IMM64(NAME)                                             \
  if (!TNUMS_INITED(I->Dst))                                                   \
    TNUMS_TRAP(UninitRead, "read of uninit reg");                              \
  Regs[I->Dst] = TNUMS_EVAL64_##NAME(Regs[I->Dst], I->Imm);

#define TNUMS_BODY_MOV_REG64                                                   \
  if (!TNUMS_INITED(I->Src))                                                   \
    TNUMS_TRAP(UninitRead, "read of uninit reg");                              \
  Regs[I->Dst] = Regs[I->Src];                                                 \
  TNUMS_SET_INITED(I->Dst);

#define TNUMS_BODY_LOAD(N)                                                     \
  if (!TNUMS_INITED(I->Src))                                                   \
    TNUMS_TRAP(UninitRead, "load via uninit reg");                             \
  uint64_t Addr = Regs[I->Src] + static_cast<int64_t>(I->Off);                 \
  const uint8_t *Ptr = spanAt(MemData, MemSize, StackData, Addr, N);           \
  if (!Ptr)                                                                    \
    TNUMS_TRAP(OutOfBounds,                                                    \
               formatString("load of %u bytes at 0x%llx out of bounds",        \
                            static_cast<unsigned>(N),                          \
                            static_cast<unsigned long long>(Addr)));           \
  uint64_t Value = 0;                                                          \
  for (unsigned B = 0; B != (N); ++B)                                          \
    Value |= static_cast<uint64_t>(Ptr[B]) << (8 * B);                         \
  Regs[I->Dst] = Value;                                                        \
  TNUMS_SET_INITED(I->Dst);

#define TNUMS_BODY_JMP_IMM64(CMP)                                              \
  if (!TNUMS_INITED(I->Dst))                                                   \
    TNUMS_TRAP(UninitRead, "jump on uninit reg");                              \
  if (TNUMS_CMP64_##CMP(Regs[I->Dst], I->Imm))                                 \
    TNUMS_JUMP(I->Target);

#define TNUMS_ARITH_HANDLERS(NAME)                                             \
  TNUMS_OP(NAME##Reg64) {                                                      \
    TNUMS_BODY_ALU_REG64(NAME)                                                 \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(NAME##Imm64) {                                                      \
    TNUMS_BODY_ALU_IMM64(NAME)                                                 \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(NAME##Reg32) {                                                      \
    if (!TNUMS_INITED(I->Src))                                                 \
      TNUMS_TRAP(UninitRead, "read of uninit reg");                            \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "read of uninit reg");                            \
    Regs[I->Dst] =                                                             \
        TNUMS_EVAL32_##NAME(static_cast<uint32_t>(Regs[I->Dst]),               \
                            static_cast<uint32_t>(Regs[I->Src]));              \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(NAME##Imm32) {                                                      \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "read of uninit reg");                            \
    Regs[I->Dst] = TNUMS_EVAL32_##NAME(static_cast<uint32_t>(Regs[I->Dst]),    \
                                       static_cast<uint32_t>(I->Imm));         \
    TNUMS_NEXT;                                                                \
  }

#define TNUMS_LOAD_HANDLER(N)                                                  \
  TNUMS_OP(Load##N) {                                                          \
    TNUMS_BODY_LOAD(N)                                                         \
    TNUMS_NEXT;                                                                \
  }

// Resolves a store's target like spanAt (context region first, then the
// stack) but widens the run's dirty stack range [DirtyLo, DirtyHi) when
// the write lands on the stack, so the next run() only re-zeroes what
// this one touched. Expands inside a store handler: declares Addr and
// Ptr, traps on out-of-bounds.
#define TNUMS_RESOLVE_STORE(N)                                                 \
  uint64_t Addr = Regs[I->Dst] + static_cast<int64_t>(I->Off);                 \
  uint8_t *Ptr;                                                                \
  if (Addr >= MemBase && (N) <= MemSize && Addr - MemBase <= MemSize - (N)) {  \
    Ptr = MemData + (Addr - MemBase);                                          \
  } else if (Addr >= StackBase - StackSize && Addr < StackBase &&              \
             Addr - (StackBase - StackSize) <= StackSize - (N)) {              \
    uint64_t SOff = Addr - (StackBase - StackSize);                            \
    Ptr = StackData + SOff;                                                    \
    if (SOff < DirtyLo)                                                        \
      DirtyLo = static_cast<uint32_t>(SOff);                                   \
    if (SOff + (N) > DirtyHi)                                                  \
      DirtyHi = static_cast<uint32_t>(SOff + (N));                             \
  } else {                                                                     \
    TNUMS_TRAP(OutOfBounds,                                                    \
               formatString("store of %u bytes at 0x%llx out of bounds",       \
                            static_cast<unsigned>(N),                          \
                            static_cast<unsigned long long>(Addr)));           \
  }

#define TNUMS_STORE_REG_HANDLER(N)                                             \
  TNUMS_OP(StoreReg##N) {                                                      \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "store via uninit reg");                          \
    if (!TNUMS_INITED(I->Src))                                                 \
      TNUMS_TRAP(UninitRead, "store of uninit reg");                           \
    TNUMS_RESOLVE_STORE(N)                                                     \
    uint64_t Value = Regs[I->Src];                                             \
    for (unsigned B = 0; B != (N); ++B)                                        \
      Ptr[B] = static_cast<uint8_t>(Value >> (8 * B));                         \
    TNUMS_NEXT;                                                                \
  }

#define TNUMS_STORE_IMM_HANDLER(N)                                             \
  TNUMS_OP(StoreImm##N) {                                                      \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "store via uninit reg");                          \
    TNUMS_RESOLVE_STORE(N)                                                     \
    uint64_t Value = I->Imm;                                                   \
    for (unsigned B = 0; B != (N); ++B)                                        \
      Ptr[B] = static_cast<uint8_t>(Value >> (8 * B));                         \
    TNUMS_NEXT;                                                                \
  }

// The four jump handlers for one CompareOp, the comparison fully inlined
// at the decoded width (no applyConcreteCompare call on the hot path).
// Init-check order mirrors Interpreter.cpp: Dst before Src.
#define TNUMS_JMP_HANDLERS(NAME)                                               \
  TNUMS_OP(Jmp##NAME##Reg64) {                                                 \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "jump on uninit reg");                            \
    if (!TNUMS_INITED(I->Src))                                                 \
      TNUMS_TRAP(UninitRead, "jump on uninit reg");                            \
    if (TNUMS_CMP64_##NAME(Regs[I->Dst], Regs[I->Src]))                        \
      TNUMS_JUMP(I->Target);                                                   \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(Jmp##NAME##Imm64) {                                                 \
    TNUMS_BODY_JMP_IMM64(NAME)                                                 \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(Jmp##NAME##Reg32) {                                                 \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "jump on uninit reg");                            \
    if (!TNUMS_INITED(I->Src))                                                 \
      TNUMS_TRAP(UninitRead, "jump on uninit reg");                            \
    if (TNUMS_CMP32_##NAME(Regs[I->Dst], Regs[I->Src]))                        \
      TNUMS_JUMP(I->Target);                                                   \
    TNUMS_NEXT;                                                                \
  }                                                                            \
  TNUMS_OP(Jmp##NAME##Imm32) {                                                 \
    if (!TNUMS_INITED(I->Dst))                                                 \
      TNUMS_TRAP(UninitRead, "jump on uninit reg");                            \
    if (TNUMS_CMP32_##NAME(Regs[I->Dst], I->Imm))                              \
      TNUMS_JUMP(I->Target);                                                   \
    TNUMS_NEXT;                                                                \
  }

//===----------------------------------------------------------------------===//
// Fused group handlers: body1 + TNUMS_FUSE + body2 + ... TNUMS_FUSE
// (defined by the includer) counts the finished instruction, advances I
// to the group's next record, and performs the same step-limit check an
// unfused dispatch would -- so a trap in a later slot reports that
// instruction's pc and step count, exactly as if each slot had been
// dispatched on its own.
//===----------------------------------------------------------------------===//

// <aluop> rd, imm; add rd2, imm2; jlt rd3, imm3, target
#define TNUMS_ALUIMM_ADDIMM_JMPLT_HANDLER(NAME)                                \
  TNUMS_OP(Fuse##NAME##ImmAddImmJmpLt) {                                       \
    TNUMS_BODY_ALU_IMM64(NAME)                                                 \
    TNUMS_FUSE;                                                                \
    TNUMS_BODY_ALU_IMM64(Add)                                                  \
    TNUMS_FUSE;                                                                \
    TNUMS_BODY_JMP_IMM64(Lt)                                                   \
    TNUMS_NEXT;                                                                \
  }

// A whole down-counting random-body loop iteration: jeq rd, imm, done;
// <aluop> rd2, imm2; add rd3, rs3; sub rd4, imm4; ja head.
#define TNUMS_DOWN_RAND_HANDLER(NAME)                                          \
  TNUMS_OP(FuseDownRand##NAME) {                                               \
    TNUMS_BODY_JMP_IMM64(Eq)                                                   \
    TNUMS_FUSE;                                                                \
    TNUMS_BODY_ALU_IMM64(NAME)                                                 \
    TNUMS_FUSE;                                                                \
    TNUMS_BODY_ALU_REG64(Add)                                                  \
    TNUMS_FUSE;                                                                \
    TNUMS_BODY_ALU_IMM64(Sub)                                                  \
    TNUMS_FUSE;                                                                \
    TNUMS_JUMP(I->Target);                                                     \
  }

} // namespace

bool tnums::bpf::threadedDispatchAvailable() { return true; }

uint8_t DecodedProgram::genericGroupOp(uint8_t FusedOp) {
  if (FusedOp == DFuseMaskedAccumJmpLtT)
    return DFuseMaskedAccumJmpLt;
  if (FusedOp == DFuseDownMaskedIterT)
    return DFuseDownMaskedIter;
  return FusedOp;
}

const char *tnums::bpf::dispatchModeName(DispatchMode Mode) {
  switch (Mode) {
  case DispatchMode::Auto:
    return "auto";
  case DispatchMode::Threaded:
    return "threaded";
  case DispatchMode::Switch:
    return "switch";
  }
  assert(false && "unknown dispatch mode");
  return "?";
}

std::optional<DecodedProgram> DecodedProgram::decode(const Program &Prog,
                                                     std::string &Error) {
  if (std::optional<std::string> Invalid = Prog.validate()) {
    Error = "structurally invalid program: " + *Invalid;
    return std::nullopt;
  }

  DecodedProgram D;
  D.Code.reserve(Prog.size());
  for (size_t Pc = 0; Pc != Prog.size(); ++Pc) {
    const Insn &In = Prog.insn(Pc);
    DInsn Out;
    Out.Dst = In.Dst;
    Out.Src = In.Src;
    Out.Off = In.Offset;
    Out.Imm = static_cast<uint64_t>(In.Imm);
    // Sizes are validated to {1,2,4,8}.
    unsigned LogSize = In.Size == 1 ? 0 : In.Size == 2 ? 1 : In.Size == 4 ? 2 : 3;
    switch (In.InsnKind) {
    case Insn::Kind::Alu:
      if (In.Alu == AluOp::Neg) {
        Out.Op = static_cast<uint8_t>(In.Is32 ? DNeg32 : DNeg64);
      } else if (In.Alu == AluOp::Mov) {
        Out.Op = static_cast<uint8_t>(DMovReg64 + (In.UsesImm ? 1 : 0) +
                                      (In.Is32 ? 2 : 0));
        if (In.UsesImm && In.Is32)
          Out.Imm = static_cast<uint32_t>(Out.Imm); // Truncate once, here.
      } else {
        Out.Op = static_cast<uint8_t>(static_cast<unsigned>(In.Alu) * 4 +
                                      (In.UsesImm ? 1 : 0) + (In.Is32 ? 2 : 0));
      }
      break;
    case Insn::Kind::LoadImm:
      Out.Op = static_cast<uint8_t>(DLoadImm);
      break;
    case Insn::Kind::Load:
      Out.Op = static_cast<uint8_t>(DLoad1 + LogSize);
      break;
    case Insn::Kind::Store:
      Out.Op =
          static_cast<uint8_t>((In.UsesImm ? DStoreImm1 : DStoreReg1) + LogSize);
      break;
    case Insn::Kind::Jmp:
      Out.Op = static_cast<uint8_t>(DJmpEqReg64 +
                                    static_cast<unsigned>(In.Cmp) * 4 +
                                    (In.UsesImm ? 1 : 0) + (In.Is32 ? 2 : 0));
      Out.Cmp = static_cast<uint8_t>(In.Cmp);
      Out.Target = static_cast<uint32_t>(Program::jumpTarget(Pc, In));
      break;
    case Insn::Kind::Ja:
      Out.Op = static_cast<uint8_t>(DJa);
      Out.Target = static_cast<uint32_t>(Program::jumpTarget(Pc, In));
      break;
    case Insn::Kind::Exit:
      Out.Op = static_cast<uint8_t>(DExit);
      break;
    }
    D.Code.push_back(Out);
  }

  // Greedy left-to-right superinstruction fusion: rewrite the first
  // record of a hot adjacent group to the fused opcode. The records
  // behind it are left untouched, so jumps into the middle of a group
  // execute them standalone; groups never overlap (a consumed record is
  // not considered as the start of another group). No two group shapes
  // can overlap, so the match order below does not matter.
  auto OpsAre = [&D](size_t Pc, std::initializer_list<uint8_t> Ops) {
    if (Pc + Ops.size() > D.Code.size())
      return false;
    for (uint8_t Op : Ops)
      if (D.Code[Pc++].Op != Op)
        return false;
    return true;
  };
  auto IsAluImm64 = [&D](size_t Pc) {
    return Pc < D.Code.size() && D.Code[Pc].Op < DMovReg64 &&
           (D.Code[Pc].Op & 3) == 1;
  };
  for (size_t Pc = 0; Pc + 2 < D.Code.size(); ++Pc) {
    // Widest groups first: whole generated loop iterations in a single
    // dispatch. Down-counting masked iteration (exit test, masked
    // byte-accumulate body, accumulate, decrement, back-edge) ...
    if (OpsAre(Pc, {DJmpEqImm64, DMovReg64, DAndImm64, DAddReg64, DLoad1,
                    DXorReg64, DAddReg64, DSubImm64, DJa})) {
      // When the register roles tie up the way genLoop emits them (scratch,
      // induction, base, loaded byte, accumulator all distinct, every slot
      // reading what the expected earlier slot wrote), the tied variant's
      // fast path can keep the chained values in locals. Anything else --
      // mutants, hand-written code -- runs the generic group.
      const DInsn *S = &D.Code[Pc];
      const uint8_t Ra = S[1].Dst, Rb = S[0].Dst, Rd = S[4].Dst, Re = S[5].Dst;
      const bool Tied = S[1].Src == Rb && S[2].Dst == Ra && S[3].Dst == Ra &&
                        S[4].Src == Ra && S[5].Src == Rd && S[6].Dst == Re &&
                        S[6].Src == Rb && S[7].Dst == Rb && S[3].Src != Ra &&
                        Ra != Rb && Ra != Rd && Ra != Re && Rb != Rd &&
                        Rb != Re && Rd != Re;
      D.Code[Pc].Op = static_cast<uint8_t>(Tied ? DFuseDownMaskedIterT
                                                : DFuseDownMaskedIter);
      Pc += 8;
      continue;
    }
    // ... up-counting masked iteration (masked byte-accumulate body,
    // induction increment, back-edge) ...
    if (OpsAre(Pc, {DMovReg64, DAndImm64, DAddReg64, DLoad1, DXorReg64,
                    DAddImm64, DJmpLtImm64})) {
      const DInsn *S = &D.Code[Pc];
      const uint8_t Ra = S[0].Dst, Rb = S[0].Src, Rd = S[3].Dst, Re = S[4].Dst;
      const bool Tied = S[1].Dst == Ra && S[2].Dst == Ra && S[3].Src == Ra &&
                        S[4].Src == Rd && S[5].Dst == Rb && S[6].Dst == Rb &&
                        S[2].Src != Ra && Ra != Rb && Ra != Rd && Ra != Re &&
                        Rb != Rd && Rb != Re && Rd != Re;
      D.Code[Pc].Op = static_cast<uint8_t>(Tied ? DFuseMaskedAccumJmpLtT
                                                : DFuseMaskedAccumJmpLt);
      Pc += 6;
      continue;
    }
    // ... and down-counting random-body iteration (exit test, one ALU
    // immediate, accumulate, decrement, back-edge).
    if (OpsAre(Pc, {DJmpEqImm64}) && IsAluImm64(Pc + 1) &&
        OpsAre(Pc + 2, {DAddReg64, DSubImm64, DJa})) {
      D.Code[Pc].Op =
          static_cast<uint8_t>(DFuseDownRandAdd + (D.Code[Pc + 1].Op >> 2));
      Pc += 4;
      continue;
    }
    // <aluop> rd, imm; add rd2, imm2; jlt rd3, imm3 -- an up-counting
    // loop's body + induction + back-edge, one dispatch per iteration.
    if (IsAluImm64(Pc) && OpsAre(Pc + 1, {DAddImm64, DJmpLtImm64})) {
      D.Code[Pc].Op =
          static_cast<uint8_t>(DFuseAddImmAddImmJmpLt + (D.Code[Pc].Op >> 2));
      Pc += 2;
    }
  }

  if (metricsEnabled()) {
    struct DecodeMetrics {
      Counter Programs{"tnums_decoded_programs_total"};
      Counter Insns{"tnums_decoded_insns_total"};
      Counter FusedHeads{"tnums_decoded_fused_heads_total"};
    };
    static DecodeMetrics M;
    uint64_t FusedHeads = 0;
    for (const DInsn &Rec : D.Code)
      if (Rec.Op >= FirstFusedOp)
        ++FusedHeads;
    M.Programs.add();
    M.Insns.add(D.Code.size());
    M.FusedHeads.add(FusedHeads);
  }
  return D;
}

//===----------------------------------------------------------------------===//
// The switch dispatcher: the second dispatch loop over the same handler
// bodies, which the differential tests hold the threaded one against.
//===----------------------------------------------------------------------===//

ExecResult DecodedProgram::runSwitch(std::vector<uint8_t> &Memory,
                                     uint64_t StepLimit) {
  ExecResult Result;
  uint64_t Regs[NumRegs] = {};
  if (StackLo < StackHi)
    std::memset(Stack.data() + StackLo, 0, StackHi - StackLo);
  uint32_t DirtyLo = StackSize, DirtyHi = 0;
  uint8_t *MemData = Memory.data();
  const uint64_t MemSize = Memory.size();
  uint8_t *StackData = Stack.data();
  Regs[R1] = MemBase;
  Regs[R2] = MemSize;
  Regs[R10] = StackBase;
  uint32_t InitMask = (1u << R1) | (1u << R2) | (1u << R10);

  const DInsn *const IBase = Code.data();
  const DInsn *I = IBase;
  uint64_t Executed = 0;

#define TNUMS_PC (static_cast<size_t>(I - IBase))
Dispatch:
  if (Executed == StepLimit) {
    Result.St = ExecResult::Status::StepLimit;
    Result.FaultPc = TNUMS_PC;
    Result.Steps = Executed;
    Result.Message = "step limit exhausted";
    goto Done;
  }
  switch (static_cast<DOp>(I->Op)) {
#define TNUMS_OP(Name) case D##Name:
#define TNUMS_NEXT                                                             \
  do {                                                                         \
    ++Executed;                                                                \
    ++I;                                                                       \
    goto Dispatch;                                                             \
  } while (0)
#define TNUMS_JUMP(T)                                                          \
  do {                                                                         \
    ++Executed;                                                                \
    I = IBase + (T);                                                           \
    goto Dispatch;                                                             \
  } while (0)
#define TNUMS_TRAP(St_, Msg_)                                                  \
  do {                                                                         \
    Result.St = ExecResult::Status::St_;                                       \
    Result.FaultPc = TNUMS_PC;                                                 \
    Result.Steps = Executed + 1;                                               \
    Result.Message = (Msg_);                                                   \
    goto Done;                                                                 \
  } while (0)
#define TNUMS_DONE goto Done
#define TNUMS_FUSE                                                             \
  do {                                                                         \
    ++Executed;                                                                \
    ++I;                                                                       \
    if (Executed == StepLimit)                                                 \
      goto Dispatch;                                                           \
  } while (0)
// The switch dispatcher has no profitable way to express the tied fast
// paths (no fall-through into another handler's label), so the tied
// opcodes stack onto their generic group's case -- semantically the
// same records, executed slot by slot.
#define TNUMS_TIED_MASKED_ACCUM_JMPLT
#define TNUMS_TIED_DOWN_MASKED_ITER
#include "bpf/DecodedBody.inc"
#undef TNUMS_OP
#undef TNUMS_NEXT
#undef TNUMS_JUMP
#undef TNUMS_TRAP
#undef TNUMS_DONE
#undef TNUMS_FUSE
#undef TNUMS_TIED_MASKED_ACCUM_JMPLT
#undef TNUMS_TIED_DOWN_MASKED_ITER
  }
  // Unreachable for decode()-produced code; refuse corrupt opcodes.
  Result.St = ExecResult::Status::InvalidProgram;
  Result.FaultPc = TNUMS_PC;
  Result.Steps = Executed;
  Result.Message = "corrupt decoded opcode";
#undef TNUMS_PC

Done:
  std::memcpy(this->Regs.data(), Regs, sizeof(Regs));
  LastInitMask = InitMask;
  StackLo = DirtyLo;
  StackHi = DirtyHi;
  return Result;
}

//===----------------------------------------------------------------------===//
// The computed-goto threaded dispatcher, run() by default. Same handler
// bodies, dispatched through a label table indexed by opcode, so each
// handler jumps straight to the next one with no central branch.
//===----------------------------------------------------------------------===//

ExecResult DecodedProgram::runThreaded(std::vector<uint8_t> &Memory,
                                       uint64_t StepLimit) {
  static const void *const Table[] = {
#define TNUMS_DOP_LABEL(Name) &&L_##Name,
      TNUMS_DOP_LIST(TNUMS_DOP_LABEL)
#undef TNUMS_DOP_LABEL
  };

  ExecResult Result;
  uint64_t Regs[NumRegs] = {};
  if (StackLo < StackHi)
    std::memset(Stack.data() + StackLo, 0, StackHi - StackLo);
  uint32_t DirtyLo = StackSize, DirtyHi = 0;
  uint8_t *MemData = Memory.data();
  const uint64_t MemSize = Memory.size();
  uint8_t *StackData = Stack.data();
  Regs[R1] = MemBase;
  Regs[R2] = MemSize;
  Regs[R10] = StackBase;
  uint32_t InitMask = (1u << R1) | (1u << R2) | (1u << R10);

  const DInsn *const IBase = Code.data();
  const DInsn *I = IBase;
  uint64_t Executed = 0;

#define TNUMS_PC (static_cast<size_t>(I - IBase))
#define TNUMS_OP(Name) L_##Name:
#define TNUMS_DISPATCH()                                                       \
  do {                                                                         \
    if (Executed == StepLimit)                                                 \
      goto StepLimitHit;                                                       \
    goto *Table[I->Op];                                                        \
  } while (0)
#define TNUMS_NEXT                                                             \
  do {                                                                         \
    ++Executed;                                                                \
    ++I;                                                                       \
    TNUMS_DISPATCH();                                                          \
  } while (0)
#define TNUMS_JUMP(T)                                                          \
  do {                                                                         \
    ++Executed;                                                                \
    I = IBase + (T);                                                           \
    TNUMS_DISPATCH();                                                          \
  } while (0)
#define TNUMS_TRAP(St_, Msg_)                                                  \
  do {                                                                         \
    Result.St = ExecResult::Status::St_;                                       \
    Result.FaultPc = TNUMS_PC;                                                 \
    Result.Steps = Executed + 1;                                               \
    Result.Message = (Msg_);                                                   \
    goto Done;                                                                 \
  } while (0)
#define TNUMS_DONE goto Done
#define TNUMS_FUSE                                                             \
  do {                                                                         \
    ++Executed;                                                                \
    ++I;                                                                       \
    if (Executed == StepLimit)                                                 \
      goto StepLimitHit;                                                       \
  } while (0)

// Fast paths for the tied whole-iteration opcodes (decode() proved the
// register roles distinct and chained exactly as genLoop emits them, so
// the chained values live in locals instead of round-tripping through
// Regs[], and one step-headroom test replaces the per-slot TNUMS_FUSE
// checks). Nothing is committed before the last possible trap point; any
// condition the fast path cannot take -- step limit close, an operand
// register uninitialized, the load out of bounds -- falls through to the
// generic group handler directly below, which re-executes the same
// records slot by slot with bit-identical trap attribution.
#define TNUMS_TIED_MASKED_ACCUM_JMPLT                                          \
  do {                                                                         \
    if (StepLimit - Executed < 7)                                              \
      break;                                                                   \
    if (!TNUMS_INITED(I->Src) || !TNUMS_INITED(I[2].Src) ||                    \
        !TNUMS_INITED(I[4].Dst))                                               \
      break;                                                                   \
    const uint64_t VB = Regs[I->Src];                                          \
    const uint64_t VA = (VB & I[1].Imm) + Regs[I[2].Src];                      \
    const uint64_t Addr = VA + static_cast<int64_t>(I[3].Off);                 \
    const uint8_t *Ptr = spanAt(MemData, MemSize, StackData, Addr, 1);         \
    if (!Ptr)                                                                  \
      break;                                                                   \
    const uint64_t VD = Ptr[0];                                                \
    Regs[I->Dst] = VA;                                                         \
    Regs[I[3].Dst] = VD;                                                       \
    Regs[I[4].Dst] ^= VD;                                                      \
    const uint64_t VB2 = VB + I[5].Imm;                                        \
    Regs[I[5].Dst] = VB2;                                                      \
    InitMask |= (1u << I->Dst) | (1u << I[3].Dst);                             \
    Executed += 7;                                                             \
    I = VB2 < I[6].Imm ? IBase + I[6].Target : I + 7;                          \
    TNUMS_DISPATCH();                                                          \
  } while (0);
#define TNUMS_TIED_DOWN_MASKED_ITER                                            \
  do {                                                                         \
    if (StepLimit - Executed < 9)                                              \
      break;                                                                   \
    if (!TNUMS_INITED(I->Dst) || !TNUMS_INITED(I[3].Src) ||                    \
        !TNUMS_INITED(I[5].Dst))                                               \
      break;                                                                   \
    const uint64_t VB = Regs[I->Dst];                                          \
    if (VB == I->Imm) {                                                        \
      ++Executed;                                                              \
      I = IBase + I->Target;                                                   \
      TNUMS_DISPATCH();                                                        \
    }                                                                          \
    const uint64_t VA = (VB & I[2].Imm) + Regs[I[3].Src];                      \
    const uint64_t Addr = VA + static_cast<int64_t>(I[4].Off);                 \
    const uint8_t *Ptr = spanAt(MemData, MemSize, StackData, Addr, 1);         \
    if (!Ptr)                                                                  \
      break;                                                                   \
    const uint64_t VD = Ptr[0];                                                \
    Regs[I[1].Dst] = VA;                                                       \
    Regs[I[4].Dst] = VD;                                                       \
    Regs[I[5].Dst] = (Regs[I[5].Dst] ^ VD) + VB;                               \
    Regs[I[7].Dst] = VB - I[7].Imm;                                            \
    InitMask |= (1u << I[1].Dst) | (1u << I[4].Dst);                           \
    Executed += 9;                                                             \
    I = IBase + I[8].Target;                                                   \
    TNUMS_DISPATCH();                                                          \
  } while (0);

  TNUMS_DISPATCH();

#include "bpf/DecodedBody.inc"

#undef TNUMS_OP
#undef TNUMS_DISPATCH
#undef TNUMS_NEXT
#undef TNUMS_JUMP
#undef TNUMS_TRAP
#undef TNUMS_DONE
#undef TNUMS_FUSE
#undef TNUMS_TIED_MASKED_ACCUM_JMPLT
#undef TNUMS_TIED_DOWN_MASKED_ITER

StepLimitHit:
  Result.St = ExecResult::Status::StepLimit;
  Result.FaultPc = TNUMS_PC;
  Result.Steps = Executed;
  Result.Message = "step limit exhausted";
#undef TNUMS_PC

Done:
  std::memcpy(this->Regs.data(), Regs, sizeof(Regs));
  LastInitMask = InitMask;
  StackLo = DirtyLo;
  StackHi = DirtyHi;
  return Result;
}

ExecResult DecodedProgram::run(std::vector<uint8_t> &Memory,
                               uint64_t StepLimit, DispatchMode Mode) {
  if (Code.empty()) {
    // A default-constructed DecodedProgram; decode() refuses empty
    // programs (validate() requires a terminator), so this is the only
    // way here.
    ExecResult Result;
    Result.St = ExecResult::Status::InvalidProgram;
    Result.Message = "empty decoded program";
    return Result;
  }
  if (Mode == DispatchMode::Switch)
    return runSwitch(Memory, StepLimit);
  return runThreaded(Memory, StepLimit);
}
