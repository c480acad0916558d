//===- bpf/Decoded.h - Pre-decoded threaded-dispatch executor ---*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzz oracle's fast concrete executor: a one-time decode() pass
/// lowers each Insn into a flat array of resolved handler + operand
/// records -- imm vs reg forms pre-split, 64/32-bit widths and memory
/// access sizes specialized into distinct opcodes, jump targets
/// pre-computed via Program::jumpTarget -- so the hot loop never
/// re-inspects Insn::Kind, UsesImm, Is32, or Size. decode() then fuses
/// the generated loops' hot groups (whole iterations and three-instruction
/// bodies) into superinstructions, one dispatch per group; the group
/// matcher in decode() is the only fusion mechanism. Dispatch is
/// computed-goto threaded (the build requires GCC or Clang). A switch loop
/// over the same handler bodies is the second dispatcher, selectable per
/// run, so the differential tests can pin the two against each other and
/// against the legacy Interpreter.
///
/// The payoff the fuzzer cares about: one DecodedProgram executes many
/// random input memories through run(Memory) without re-copying the
/// Program or re-decoding anything per run (the legacy Interpreter ctor
/// takes the program by value on every run).
///
/// Determinism contract: run() is bit-identical to Interpreter::run on
/// the same (program, memory, step limit) -- same Status, ReturnValue,
/// ExitPc, FaultPc, Steps, Message, final register file, init flags, and
/// memory contents, in both dispatch modes. The machine model (synthetic
/// MemBase/StackBase addressing, 512-byte zeroed stack, BPF div/mod/shift
/// conventions, uninitialized-register tracking) is shared via Insn.h
/// constants; tests/InterpreterDifferentialTest.cpp locks the contract
/// over every generator profile.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_DECODED_H
#define TNUMS_BPF_DECODED_H

#include "bpf/Interpreter.h"
#include "bpf/Program.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tnums {
namespace bpf {

/// How run() dispatches decoded handlers.
enum class DispatchMode : uint8_t {
  Auto,     ///< Threaded.
  Threaded, ///< Computed-goto dispatch.
  Switch,   ///< Switch loop over the same handler bodies: the second
            ///< dispatcher the differential tests hold Threaded against.
};

/// Always true: every supported compiler (GCC, Clang) has computed goto.
/// Kept for the benchmarks that report it.
bool threadedDispatchAvailable();

/// Stable lower-case mode name ("auto", "threaded", "switch").
const char *dispatchModeName(DispatchMode Mode);

/// A program lowered to directly executable records. Decode once, run on
/// as many input memories as you like.
class DecodedProgram {
public:
  /// One lowered instruction. Opcode values are internal to the executor
  /// (Decoded.cpp); the record is exposed only so tests can assert on the
  /// decoded shape.
  struct DInsn {
    uint64_t Imm = 0;    ///< Pre-extended immediate operand.
    int32_t Off = 0;     ///< Memory access offset.
    uint32_t Target = 0; ///< Pre-computed jump target.
    uint8_t Op = 0;      ///< Specialized opcode.
    uint8_t Dst = 0;
    uint8_t Src = 0;
    uint8_t Cmp = 0;     ///< CompareOp for conditional jumps.
  };

  /// The fused opcode range (tests only): decode() writes an opcode in
  /// [FirstFusedOp, OpCount) to the first record of each fused group.
  static constexpr uint8_t FirstFusedOp = 109;
  static constexpr uint8_t OpCount = 135;

  /// The opcode whose handler runs \p FusedOp's group slot by slot (tests
  /// only): the generic group for a tied fast-path variant, which falls
  /// back to it, else \p FusedOp itself.
  static uint8_t genericGroupOp(uint8_t FusedOp);

  DecodedProgram() = default;

  /// Lowers \p Prog. Structurally invalid programs are refused with the
  /// validation diagnostic in \p Error -- the corpus-replay entry point,
  /// so a real error, not an assert.
  static std::optional<DecodedProgram> decode(const Program &Prog,
                                              std::string &Error);

  /// Executes over \p Memory (read and written in place) from a fresh
  /// machine state: zeroed stack, R1 = MemBase, R2 = Memory.size(),
  /// R10 = StackBase. Reusable: each call is independent.
  ExecResult run(std::vector<uint8_t> &Memory, uint64_t StepLimit = 1 << 20,
                 DispatchMode Mode = DispatchMode::Auto);

  /// Register file after the last run() (for differential inspection).
  const std::array<uint64_t, NumRegs> &registers() const { return Regs; }

  /// Per-register initialization flags after the last run(). The run
  /// loops keep the flags as a bitmask; this expands it on demand so the
  /// hot path never pays the per-register copy-out.
  const std::array<bool, NumRegs> &initialized() const {
    for (unsigned R = 0; R != NumRegs; ++R)
      Inited[R] = (LastInitMask >> R) & 1u;
    return Inited;
  }

  /// Decoded record count (== source program size).
  size_t size() const { return Code.size(); }

  /// The lowered records (tests only).
  const std::vector<DInsn> &code() const { return Code; }

private:
  ExecResult runSwitch(std::vector<uint8_t> &Memory, uint64_t StepLimit);
  ExecResult runThreaded(std::vector<uint8_t> &Memory, uint64_t StepLimit);

  std::vector<DInsn> Code;
  std::array<uint8_t, StackSize> Stack = {};
  /// Dirty stack byte range [StackLo, StackHi) left by the previous run();
  /// the next run() re-zeroes only this span instead of the whole stack.
  /// Store handlers maintain it, so a program that never spills (the
  /// common generated case) pays nothing. Starts empty: the array
  /// initializer above already zeroed the stack.
  uint32_t StackLo = StackSize;
  uint32_t StackHi = 0;
  std::array<uint64_t, NumRegs> Regs = {};
  /// Register-init flags of the last run(), as the executor's bitmask;
  /// initialized() expands it into Inited on demand.
  uint32_t LastInitMask = 0;
  mutable std::array<bool, NumRegs> Inited = {};
};

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_DECODED_H
