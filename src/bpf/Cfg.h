//===- bpf/Cfg.h - Instruction-level control-flow graph ---------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow structure over a validated program, at instruction
/// granularity (every instruction is a node, like the kernel verifier's
/// per-insn state table). Provides the reverse post-order the analyzer's
/// fixpoint iterates in, reachability, loop detection, and on-demand
/// successor/predecessor queries.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_BPF_CFG_H
#define TNUMS_BPF_CFG_H

#include "bpf/Program.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace tnums {
namespace bpf {

/// Iteration order and reachability for one program. Only the reverse
/// post-order is stored; edges are recomputed from the program on demand.
class Cfg {
public:
  /// An empty CFG; call rebuild() before use.
  Cfg() = default;

  /// Builds the CFG of \p Prog (which must validate()).
  explicit Cfg(const Program &Prog) { rebuild(Prog); }

  /// Rebuilds the CFG for \p Prog (which must validate()), recycling the
  /// order and traversal storage of the previous program. This is what
  /// lets a long-lived analysis engine (service/VerificationService.h)
  /// process a stream of programs without reallocating for each one.
  /// \p Prog must outlive later successors()/predecessors() queries.
  void rebuild(const Program &Prog);

  /// Successor instruction indices of \p Pc: empty for exit, one entry for
  /// straight-line/ja, two for conditional jumps (fall-through first, then
  /// the taken target).
  std::vector<size_t> successors(size_t Pc) const;

  /// Predecessor instruction indices of \p Pc, ascending. Computed by
  /// scanning every instruction's successors: O(size()) per call.
  std::vector<size_t> predecessors(size_t Pc) const;

  /// Instructions reachable from entry, in reverse post-order.
  const std::vector<size_t> &reversePostOrder() const { return Rpo; }

  /// True if \p Pc is reachable from the entry instruction.
  bool isReachable(size_t Pc) const { return Colors[Pc] != Color::White; }

  /// True if some reachable cycle exists (the program loops).
  bool hasLoop() const { return Loop; }

  /// Instruction count of the current program.
  size_t size() const { return Colors.size(); }

private:
  /// Writes the successors of \p Pc into \p Out in the order successors()
  /// returns them; returns how many there are (0 to 2).
  size_t successorsOf(size_t Pc, size_t Out[2]) const;

  const Program *Prog = nullptr;
  std::vector<size_t> Rpo;
  bool Loop = false;

  /// DFS colour per instruction; anything but White was reached. Sized
  /// to the program, recycled by rebuild() along with Stack.
  enum class Color : uint8_t { White, Grey, Black };
  std::vector<Color> Colors;
  /// rebuild()'s DFS frames: (node, next successor index to visit).
  std::vector<std::pair<size_t, size_t>> Stack;
};

} // namespace bpf
} // namespace tnums

#endif // TNUMS_BPF_CFG_H
