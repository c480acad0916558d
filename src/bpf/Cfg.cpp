//===- bpf/Cfg.cpp - Instruction-level control-flow graph -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Cfg.h"

#include <algorithm>

using namespace tnums;
using namespace tnums::bpf;

size_t Cfg::successorsOf(size_t Pc, size_t Out[2]) const {
  const Insn &I = Prog->insn(Pc);
  switch (I.InsnKind) {
  case Insn::Kind::Exit:
    return 0;
  case Insn::Kind::Ja:
    Out[0] = Program::jumpTarget(Pc, I);
    return 1;
  case Insn::Kind::Jmp:
    Out[0] = Pc + 1; // Fall-through first.
    Out[1] = Program::jumpTarget(Pc, I);
    return Out[1] != Pc + 1 ? 2 : 1;
  default:
    Out[0] = Pc + 1;
    return 1;
  }
}

std::vector<size_t> Cfg::successors(size_t Pc) const {
  size_t Out[2];
  return std::vector<size_t>(Out, Out + successorsOf(Pc, Out));
}

std::vector<size_t> Cfg::predecessors(size_t Pc) const {
  std::vector<size_t> Preds;
  size_t Out[2];
  for (size_t From = 0, N = size(); From != N; ++From) {
    size_t NumSuccs = successorsOf(From, Out);
    if (std::find(Out, Out + NumSuccs, Pc) != Out + NumSuccs)
      Preds.push_back(From);
  }
  return Preds;
}

void Cfg::rebuild(const Program &ProgV) {
  assert(!ProgV.validate() && "building CFG of an invalid program");
  Prog = &ProgV;
  // Iterative DFS from entry computing post-order and back-edge (loop)
  // detection, visiting successors in successors() order. The order and
  // traversal scratch are assigned in place, so a long-lived engine stops
  // allocating after its high-water program.
  Colors.assign(ProgV.size(), Color::White);
  Rpo.clear();
  Loop = false;
  Stack.clear();
  Stack.emplace_back(0, 0);
  Colors[0] = Color::Grey;
  size_t Out[2];
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    if (NextSucc < successorsOf(Node, Out)) {
      size_t Succ = Out[NextSucc++];
      if (Colors[Succ] == Color::Grey)
        Loop = true;
      if (Colors[Succ] == Color::White) {
        Colors[Succ] = Color::Grey;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    Colors[Node] = Color::Black;
    Rpo.push_back(Node); // Post-order, reversed below.
    Stack.pop_back();
  }
  std::reverse(Rpo.begin(), Rpo.end());
}
