//===- bpf/Verifier.cpp - BPF safety verifier -----------------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "bpf/Verifier.h"

#include "support/Table.h"

using namespace tnums;
using namespace tnums::bpf;

VerifierReport tnums::bpf::verifyProgram(const Program &Prog,
                                         uint64_t MemSize,
                                         Analyzer::Options Opts) {
  VerifierReport Report;
  if (std::optional<std::string> Error = Prog.validate()) {
    Report.StructuralError = *Error;
    return Report;
  }
  Opts.MemSize = MemSize;
  Analyzer A(Prog, Opts);
  AnalysisResult Result = A.analyze();
  Report.Accepted = Result.accepted();
  Report.Violations = std::move(Result.Violations);
  Report.InStates = A.inStates();
  return Report;
}

std::string VerifierReport::toString(const Program &Prog) const {
  if (!StructuralError.empty())
    return formatString("rejected (structural): %s\n",
                        StructuralError.c_str());
  std::string Text;
  for (size_t Pc = 0; Pc != Prog.size(); ++Pc) {
    if (Pc < InStates.size())
      Text += formatString("      ; %s\n", InStates[Pc].toString().c_str());
    Text += formatString("%4zu: %s\n", Pc, Prog.insn(Pc).toString().c_str());
    for (const Violation &V : Violations)
      if (V.Pc == Pc)
        Text += formatString("      ^ violation: %s\n", V.Message.c_str());
  }
  Text += Accepted ? "verdict: ACCEPTED\n" : "verdict: REJECTED\n";
  return Text;
}
