//===- perfbench/src/Exec.cpp - The exec workload -------------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// exec: a seeded program set (256 programs from each of the six families,
/// accepted or not) is decoded once in set-up, then every program runs on
/// its 16 seeded memories with DecodedProgram::run and default dispatch.
/// Whole passes over the set repeat until the time budget is spent. Only
/// this workload runs the executor: dispatch and the fused handlers do the
/// work. Programs that store stage a fresh copy of their input per run;
/// store-free programs run on the input directly.
///
/// Oracle (outside the timed region): each run's status, r0 and memory
/// digest equal the legacy Interpreter's on the same input, and every
/// timed pass has the first pass's checksum.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "bpf/Decoded.h"
#include "bpf/Interpreter.h"
#include "support/Checkpoint.h"

#include <optional>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace perfbench {
namespace {

constexpr unsigned ProgramsPerFamily = 256;
constexpr unsigned MemoriesPerProgram = 16;
constexpr uint64_t StepLimit = 1 << 20;

const char *const FamilySpan[NumFamilies] = {
    "bpf.exec.alu",   "bpf.exec.bounds",  "bpf.exec.packet",
    "bpf.exec.loops", "bpf.exec.maskidx", "bpf.exec.scaled"};

/// The decoded program set with its pristine inputs, grouped by family.
struct ExecSet {
  std::vector<Program> Programs;
  std::vector<uint8_t> Family;
  std::vector<uint8_t> HasStore;
  std::vector<DecodedProgram> Decoded;
  /// Memories[P * MemoriesPerProgram + Run].
  std::vector<std::vector<uint8_t>> Memories;
};

void generate(uint64_t Seed, ExecSet &Set) {
  Set = ExecSet();
  for (unsigned F = 0; F != NumFamilies; ++F) {
    ProgramGen Gen(Seed * 0xD1B54A32D192ED03ull + F,
                   GenOptions{Families[F], RegionBytes});
    for (unsigned I = 0; I != ProgramsPerFamily; ++I) {
      Set.Programs.push_back(Gen.next());
      Set.Family.push_back(static_cast<uint8_t>(F));
    }
  }
  for (size_t P = 0; P != Set.Programs.size(); ++P) {
    uint8_t Store = 0;
    for (size_t Pc = 0; Pc != Set.Programs[P].size(); ++Pc)
      Store |= Set.Programs[P].insn(Pc).InsnKind == Insn::Kind::Store;
    Set.HasStore.push_back(Store);
    for (unsigned Run = 0; Run != MemoriesPerProgram; ++Run)
      Set.Memories.push_back(seededMemory(Seed, P, Run));
  }
}

bool decode(ExecSet &Set, std::string &Error) {
  Set.Decoded.clear();
  for (const Program &P : Set.Programs) {
    std::optional<DecodedProgram> D = DecodedProgram::decode(P, Error);
    if (!D)
      return false;
    Set.Decoded.push_back(std::move(*D));
  }
  return true;
}

/// Whole passes until \p Budget seconds are spent.
struct PassRuns {
  double Seconds = 0;
  uint64_t Runs = 0;
  unsigned Passes = 0;
  unsigned BadPasses = 0; ///< Passes whose checksum differs from the first.
  uint64_t FirstChecksum = 0;
  double FamilySeconds[NumFamilies] = {};
  std::vector<double> PassRates; ///< Runs per second of each pass.
};

PassRuns runPasses(ExecSet &Set, DispatchMode Mode, bool Legacy,
                   double Budget, SpanLog *Log, int32_t Root) {
  PassRuns Runs;
  std::vector<uint8_t> Work;
  while (Runs.Seconds < Budget || Runs.Passes == 0) {
    uint64_t Checksum = 0, Start = nowNs();
    size_t P = 0;
    for (unsigned F = 0; F != NumFamilies; ++F) {
      ScopedSpan S(Log, FamilySpan[F], Root);
      uint64_t FamilyStart = nowNs();
      for (; P != Set.Programs.size() && Set.Family[P] == F; ++P) {
        for (unsigned Run = 0; Run != MemoriesPerProgram; ++Run) {
          std::vector<uint8_t> &Input =
              Set.Memories[P * MemoriesPerProgram + Run];
          ExecResult R;
          if (Legacy) {
            Work = Input;
            Interpreter Interp(Set.Programs[P], Work);
            R = Interp.run(StepLimit);
          } else if (Set.HasStore[P]) {
            Work = Input;
            R = Set.Decoded[P].run(Work, StepLimit, Mode);
          } else {
            R = Set.Decoded[P].run(Input, StepLimit, Mode);
          }
          Checksum ^= R.ReturnValue + 0x9E3779B97F4A7C15ull * R.Steps +
                      static_cast<uint64_t>(R.St) + P * 0x100000001B3ull;
        }
      }
      Runs.FamilySeconds[F] += secondsSince(FamilyStart);
    }
    double Seconds = secondsSince(Start);
    Runs.Seconds += Seconds;
    Runs.Runs += Set.Programs.size() * MemoriesPerProgram;
    Runs.PassRates.push_back(
        static_cast<double>(Set.Programs.size() * MemoriesPerProgram) /
        Seconds);
    if (Runs.Passes++ == 0)
      Runs.FirstChecksum = Checksum;
    Runs.BadPasses += Checksum != Runs.FirstChecksum;
  }
  return Runs;
}

uint64_t memoryDigest(const std::vector<uint8_t> &Mem) {
  Fnv1a Hash;
  for (uint8_t Byte : Mem)
    Hash.mixByte(Byte);
  return Hash.digest();
}

/// Runs every (program, memory) under both engines. Returns the number of
/// runs whose status, r0 or memory digest differ; fills the decoded
/// engine's result digest and the exact step count of one pass.
uint64_t checkAgainstLegacy(ExecSet &Set, uint64_t &ResultDigest,
                            uint64_t &Steps) {
  uint64_t Mismatches = 0;
  Fnv1a Digest;
  Steps = 0;
  std::vector<uint8_t> LegacyMem, DecodedMem;
  for (size_t P = 0; P != Set.Programs.size(); ++P)
    for (unsigned Run = 0; Run != MemoriesPerProgram; ++Run) {
      const std::vector<uint8_t> &Input =
          Set.Memories[P * MemoriesPerProgram + Run];
      LegacyMem = Input;
      DecodedMem = Input;
      Interpreter Interp(Set.Programs[P], LegacyMem);
      ExecResult L = Interp.run(StepLimit);
      ExecResult D = Set.Decoded[P].run(DecodedMem, StepLimit);
      uint64_t DecodedDigest = memoryDigest(DecodedMem);
      Mismatches += L.St != D.St || L.ReturnValue != D.ReturnValue ||
                    memoryDigest(LegacyMem) != DecodedDigest;
      Digest.mixU64(static_cast<uint64_t>(D.St));
      Digest.mixU64(D.ReturnValue);
      Digest.mixU64(DecodedDigest);
      Steps += D.Steps;
    }
  ResultDigest = Digest.digest();
  return Mismatches;
}

} // namespace

Outcome runExec(const Options &Opts) {
  Outcome Out;
  ExecSet Set;
  std::string Error;
  std::vector<double> Setups, Gens, Decodes;
  uint64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    uint64_t Start = nowNs();
    generate(Opts.Seed, Set);
    uint64_t Generated = nowNs();
    if (!decode(Set, Error)) {
      Out.OracleOk = false;
      Out.info("error", "decode: " + Error);
      return Out;
    }
    Gens.push_back(static_cast<double>(Generated - Start) * 1e-9);
    Decodes.push_back(secondsSince(Generated));
    Setups.push_back(secondsSince(Start));
  }
  Out.SetupS = median(Setups);

  double Budget = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  PassRuns Runs =
      runPasses(Set, DispatchMode::Auto, false, Budget, nullptr, -1);
  Out.ThroughputPerS = median(Runs.PassRates);

  uint64_t ResultDigest = 0, Steps = 0;
  uint64_t Mismatches = checkAgainstLegacy(Set, ResultDigest, Steps);
  uint64_t PerPass = Set.Programs.size() * MemoriesPerProgram;
  Out.Attempted = Runs.Runs;
  Out.Failed = Mismatches * Runs.Passes + Runs.BadPasses * PerPass;
  Out.info("fingerprint.result", hex64(ResultDigest));
  Out.info("set", std::to_string(Set.Programs.size()) + " programs x " +
                      std::to_string(MemoriesPerProgram) + " memories, " +
                      std::to_string(Runs.Passes) + " passes");
  if (!Opts.Trace)
    return Out;

  SpanLog Log;
  int32_t Root = Log.open("workload.exec", -1);
  PassRuns Traced =
      runPasses(Set, DispatchMode::Auto, false, Budget, &Log, Root);
  Log.close(Root);
  Out.Attempted += Traced.Runs;
  Out.Failed += Mismatches * Traced.Passes + Traced.BadPasses * PerPass;
  double TracedRate = median(Traced.PassRates);
  Out.layer("trace.overhead_frac", Out.ThroughputPerS / TracedRate - 1,
            "ratio");
  Out.layer("trace.unattributed_frac", Log.uncoveredFraction(Root), "ratio");
  Out.layer("memories_per_s", Out.ThroughputPerS, "1/s");
  Out.layer("service.gen.s", median(Gens), "s");
  Out.layer("bpf.decode.s", median(Decodes), "s");
  Out.layer("bpf.exec.steps", static_cast<double>(Steps), "count");
  Out.layer("bpf.exec.ns_per_step",
            Runs.Seconds * 1e9 /
                (static_cast<double>(Steps) * Runs.Passes),
            "ns");
  double FamilyRuns =
      static_cast<double>(ProgramsPerFamily) * MemoriesPerProgram;
  for (unsigned F = 0; F != NumFamilies; ++F)
    Out.layer(std::string(FamilySpan[F]) + ".memories_per_s",
              FamilyRuns * Traced.Passes / Traced.FamilySeconds[F], "1/s");

  // The other engines on the same set: switch dispatch and the legacy
  // interpreter (which copies the program and the input per run).
  double ProbeBudget = Opts.Seconds / 8;
  int32_t Probe = Log.open("probe.exec", -1);
  PassRuns Switch =
      runPasses(Set, DispatchMode::Switch, false, ProbeBudget, &Log, Probe);
  PassRuns Legacy =
      runPasses(Set, DispatchMode::Auto, true, ProbeBudget, &Log, Probe);
  Log.close(Probe);
  Out.OracleOk = Switch.FirstChecksum == Runs.FirstChecksum &&
                 Legacy.FirstChecksum == Runs.FirstChecksum &&
                 Switch.BadPasses + Legacy.BadPasses == 0;
  Out.layer("bpf.exec.switch.memories_per_s", median(Switch.PassRates),
            "1/s");
  Out.layer("bpf.interp.memories_per_s", median(Legacy.PassRates), "1/s");

  std::string TracePath =
      Opts.WorkDir + "/trace-exec-" + std::to_string(Opts.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    Out.info("trace.file", TracePath);
  return Out;
}

} // namespace perfbench
