//===- bench/interpreter_throughput.cpp - Concrete-executor speed ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput harness for the fuzz oracle's concrete executors: the same
/// seeded program stream and input memories are driven through the legacy
/// per-run Interpreter (construct + switch loop per memory, the pattern
/// the fuzzer used before pre-decoding) and the DecodedProgram executor
/// in both dispatch modes, reporting memories/s per engine and the
/// speedup over legacy.
///
/// Before timing anything, a differential pass runs every (program, run)
/// through all engines and requires bit-identical results -- status,
/// return value, ExitPc/FaultPc, step counts, messages, final register
/// file, init flags, and memory contents. The campaign-wide FNV-1a
/// digest of those results is machine-independent and exact, so CI gates
/// it against the committed baseline while holding throughput only to a
/// generous floor (ci/compare_bench.py, gate "interpreter_throughput").
///
/// Timing discipline for noisy machines: each engine's full pass is
/// repeated --reps times and the fastest pass is reported (min-of-K
/// rejects scheduler interference, which only ever slows a run down).
/// The legacy engine reproduces the historical fuzz-oracle pattern
/// exactly, including its unconditional per-run staging copy of the
/// input memory (the pre-decode harness had no store scan). The decoded
/// engines additionally skip the staging copy for store-free programs,
/// which cannot modify the input memory -- a capability the pre-decoded
/// harness makes practical and DifferentialFuzz now uses.
///
/// Usage: interpreter_throughput [--programs N] [--runs N] [--seed S]
///                               [--profile P] [--mem N] [--steps N]
///                               [--reps N] [--json FILE] [--metrics]
///
/// --metrics installs the process metrics recorder (support/Metrics.h) --
/// deliberately AFTER the timed passes, right before the JSON dump, so
/// the decode counters it embeds come from one extra untimed decode pass
/// and the timed numbers stay recorder-free.
///
//===----------------------------------------------------------------------===//

#include "bpf/Decoded.h"
#include "bpf/Interpreter.h"
#include "service/ProgramGen.h"
#include "support/ArgParse.h"
#include "support/Checkpoint.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>
#include <string>
#include <vector>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

/// The per-run input memory, derived exactly like DifferentialFuzz's so a
/// bench divergence is replayable through the fuzzer.
std::vector<uint8_t> runMemory(uint64_t Seed, size_t Index, unsigned Run,
                               uint64_t MemSize) {
  Xoshiro256 MemRng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
  std::vector<uint8_t> Mem(MemSize);
  for (uint8_t &Byte : Mem)
    Byte = static_cast<uint8_t>(MemRng.next());
  return Mem;
}

/// Digests everything the determinism contract pins about one run.
void mixResult(Fnv1a &Hash, const ExecResult &R,
               const std::array<uint64_t, NumRegs> &Regs,
               const std::array<bool, NumRegs> &Inited,
               const std::vector<uint8_t> &Mem) {
  Hash.mixU64(static_cast<uint64_t>(R.St));
  Hash.mixU64(R.ReturnValue);
  Hash.mixU64(R.ExitPc);
  Hash.mixU64(R.FaultPc);
  Hash.mixU64(R.Steps);
  Hash.mixString(R.Message);
  for (unsigned Reg = 0; Reg != NumRegs; ++Reg) {
    Hash.mixU64(Regs[Reg]);
    Hash.mixByte(Inited[Reg]);
  }
  for (uint8_t Byte : Mem)
    Hash.mixByte(Byte);
}

struct EngineTiming {
  const char *Name;
  double Seconds = 0;
  uint64_t Checksum = 0; ///< Cheap accumulator; must agree across engines.
};

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Programs = 256;
  uint64_t Runs = 64;
  uint64_t Seed = 2022;
  uint64_t MemSize = 32;
  uint64_t StepLimit = 1 << 20;
  uint64_t Reps = 3;
  const char *ProfileText = "loops";
  const char *JsonPath = nullptr;
  bool UseMetrics = false;

  ArgParser Args(Argc, Argv);
  while (Args.more()) {
    if (Args.matchU64("--programs", 1, uint64_t(1) << 24, Programs))
      continue;
    if (Args.matchU64("--runs", 1, uint64_t(1) << 20, Runs))
      continue;
    if (Args.matchU64("--seed", 0, UINT64_MAX, Seed))
      continue;
    if (Args.matchU64("--mem", 16, uint64_t(1) << 20, MemSize))
      continue;
    if (Args.matchU64("--steps", 1, uint64_t(1) << 32, StepLimit))
      continue;
    if (Args.matchU64("--reps", 1, 64, Reps))
      continue;
    if (Args.matchString("--profile", ProfileText))
      continue;
    if (Args.matchString("--json", JsonPath))
      continue;
    if (Args.matchFlag("--metrics")) {
      UseMetrics = true;
      continue;
    }
    Args.reject();
  }
  std::optional<GenProfile> Profile =
      Args.failed() ? std::nullopt : parseGenProfile(ProfileText);
  if (!Profile) {
    std::fprintf(stderr,
                 "usage: %s [--programs N] [--runs N] [--seed S] "
                 "[--profile P] [--mem N] [--steps N] [--reps N] "
                 "[--json FILE] [--metrics]\n",
                 Argv[0]);
    return 1;
  }

  //===--------------------------------------------------------------------===//
  // The workload: a seeded program stream (every generated program runs,
  // accepted or not -- the executors must agree on traps too) and
  // pre-generated pristine input memories shared by all engines.
  //===--------------------------------------------------------------------===//
  GenOptions Gen;
  Gen.Profile = *Profile;
  Gen.MemSize = MemSize;
  ProgramGen Generator(Seed, Gen);
  std::vector<Program> Stream;
  Stream.reserve(Programs);
  uint64_t TotalInsns = 0;
  for (uint64_t Index = 0; Index != Programs; ++Index) {
    Stream.push_back(Generator.next());
    TotalInsns += Stream.back().size();
  }
  std::vector<std::vector<uint8_t>> Pristine;
  Pristine.reserve(Programs * Runs);
  for (size_t Index = 0; Index != Stream.size(); ++Index)
    for (unsigned Run = 0; Run != Runs; ++Run)
      Pristine.push_back(runMemory(Seed, Index, Run, MemSize));

  std::printf("interpreter throughput: %llu %s-profile programs x %llu "
              "memories (%.1f insns/program, seed %llu, %llu-byte region, "
              "step limit %llu)\n\n",
              static_cast<unsigned long long>(Programs),
              genProfileName(*Profile), static_cast<unsigned long long>(Runs),
              Programs ? static_cast<double>(TotalInsns) / Programs : 0.0,
              static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(MemSize),
              static_cast<unsigned long long>(StepLimit));

  //===--------------------------------------------------------------------===//
  // Differential pass (untimed): every engine must produce bit-identical
  // results on every (program, run). The legacy results feed the exact
  // fingerprint CI gates.
  //===--------------------------------------------------------------------===//
  bool Identical = true;
  uint64_t OkRuns = 0, TrapRuns = 0, StepLimitRuns = 0, TotalSteps = 0;
  Fnv1a ResultHash;
  std::vector<uint8_t> WorkA, WorkB;
  for (size_t Index = 0; Index != Stream.size() && Identical; ++Index) {
    const Program &P = Stream[Index];
    std::string DecodeError;
    std::optional<DecodedProgram> Decoded = DecodedProgram::decode(P, DecodeError);
    if (!Decoded) {
      std::fprintf(stderr,
                   "FAIL: generated program %zu failed to decode: %s\n%s\n",
                   Index, DecodeError.c_str(), P.disassemble().c_str());
      return 1;
    }
    for (unsigned Run = 0; Run != Runs && Identical; ++Run) {
      const std::vector<uint8_t> &Mem = Pristine[Index * Runs + Run];
      WorkA = Mem;
      Interpreter Legacy(P, WorkA);
      ExecResult RL = Legacy.run(StepLimit);
      mixResult(ResultHash, RL, Legacy.registers(), Legacy.initialized(),
                WorkA);
      TotalSteps += RL.Steps;
      switch (RL.St) {
      case ExecResult::Status::Ok:
        ++OkRuns;
        break;
      case ExecResult::Status::StepLimit:
        ++StepLimitRuns;
        break;
      default:
        ++TrapRuns;
        break;
      }

      const DispatchMode Modes[] = {DispatchMode::Switch,
                                    DispatchMode::Threaded};
      for (DispatchMode Mode : Modes) {
        WorkB = Mem;
        ExecResult RD = Decoded->run(WorkB, StepLimit, Mode);
        bool Same = RL.St == RD.St && RL.ReturnValue == RD.ReturnValue &&
                    RL.ExitPc == RD.ExitPc && RL.FaultPc == RD.FaultPc &&
                    RL.Steps == RD.Steps && RL.Message == RD.Message &&
                    Legacy.registers() == Decoded->registers() &&
                    Legacy.initialized() == Decoded->initialized() &&
                    WorkA == WorkB;
        if (!Same) {
          std::fprintf(stderr,
                       "FAIL: %s dispatch diverged from legacy on program "
                       "%zu run %u\n%s\n",
                       dispatchModeName(Mode), Index, Run,
                       P.disassemble().c_str());
          Identical = false;
          break;
        }
      }
    }
  }
  uint64_t ResultFingerprint = ResultHash.digest();
  uint64_t RunCount = OkRuns + TrapRuns + StepLimitRuns;
  std::printf("differential: %s (%llu ok, %llu trapped, %llu step-limit "
              "runs; %.1f steps/run; result fingerprint %016llx)\n\n",
              Identical ? "all engines bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(OkRuns),
              static_cast<unsigned long long>(TrapRuns),
              static_cast<unsigned long long>(StepLimitRuns),
              RunCount ? static_cast<double>(TotalSteps) / RunCount : 0.0,
              static_cast<unsigned long long>(ResultFingerprint));
  if (!Identical)
    return 1;

  //===--------------------------------------------------------------------===//
  // Timed passes. Legacy pays its historical per-run cost (program copy +
  // construct per memory); the decoded engines decode once per program
  // inside their own timed region. Each engine's pass repeats --reps
  // times and keeps the fastest (min-of-K). The legacy engine stages a
  // copy of every input memory, as the historical oracle loop did; the
  // decoded engines skip the copy for store-free programs, which cannot
  // modify the input. A cheap checksum keeps the loops alive and
  // cross-checks the engines (and reps) once more.
  //===--------------------------------------------------------------------===//
  const uint64_t Memories = Programs * Runs;
  std::vector<EngineTiming> Timings;
  bool RepsStable = true;

  std::vector<uint8_t> HasStore(Stream.size(), 0);
  for (size_t Index = 0; Index != Stream.size(); ++Index)
    for (size_t Pc = 0; Pc != Stream[Index].size(); ++Pc)
      if (Stream[Index].insn(Pc).InsnKind == Insn::Kind::Store) {
        HasStore[Index] = 1;
        break;
      }

  std::vector<uint8_t> Work;
  auto RunLegacy = [&] {
    uint64_t Acc = 0;
    for (size_t Index = 0; Index != Stream.size(); ++Index) {
      const Program &P = Stream[Index];
      for (unsigned Run = 0; Run != Runs; ++Run) {
        // The historical fuzz-oracle pattern, staged copy included: the
        // pre-decode harness had no store scan, so it staged every run.
        Work = Pristine[Index * Runs + Run];
        Interpreter Interp(P, Work);
        ExecResult R = Interp.run(StepLimit);
        Acc ^= R.ReturnValue + 0x9E3779B97F4A7C15ull * R.Steps +
               static_cast<uint64_t>(R.St);
      }
    }
    return Acc;
  };
  auto RunDecoded = [&](DispatchMode Mode) {
    uint64_t Acc = 0;
    for (size_t Index = 0; Index != Stream.size(); ++Index) {
      std::string DecodeError;
      std::optional<DecodedProgram> Decoded =
          DecodedProgram::decode(Stream[Index], DecodeError);
      if (!Decoded)
        return ~uint64_t(0); // Cannot happen: the differential pass ran.
      const bool Stage = HasStore[Index];
      for (unsigned Run = 0; Run != Runs; ++Run) {
        std::vector<uint8_t> &Mem =
            Stage ? (Work = Pristine[Index * Runs + Run], Work)
                  : Pristine[Index * Runs + Run];
        ExecResult R = Decoded->run(Mem, StepLimit, Mode);
        Acc ^= R.ReturnValue + 0x9E3779B97F4A7C15ull * R.Steps +
               static_cast<uint64_t>(R.St);
      }
    }
    return Acc;
  };

  // The engines to time. The reps are interleaved round-robin across
  // engines (rep loop outermost) so every engine samples the same time
  // windows: on machines whose effective clock drifts over seconds, K
  // consecutive reps per engine would let the drift masquerade as an
  // engine difference, while min-of-K over interleaved rounds cancels it.
  std::vector<std::pair<const char *, std::function<uint64_t()>>> Engines;
  Engines.emplace_back("legacy", RunLegacy);
  Engines.emplace_back("decoded-switch",
                       [&] { return RunDecoded(DispatchMode::Switch); });
  Engines.emplace_back("decoded-threaded",
                       [&] { return RunDecoded(DispatchMode::Threaded); });

  // Each engine runs a burst of two back-to-back passes per round, both
  // timed: the first re-warms the branch predictors after the other
  // engines' passes evicted their targets, the second measures the warm
  // steady state a long fuzzing campaign actually runs in. Min-of-all
  // keeps whichever pass was cleanest.
  Timings.resize(Engines.size());
  for (uint64_t Rep = 0; Rep != Reps; ++Rep) {
    for (size_t E = 0; E != Engines.size(); ++E) {
      EngineTiming &T = Timings[E];
      for (int Burst = 0; Burst != 2; ++Burst) {
        auto Start = std::chrono::steady_clock::now();
        uint64_t Acc = Engines[E].second();
        double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
        if (Rep == 0 && Burst == 0) {
          T.Name = Engines[E].first;
          T.Seconds = Seconds;
          T.Checksum = Acc;
        } else {
          T.Seconds = Seconds < T.Seconds ? Seconds : T.Seconds;
          RepsStable &= Acc == T.Checksum;
        }
      }
    }
  }

  bool ChecksumsAgree = RepsStable;
  for (const EngineTiming &T : Timings)
    ChecksumsAgree &= T.Checksum == Timings.front().Checksum;

  const double LegacySeconds = Timings.front().Seconds;
  double BestSpeedup = 1.0;
  TextTable Table({"engine", "seconds", "memories/s", "speedup"});
  for (const EngineTiming &T : Timings) {
    double Speedup = T.Seconds > 0 ? LegacySeconds / T.Seconds : 0.0;
    if (Speedup > BestSpeedup)
      BestSpeedup = Speedup;
    Table.addRowOf(T.Name, formatString("%.3f", T.Seconds),
                   formatString("%.0f", T.Seconds > 0
                                            ? Memories / T.Seconds
                                            : 0.0),
                   formatString("%.2fx", Speedup));
  }
  Table.printAligned(stdout);
  std::printf("\nchecksums: %s across engines and reps (best of %llu); "
              "threaded dispatch %s\n",
              ChecksumsAgree ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(Reps),
              threadedDispatchAvailable() ? "available" : "unavailable");

  //===--------------------------------------------------------------------===//
  // Machine-readable dump for the CI gate (BENCH_interp.json). With
  // --metrics, the recorder goes live only now and one untimed decode
  // pass populates the decode counters for the snapshot.
  //===--------------------------------------------------------------------===//
  if (UseMetrics) {
    enableProcessMetrics();
    for (const Program &P : Stream) {
      std::string DecodeError;
      DecodedProgram::decode(P, DecodeError);
    }
  }
  if (JsonPath) {
    std::FILE *Json = std::fopen(JsonPath, "w");
    if (!Json) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Json,
                 "{\n"
                 "  \"bench\": \"interpreter_throughput\",\n"
                 "  \"build_info\": %s,\n"
                 "  \"seed\": %llu,\n"
                 "  \"profile\": \"%s\",\n"
                 "  \"programs\": %llu,\n"
                 "  \"runs_per_program\": %llu,\n"
                 "  \"mem_size\": %llu,\n"
                 "  \"step_limit\": %llu,\n"
                 "  \"reps\": %llu,\n"
                 "  \"identical\": %s,\n"
                 "  \"threaded_available\": %s,\n"
                 "  \"ok_runs\": %llu,\n"
                 "  \"trap_runs\": %llu,\n"
                 "  \"step_limit_runs\": %llu,\n"
                 "  \"result_fingerprint\": \"%016llx\",\n"
                 "  \"best_speedup\": %.3f,\n"
                 "  \"engines\": [\n",
                 buildInfoJson().c_str(),
                 static_cast<unsigned long long>(Seed),
                 genProfileName(*Profile),
                 static_cast<unsigned long long>(Programs),
                 static_cast<unsigned long long>(Runs),
                 static_cast<unsigned long long>(MemSize),
                 static_cast<unsigned long long>(StepLimit),
                 static_cast<unsigned long long>(Reps),
                 Identical && ChecksumsAgree ? "true" : "false",
                 threadedDispatchAvailable() ? "true" : "false",
                 static_cast<unsigned long long>(OkRuns),
                 static_cast<unsigned long long>(TrapRuns),
                 static_cast<unsigned long long>(StepLimitRuns),
                 static_cast<unsigned long long>(ResultFingerprint),
                 BestSpeedup);
    for (size_t I = 0; I != Timings.size(); ++I)
      std::fprintf(Json,
                   "    {\"engine\": \"%s\", \"seconds\": %.6f, "
                   "\"memories_per_s\": %.1f, \"speedup\": %.3f}%s\n",
                   Timings[I].Name, Timings[I].Seconds,
                   Timings[I].Seconds > 0 ? Memories / Timings[I].Seconds
                                          : 0.0,
                   Timings[I].Seconds > 0 ? LegacySeconds / Timings[I].Seconds
                                          : 0.0,
                   I + 1 == Timings.size() ? "" : ",");
    if (UseMetrics)
      std::fprintf(Json, "  ],\n  \"metrics\": %s\n}\n",
                   MetricsRegistry::instance().snapshot().toJson().c_str());
    else
      std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("\nwrote %s\n", JsonPath);
  }

  return ChecksumsAgree ? 0 : 1;
}
