//===- perfbench/src/VerifyBatch.cpp - The verify-batch workload ----------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// verify-batch: VerificationService::verifyBatch with one worker over a
/// seeded loader stream (Programs.h), repeated until the time budget is
/// spent. The analyzer fixpoint and the RegValue reduced product do nearly
/// all the work; no socket, disk or executor runs.
///
/// Oracle (outside the timed region): every verdict equals a fresh
/// verifyRequestInto on its own engine, every accepted program runs
/// trap-free under the legacy Interpreter on seeded memories (running out
/// of steps is not a trap: the analyzer does not prove termination), and
/// every timed batch has the first batch's verdictFingerprint.
///
/// The traced run adds the bpf attribution pass (Programs.h) and probes of
/// the state and domain operations on the workload's own fixpoint states.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "bpf/Interpreter.h"
#include "domain/RegValue.h"

using namespace tnums;
using namespace tnums::service;

namespace perfbench {
namespace {

constexpr uint64_t StreamDraws = 3000;
constexpr unsigned OracleMemories = 8;
constexpr uint64_t OracleStepLimit = 1 << 16;

/// Timed batches over the whole stream until \p Budget seconds are spent.
struct BatchRuns {
  double Seconds = 0;
  uint64_t Programs = 0;
  std::vector<double> WallS;
  std::vector<uint64_t> Fingerprints;
  BatchResult First;
};

BatchRuns runBatches(const VerificationService &Service,
                     const ProgramStream &Stream, double Budget,
                     SpanLog *Log, int32_t Root) {
  BatchRuns Runs;
  while (Runs.Seconds < Budget || Runs.WallS.empty()) {
    uint64_t Start = nowNs();
    BatchResult Batch;
    {
      ScopedSpan S(Log, "service.batch", Root);
      Batch = Service.verifyBatch(Stream.Requests);
    }
    double Wall = secondsSince(Start);
    Runs.Seconds += Wall;
    Runs.WallS.push_back(Wall);
    Runs.Programs += Batch.Stats.Programs;
    Runs.Fingerprints.push_back(verdictFingerprint(Batch));
    if (Runs.WallS.size() == 1)
      Runs.First = std::move(Batch);
  }
  return Runs;
}

/// Median over the batches of programs per second.
double passRate(const BatchRuns &Runs) {
  std::vector<double> Rates;
  for (double Wall : Runs.WallS)
    Rates.push_back(static_cast<double>(Runs.First.Results.size()) / Wall);
  return median(Rates);
}

bool sameVerdict(const VerifyResult &A, const VerifyResult &B) {
  if (A.Done != B.Done || A.Accepted != B.Accepted ||
      A.InsnVisits != B.InsnVisits || A.StructuralError != B.StructuralError ||
      A.Violations.size() != B.Violations.size())
    return false;
  for (size_t I = 0; I != A.Violations.size(); ++I)
    if (A.Violations[I].Pc != B.Violations[I].Pc ||
        A.Violations[I].Message != B.Violations[I].Message)
      return false;
  return true;
}

/// Per-request oracle verdict: true when request \p Index is wrong.
std::vector<uint8_t> checkVerdicts(const ProgramStream &Stream,
                                   const BatchResult &Batch, uint64_t Seed) {
  std::vector<uint8_t> Bad(Stream.Requests.size(), 0);
  bpf::Analyzer Engine;
  for (size_t I = 0; I != Stream.Requests.size(); ++I) {
    VerifyResult Reference;
    verifyRequestInto(Stream.Requests[I], /*KeepStates=*/false, Engine,
                      Reference);
    if (!sameVerdict(Reference, Batch.Results[I])) {
      Bad[I] = 1;
      continue;
    }
    if (!Reference.Accepted)
      continue;
    for (unsigned Run = 0; Run != OracleMemories && !Bad[I]; ++Run) {
      std::vector<uint8_t> Mem = seededMemory(Seed, I, Run);
      bpf::Interpreter Interp(Stream.Requests[I].Prog, Mem);
      bpf::ExecResult R = Interp.run(OracleStepLimit);
      Bad[I] = !R.ok() && R.St != bpf::ExecResult::Status::StepLimit;
    }
  }
  return Bad;
}

/// Runs \p Body over \p Items repeatedly for at least 0.1 s under a span
/// named \p Name and returns nanoseconds per item.
template <typename T, typename Fn>
double probeNs(const std::vector<T> &Items, SpanLog &Log, int32_t Root,
               const char *Name, Fn Body) {
  if (Items.empty())
    return 0;
  ScopedSpan S(&Log, Name, Root);
  uint64_t Calls = 0, Start = nowNs();
  do {
    for (const T &Item : Items)
      Body(Item);
    Calls += Items.size();
  } while (secondsSince(Start) < 0.1);
  return static_cast<double>(nowNs() - Start) / static_cast<double>(Calls);
}

struct BinaryCase {
  BinaryOp Op;
  RegValue L, R;
};
struct CompareCase {
  CompareOp Op;
  RegValue L, R;
};

/// Times the state and domain operations the fixpoint performs, on the
/// fixpoint states of the stream's unique programs.
void probeDomain(const ProgramStream &Stream, const std::vector<size_t> &Unique,
                 SpanLog &Log, Outcome &Out) {
  ScopedSpan Root(&Log, "probe.domain", -1);
  std::vector<std::pair<bpf::AbstractState, bpf::AbstractState>> Pairs;
  std::vector<BinaryCase> Binaries;
  std::vector<CompareCase> Compares;
  bpf::Analyzer Engine;
  auto Operand = [](const bpf::AbstractState &In, const bpf::Insn &I,
                    RegValue &Out) {
    if (I.UsesImm) {
      Out = RegValue::makeConstant(static_cast<uint64_t>(I.Imm));
      return true;
    }
    if (!In.Regs[I.Src].isScalar())
      return false;
    Out = In.Regs[I.Src].value();
    return true;
  };
  for (size_t Index : Unique) {
    const VerifyRequest &Request = Stream.Requests[Index];
    VerifyResult Result;
    verifyRequestInto(Request, /*KeepStates=*/true, Engine, Result);
    const std::vector<bpf::AbstractState> &States = Result.InStates;
    for (size_t Pc = 0; Pc + 1 < States.size(); ++Pc) {
      const bpf::AbstractState &In = States[Pc];
      if (!In.Reachable)
        continue;
      if (States[Pc + 1].Reachable)
        Pairs.emplace_back(In, States[Pc + 1]);
      const bpf::Insn &I = Request.Prog.insn(Pc);
      RegValue Src = RegValue::makeTop();
      if (I.Is32 || !In.Regs[I.Dst].isScalar() || !Operand(In, I, Src))
        continue;
      if (I.InsnKind == bpf::Insn::Kind::Alu && I.Alu != bpf::AluOp::Mov &&
          I.Alu != bpf::AluOp::Neg)
        Binaries.push_back(
            {bpf::aluOpToBinaryOp(I.Alu), In.Regs[I.Dst].value(), Src});
      else if (I.InsnKind == bpf::Insn::Kind::Jmp)
        Compares.push_back({I.Cmp, In.Regs[I.Dst].value(), Src});
    }
  }

  uint64_t Sink = 0;
  Out.layer("bpf.state.join_ns",
            probeNs(Pairs, Log, Root.id(), "bpf.state.join",
                    [&](const auto &P) {
                      Sink += P.first.joinWith(P.second).Reachable;
                    }),
            "ns");
  Out.layer("bpf.state.subset_ns",
            probeNs(Pairs, Log, Root.id(), "bpf.state.subset",
                    [&](const auto &P) {
                      Sink += P.first.isSubsetOf(P.second);
                    }),
            "ns");
  std::vector<unsigned> Widths(1024, 64);
  Out.layer("domain.make_bottom_ns",
            probeNs(Widths, Log, Root.id(), "domain.make_bottom",
                    [&](unsigned W) {
                      Sink += RegValue::makeBottom(W).isBottom();
                    }),
            "ns");
  Out.layer("domain.apply_binary_ns",
            probeNs(Binaries, Log, Root.id(), "domain.apply_binary",
                    [&](const BinaryCase &C) {
                      Sink += applyBinary(C.Op, C.L, C.R).isBottom();
                    }),
            "ns");
  Out.layer("domain.refine_ns",
            probeNs(Compares, Log, Root.id(), "domain.refine",
                    [&](const CompareCase &C) {
                      RegValue L = C.L, R = C.R;
                      refineByComparison(C.Op, /*Taken=*/true, L, R);
                      Sink += L.isBottom();
                    }),
            "ns");
  Out.info("probe.domain.cases",
           std::to_string(Pairs.size()) + " state pairs, " +
               std::to_string(Binaries.size()) + " binary, " +
               std::to_string(Compares.size()) + " compare (sink " +
               std::to_string(Sink & 1) + ")");
}

} // namespace

Outcome runVerifyBatch(const Options &Opts) {
  Outcome Out;
  ProgramStream Stream;
  std::vector<double> Setups;
  uint64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    uint64_t Start = nowNs();
    Stream = makeLoaderStream(Opts.Seed, StreamDraws);
    Setups.push_back(secondsSince(Start));
  }
  Out.SetupS = median(Setups);

  ServiceConfig Config;
  Config.NumThreads = 1;
  VerificationService Service(Config);

  double Budget = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  BatchRuns Runs = runBatches(Service, Stream, Budget, nullptr, -1);
  Out.ThroughputPerS = passRate(Runs);

  // Oracle, outside the timed region.
  std::vector<uint8_t> Bad = checkVerdicts(Stream, Runs.First, Opts.Seed);
  uint64_t BadPerBatch = 0;
  for (uint8_t B : Bad)
    BadPerBatch += B;
  uint64_t PerBatch = Stream.Requests.size();
  for (uint64_t Fingerprint : Runs.Fingerprints)
    Out.Failed += Fingerprint == Runs.Fingerprints.front() ? BadPerBatch
                                                           : PerBatch;
  Out.Attempted = Runs.Programs;

  const BatchStats &Stats = Runs.First.Stats;
  Out.info("fingerprint.verdict", hex64(Runs.Fingerprints.front()));
  Out.info("stream", std::to_string(PerBatch) + " requests, " +
                         std::to_string(Stats.Accepted) + " accepted, " +
                         std::to_string(Stats.DedupHits) + " duplicates");
  if (!Opts.Trace)
    return Out;

  // Traced run: the same batches with a span around each call.
  SpanLog Log;
  int32_t Root = Log.open("workload.verify-batch", -1);
  BatchRuns Traced = runBatches(Service, Stream, Budget, &Log, Root);
  Log.close(Root);
  double TracedRate = passRate(Traced);
  Out.layer("trace.overhead_frac", Out.ThroughputPerS / TracedRate - 1,
            "ratio");
  Out.layer("trace.unattributed_frac", Log.uncoveredFraction(Root), "ratio");
  Out.layer("programs_per_s", Out.ThroughputPerS, "1/s");
  Out.layer("service.gen.s", Out.SetupS, "s");
  Out.layer("service.batch.dedup_hits", static_cast<double>(Stats.DedupHits),
            "count");
  Out.layer("service.batch.dedup_frac",
            static_cast<double>(Stats.DedupHits) /
                static_cast<double>(Stats.Programs),
            "ratio");
  Out.layer("bpf.analyze.accept_frac",
            static_cast<double>(Stats.Accepted) /
                static_cast<double>(Stats.Programs),
            "ratio");

  std::vector<size_t> Unique = uniqueRequests(Stream);
  int32_t Probe = Log.open("probe.bpf", -1);
  double AttributedS = attributeAnalysis(Stream, Unique, Log, Probe, Out);
  Log.close(Probe);
  Out.layer("service.batch.self_s", median(Traced.WallS) - AttributedS, "s");
  probeDomain(Stream, Unique, Log, Out);

  std::string TracePath = Opts.WorkDir + "/trace-verify-batch-" +
                          std::to_string(Opts.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    Out.info("trace.file", TracePath);
  return Out;
}

} // namespace perfbench
