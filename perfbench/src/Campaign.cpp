//===- perfbench/src/Campaign.cpp - The campaign workload -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// campaign: exhaustive soundness of all six multiplication algorithms at
/// width 7, plus exhaustive soundness and full optimality of
/// add/sub/and/or/xor at width 6, through verify's public range sweeps with
/// one job and SimdMode::Auto. Only tnum transfer functions and verify's
/// member-scan and alpha-reduce kernels run. The seed fixes the order of
/// the cells; the exhaustive cells themselves are the paper's and do not
/// depend on it. Whole passes over all cells repeat until the time budget
/// is spent.
///
/// Oracle: the paper's answers, written out here -- every operator sound,
/// add/sub/and/or/xor optimal, every mul algorithm not optimal (checked
/// outside the timed region at width 5) -- and the closed-form counts:
/// 3^(2w) pairs and 16^w concrete evaluations per cell.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Checkpoint.h"
#include "support/Random.h"
#include "tnum/TnumMul.h"
#include "verify/ParallelSweep.h"

#include <utility>

using namespace tnums;

namespace perfbench {
namespace {

constexpr unsigned MulWidth = 7;
constexpr unsigned OpWidth = 6;
constexpr unsigned MulOracleWidth = 5;
const BinaryOp OptimalOps[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::And,
                               BinaryOp::Or, BinaryOp::Xor};

uint64_t power(uint64_t Base, unsigned Exp) {
  uint64_t Result = 1;
  while (Exp--)
    Result *= Base;
  return Result;
}

struct Cell {
  BinaryOp Op;
  MulAlgorithm Mul;
  unsigned Width;
  bool Optimality;
};

std::vector<Cell> campaignCells(uint64_t Seed) {
  std::vector<Cell> Cells;
  for (MulAlgorithm Mul : AllMulAlgorithms)
    Cells.push_back({BinaryOp::Mul, Mul, MulWidth, false});
  for (bool Optimality : {false, true})
    for (BinaryOp Op : OptimalOps)
      Cells.push_back({Op, MulAlgorithm::Our, OpWidth, Optimality});
  Xoshiro256 Rng(Seed ^ 0xCA3Au);
  for (size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[Rng.nextBelow(I)]);
  return Cells;
}

/// One cell's sweep and whether it matched the paper and the closed forms.
struct CellRun {
  double Seconds = 0;
  uint64_t Pairs = 0;
  uint64_t Evals = 0;
  bool Ok = false;
};

CellRun runCell(const Cell &C, const SweepGrid &Grid,
                const SweepConfig &Config) {
  CellRun Run;
  uint64_t Start = nowNs();
  const uint64_t Pairs = power(3, 2 * C.Width), Evals = power(16, C.Width);
  if (C.Optimality) {
    // The full optimality scan folds alpha over every member pair of every
    // abstract pair: 16^w evaluations by construction (the report carries
    // no evaluation counter).
    OptimalityReport R = checkOptimalityRangeParallel(
        C.Op, C.Mul, Grid, 0, Grid.TotalPairs, Config, /*StopAtFirst=*/false);
    Run.Pairs = R.PairsChecked;
    Run.Evals = Evals;
    Run.Ok = R.isOptimalEverywhere() && R.OptimalPairs == Pairs;
  } else {
    BinaryOp Op = C.Op;
    MulAlgorithm Mul = C.Mul;
    unsigned Width = C.Width;
    SoundnessReport R = checkSoundnessRangeParallel(
        Op,
        [Op, Mul, Width](const Tnum &P, const Tnum &Q) {
          return applyAbstractBinary(Op, P, Q, Width, Mul);
        },
        Grid, 0, Grid.TotalPairs, Config);
    Run.Pairs = R.PairsChecked;
    Run.Evals = R.ConcreteChecked;
    Run.Ok = R.holds() && Run.Evals == Evals;
  }
  Run.Ok = Run.Ok && Run.Pairs == Pairs;
  Run.Seconds = secondsSince(Start);
  return Run;
}

/// Whole passes over the cells until \p Budget seconds are spent.
struct PassRuns {
  double Seconds = 0;
  uint64_t Evals = 0, Pairs = 0, Cells = 0, BadCells = 0;
  unsigned Passes = 0;
  double MulSeconds[std::size(AllMulAlgorithms)] = {};
  uint64_t MulEvals[std::size(AllMulAlgorithms)] = {};
  double SoundS = 0, OptS = 0;
  std::vector<double> PassRates; ///< Evaluations per second of each pass.
};

PassRuns runPasses(const std::vector<Cell> &Cells, const SweepGrid &Mul,
                   const SweepGrid &Ops, const SweepConfig &Config,
                   double Budget, SpanLog *Log, int32_t Root) {
  PassRuns Runs;
  while (Runs.Seconds < Budget || Runs.Passes == 0) {
    double PassSeconds = 0;
    uint64_t PassEvals = 0;
    for (size_t I = 0; I != Cells.size(); ++I) {
      const Cell &C = Cells[I];
      CellRun Run;
      {
        ScopedSpan S(Log, C.Optimality ? "verify.opt" : "verify.sound", Root,
                     I + 1);
        Run = runCell(C, C.Width == MulWidth ? Mul : Ops, Config);
      }
      PassSeconds += Run.Seconds;
      PassEvals += Run.Evals;
      Runs.Seconds += Run.Seconds;
      Runs.Evals += Run.Evals;
      Runs.Pairs += Run.Pairs;
      ++Runs.Cells;
      Runs.BadCells += !Run.Ok;
      (C.Optimality ? Runs.OptS : Runs.SoundS) += Run.Seconds;
      if (C.Op == BinaryOp::Mul) {
        Runs.MulSeconds[static_cast<size_t>(C.Mul)] += Run.Seconds;
        Runs.MulEvals[static_cast<size_t>(C.Mul)] += Run.Evals;
      }
    }
    ++Runs.Passes;
    Runs.PassRates.push_back(static_cast<double>(PassEvals) / PassSeconds);
  }
  return Runs;
}

/// Nanoseconds per call of \p Fn over a strided sample of \p Grid's pairs.
/// The operators are out-of-line calls, so the loop cannot drop them.
template <typename Fn>
double probePairsNs(const SweepGrid &Grid, uint64_t Stride, Fn Body) {
  uint64_t Calls = 0, Start = nowNs();
  for (uint64_t Pair = 0; Pair < Grid.TotalPairs; Pair += Stride, ++Calls)
    Body(Grid.Universe[Pair / Grid.NumTnums],
         Grid.Universe[Pair % Grid.NumTnums]);
  return static_cast<double>(nowNs() - Start) / static_cast<double>(Calls);
}

} // namespace

Outcome runCampaign(const Options &Opts) {
  Outcome Out;
  SweepConfig Config;
  Config.NumThreads = 1;
  Config.Simd = SimdMode::Auto;

  std::vector<double> Setups;
  SweepGrid MulGrid, OpGrid;
  uint64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    uint64_t Start = nowNs();
    MulGrid = makeSweepGrid(MulWidth, Config);
    OpGrid = makeSweepGrid(OpWidth, Config);
    Setups.push_back(secondsSince(Start));
  }
  Out.SetupS = median(Setups);
  std::vector<Cell> Cells = campaignCells(Opts.Seed);

  double Budget = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  PassRuns Runs = runPasses(Cells, MulGrid, OpGrid, Config, Budget, nullptr, -1);
  Out.ThroughputPerS = median(Runs.PassRates);
  Out.Attempted = Runs.Cells;
  Out.Failed = Runs.BadCells;

  // The paper's negative answer: no mul algorithm is optimal.
  SweepGrid Small = makeSweepGrid(MulOracleWidth, Config);
  unsigned OptimalMuls = 0;
  for (MulAlgorithm Mul : AllMulAlgorithms)
    OptimalMuls += checkOptimalityRangeParallel(BinaryOp::Mul, Mul, Small, 0,
                                                Small.TotalPairs, Config,
                                                /*StopAtFirst=*/true)
                       .isOptimalEverywhere();
  Out.OracleOk = OptimalMuls == 0;
  Out.info("oracle.optimal_mul_algorithms", std::to_string(OptimalMuls));
  Out.info("cells", std::to_string(Cells.size()) + " per pass, " +
                        std::to_string(Runs.Passes) + " passes");
  // The verdict fingerprint of the campaign: cell verdicts and exact counts.
  Fnv1a Fingerprint;
  for (uint64_t V : {Runs.Evals / Runs.Passes, Runs.Pairs / Runs.Passes,
                     Runs.BadCells, uint64_t(OptimalMuls)})
    Fingerprint.mixU64(V);
  Out.info("fingerprint.verdict", hex64(Fingerprint.digest()));
  if (!Opts.Trace)
    return Out;

  SpanLog Log;
  int32_t Root = Log.open("workload.campaign", -1);
  PassRuns Traced = runPasses(Cells, MulGrid, OpGrid, Config, Budget, &Log, Root);
  Log.close(Root);
  Out.Attempted += Traced.Cells;
  Out.Failed += Traced.BadCells;
  double TracedRate = median(Traced.PassRates);
  Out.layer("trace.overhead_frac", Out.ThroughputPerS / TracedRate - 1,
            "ratio");
  Out.layer("trace.unattributed_frac", Log.uncoveredFraction(Root), "ratio");
  Out.layer("mevals_per_s", Out.ThroughputPerS * 1e-6, "Mevals/s");
  Out.layer("verify.grid.setup_s", Out.SetupS, "s");
  double Passes = Traced.Passes;
  for (MulAlgorithm Mul : AllMulAlgorithms) {
    size_t A = static_cast<size_t>(Mul);
    Out.layer(std::string("verify.mul.") + mulAlgorithmName(Mul) +
                  ".mevals_per_s",
              static_cast<double>(Traced.MulEvals[A]) / Traced.MulSeconds[A] *
                  1e-6,
              "Mevals/s");
  }
  Out.layer("verify.sound.s", Traced.SoundS / Passes, "s");
  Out.layer("verify.opt.s", Traced.OptS / Passes, "s");
  Out.layer("verify.pairs", static_cast<double>(Traced.Pairs) / Passes,
            "count");
  Out.layer("verify.evals", static_cast<double>(Traced.Evals) / Passes,
            "count");

  // tnum layer: the transfer functions alone, on the sweeps' own operands.
  {
    ScopedSpan Probe(&Log, "probe.tnum", -1);
    for (MulAlgorithm Mul : AllMulAlgorithms) {
      ScopedSpan S(&Log, "tnum.mul", Probe.id(),
                   static_cast<uint64_t>(Mul) + 1);
      Out.layer(std::string("tnum.mul.") + mulAlgorithmName(Mul) + ".ns",
                probePairsNs(MulGrid, 7,
                             [Mul](const Tnum &P, const Tnum &Q) {
                               return tnumMul(P, Q, Mul, MulWidth);
                             }),
                "ns");
    }
    ScopedSpan S(&Log, "tnum.ops", Probe.id());
    double OpsNs = 0;
    for (BinaryOp Op : OptimalOps)
      OpsNs += probePairsNs(OpGrid, 1, [Op](const Tnum &P, const Tnum &Q) {
        return applyAbstractBinary(Op, P, Q, OpWidth);
      });
    Out.layer("tnum.ops.ns", OpsNs / std::size(OptimalOps), "ns");
  }

  std::string TracePath = Opts.WorkDir + "/trace-campaign-" +
                          std::to_string(Opts.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    Out.info("trace.file", TracePath);
  return Out;
}

} // namespace perfbench
