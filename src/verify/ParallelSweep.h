//===- verify/ParallelSweep.h - Parallel exhaustive verification -*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multithreaded form of the bounded verification engine. The serial
/// checkers (SoundnessChecker.h, OptimalityChecker.h) walk the 9^n grid of
/// well-formed tnum pairs in row-major order; at the widths the paper's
/// campaign targets (kern_mul was SMT-verified only up to n = 8) that walk
/// costs 16^n concrete evaluations and stops being interactive. This
/// engine splits the same grid into fixed-size chunks of consecutive
/// (P, Q) pair indices and runs them on a work-stealing thread pool
/// (support/ThreadPool.h), pushing exhaustive sweeps to width 10-12.
///
/// Since the Campaign refactor the engine is *range-based*: a SweepGrid
/// (the enumerated universe plus the optional memoized member table) is
/// built once per width and any number of [Begin, End) pair-index ranges
/// are swept against it. The classic full-grid entry points below are
/// wrappers over the range [0, TotalPairs); verify/Campaign.h layers
/// sharding, checkpointing, and order-independent merging on top of the
/// range form.
///
/// Determinism contract: results are bit-identical for every thread count,
/// including 1, and identical to the serial checkers.
///
///  * When the property holds, every chunk is fully scanned, so the
///    PairsChecked / ConcreteChecked totals (and OptimalPairs) are exact
///    grid totals -- independent of scheduling.
///  * When the property fails, the reported counterexample is the FIRST
///    one in serial row-major order: each chunk stops at its own first
///    violation, chunks above the lowest failing chunk are cancelled, and
///    chunks below it always run to completion, so the minimum failing
///    chunk's witness is exactly the serial witness. The work counters
///    then reflect only the work actually performed (cancellation makes
///    them scheduling-dependent), mirroring the serial early-exit counts
///    only approximately; treat them as progress indicators on failure.
///    (The Campaign layer re-normalizes failing shards to the exact
///    serial-prefix counts, which is what makes its merged reports
///    deterministic; see docs/CAMPAIGN.md.)
///
/// The checkers accept an injectable abstract operator so the test suite
/// can feed deliberately broken transfer functions through the exact same
/// machinery and observe the deterministic witness.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_VERIFY_PARALLELSWEEP_H
#define TNUMS_VERIFY_PARALLELSWEEP_H

#include "tnum/TnumMembers.h"
#include "verify/MonotonicityChecker.h"
#include "verify/OptimalityChecker.h"
#include "verify/SoundnessChecker.h"

#include <functional>
#include <optional>
#include <vector>

namespace tnums {

/// Tuning knobs for a parallel sweep.
struct SweepConfig {
  /// Worker threads; 0 means ThreadPool::hardwareConcurrency().
  unsigned NumThreads = 0;

  /// Consecutive (P, Q) pair indices per work chunk. The default keeps
  /// chunks coarse enough that queue traffic is negligible yet fine
  /// enough that 4-16 threads load-balance across the wildly varying
  /// |gamma(P)| * |gamma(Q)| chunk costs.
  uint64_t ChunkPairs = 4096;

  /// Member-scan path (support/SimdBatch.h): the batched member-pair
  /// loops by default, SimdMode::Off for the scalar reference. Orthogonal
  /// to the determinism contract -- every mode produces bit-identical
  /// reports.
  SimdMode Simd = SimdMode::Auto;

  /// Budget for memoizing the per-universe member table
  /// (tnum/TnumMembers.h): when gamma of the whole universe fits
  /// (4^width * 8 bytes <= cap), the batched sweeps build it once and stop
  /// re-materializing gamma(Q) per (P, Q) pair. The default covers widths
  /// <= 12 (128 MiB); wider sweeps fall back to per-pair materialization.
  /// Zero disables memoization. Bit-identical reports either way.
  uint64_t MemberTableBytesCap = uint64_t(1) << 28;

};

/// An abstract binary transfer function as the sweep sees it: inputs are
/// well-formed width-n tnums, the result is already truncated to width.
/// Signature matches applyAbstractBinary after binding Op/Width/Mul.
using AbstractBinaryFn = std::function<Tnum(const Tnum &, const Tnum &)>;

/// The row-major (P, Q) pair grid every sweep walks: pair index I maps to
/// P = Universe[I / NumTnums], Q = Universe[I % NumTnums] -- the exact
/// order the serial checkers use, which is what makes "minimum failing
/// chunk, first failure inside it" equal the serial witness. Build one
/// per width (makeSweepGrid) and sweep any number of ranges against it:
/// the universe enumeration and the member table are the per-width state
/// the Campaign layer shares across every shard and property of a cell.
struct SweepGrid {
  unsigned Width = 0;
  std::vector<Tnum> Universe;
  uint64_t NumTnums = 0;
  uint64_t TotalPairs = 0;
  /// Engaged when the batched path is on and gamma of the whole universe
  /// fits SweepConfig::MemberTableBytesCap (see tnum/TnumMembers.h).
  std::optional<MemberTable> Members;
};

/// Enumerates the width-\p Width universe and, when \p Config's batched
/// path and byte cap allow, memoizes the member table.
SweepGrid makeSweepGrid(unsigned Width, const SweepConfig &Config);

/// Caller-owned staging for optimalAbstractionAt when \p Grid has no
/// member table: gamma(P) staged once per row (pairs arrive in row-major
/// order, so the refill amortizes across the Q axis) and gamma(Q)
/// refilled per pair. One instance per thread.
struct PairMembers {
  std::vector<uint64_t> Xs;
  std::vector<uint64_t> Ys;
  uint64_t XsIndex = UINT64_MAX;
};

/// The optimal abstraction alpha(opC(gamma(P), gamma(Q))) of grid pair
/// \p Index: the reduce loop (verify/MemberLoops.h) over gamma(P) and
/// gamma(Q), resolved from the member table or staged in \p Staging, or
/// the scalar reference fold when \p Simd is SimdMode::Off. Shared by the
/// optimality and precision sweeps and the campaign's failure
/// re-normalization.
Tnum optimalAbstractionAt(BinaryOp Op, const SweepGrid &Grid, uint64_t Index,
                          SimdMode Simd, PairMembers &Staging);

/// Range forms of the three sweeps: scan pair indices [\p Begin, \p End)
/// of \p Grid under the determinism contract above, restricted to the
/// range (the "serial order" is the ascending index order of the range).
/// When the sweep fails and \p FailurePairIndex is non-null, it receives
/// the failing pair's grid index -- the Campaign layer uses it to
/// re-normalize failing shards to exact serial-prefix counters.
SoundnessReport checkSoundnessRangeParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract,
    const SweepGrid &Grid, uint64_t Begin, uint64_t End,
    const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

OptimalityReport checkOptimalityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config, bool StopAtFirst,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

MonotonicityReport checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex = nullptr);

/// Parallel precision-gap measurement over [\p Begin, \p End): the range
/// form of measurePrecisionGap (verify/OptimalityChecker.h), always a
/// full scan (a measurement has no cancellation protocol). \p Abstract is
/// the transfer function under measurement (the campaign's override hook
/// flows through here); \p Op supplies the concrete semantics the optimal
/// yardstick enumerates. Chunk-local histograms merge order-independently
/// -- buckets and sums add, and the retained Worst witness is the one with
/// the greatest gap, ties broken by lowest pair index -- so the report is
/// bit-identical to the serial reference for every thread count, chunk
/// size, and SIMD mode. Shares the optimality sweep's per-pair optimal
/// abstraction (optimalAbstractionAt).
PrecisionReport checkPrecisionRangeParallel(BinaryOp Op,
                                            const AbstractBinaryFn &Abstract,
                                            const SweepGrid &Grid,
                                            uint64_t Begin, uint64_t End,
                                            const SweepConfig &Config);

/// Parallel equivalent of checkSoundnessExhaustive: verifies Eqn. 11 for
/// \p Op at \p Width over every well-formed tnum pair, multithreaded.
SoundnessReport
checkSoundnessExhaustiveParallel(BinaryOp Op, unsigned Width,
                                 MulAlgorithm Mul = MulAlgorithm::Our,
                                 const SweepConfig &Config = SweepConfig());

/// Same, but with an injected abstract operator: \p Concrete supplies the
/// concrete semantics (and the shift-width restriction), \p Abstract the
/// transfer function under test.
SoundnessReport
checkSoundnessExhaustiveParallel(BinaryOp Concrete, const AbstractBinaryFn &Abstract,
                                 unsigned Width,
                                 const SweepConfig &Config = SweepConfig());

/// Parallel equivalent of checkOptimalityExhaustive. By default scans the
/// full grid, making OptimalPairs / PairsChecked exact totals. With
/// \p StopAtFirst, chunks above the lowest non-optimal chunk are
/// cancelled (the soundness checker's protocol), trading exact counts on
/// failure for an early exit. Either way the reported counterexample is
/// the serial-order first non-optimal pair.
OptimalityReport
checkOptimalityExhaustiveParallel(BinaryOp Op, unsigned Width,
                                  MulAlgorithm Mul = MulAlgorithm::Our,
                                  const SweepConfig &Config = SweepConfig(),
                                  bool StopAtFirst = false);

/// Parallel equivalent of checkMonotonicityExhaustive: chunks the same
/// row-major (P2, Q2) grid across the pool; each pair's sub-tnum walk
/// stays scalar (it visits abstract values, not members, so the SIMD
/// kernels do not apply). Same determinism protocol as the soundness
/// sweep: the reported counterexample is the serial-order first
/// violation, QuadruplesChecked is the exact grid total when the property
/// holds and a progress indicator on failure.
MonotonicityReport
checkMonotonicityExhaustiveParallel(BinaryOp Op, unsigned Width,
                                    MulAlgorithm Mul = MulAlgorithm::Our,
                                    const SweepConfig &Config = SweepConfig());

/// Schedules \p Fn(Begin, End) over consecutive chunks of the row-major
/// index space [0, Total) on the sweep pool -- the building block the
/// Table I / Fig. 4 pair walks use to run order-independent reductions
/// (counter sums, histograms) in parallel. Ranges are disjoint and cover
/// [0, Total) exactly once; \p Fn runs concurrently and must synchronize
/// any merging into shared state itself. With NumThreads == 1 the ranges
/// run inline, in increasing order, on the calling thread.
void forEachIndexRangeParallel(
    uint64_t Total, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn);

/// Subrange form: chunks [\p Begin, \p End) instead of [0, Total) -- what
/// a checkpointed shard of a Table I / Fig. 4 walk runs.
void forEachIndexRangeParallel(
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn);

/// One (algorithm, width) cell of a multiplication soundness campaign.
struct MulSweepResult {
  MulAlgorithm Algorithm;
  unsigned Width;
  SoundnessReport Report;
  double Seconds; // wall-clock for this cell
};

/// Sweeps ALL six multiplication algorithms at each width in \p Widths
/// through the parallel soundness checker -- the paper's SIII-A
/// multiplication campaign, beyond its n = 8 SMT horizon. Cells are
/// ordered (width-major, algorithm-minor) and each cell's report obeys the
/// determinism contract above. Since the Campaign refactor this is a thin
/// wrapper over runCampaign (verify/Campaign.h) without checkpointing;
/// front ends that want resume/sharding should build a CampaignSpec
/// directly.
std::vector<MulSweepResult>
sweepMulSoundness(const std::vector<unsigned> &Widths,
                  const SweepConfig &Config = SweepConfig());

} // namespace tnums

#endif // TNUMS_VERIFY_PARALLELSWEEP_H
