//===- verify/ParallelSweep.cpp - Parallel exhaustive verification --------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/ParallelSweep.h"

#include "support/Atomic.h"
#include "support/ChunkSchedule.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "tnum/TnumEnum.h"
#include "verify/MemberLoops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <map>
#include <mutex>

using namespace tnums;

namespace {

/// Runs \p Fn(ChunkIndex) over [0, NumChunks) on the shared
/// chunk-scheduling loop (support/ChunkSchedule.h); the sweeps carry no
/// per-worker state, so the worker slot is a placeholder.
void runOnPool(const SweepConfig &Config, uint64_t NumChunks,
               const std::function<void(uint64_t)> &Fn) {
  forEachChunkOnPool(
      Config.NumThreads, NumChunks, [] { return 0; },
      [&Fn](uint64_t Chunk, int &) { Fn(Chunk); });
}

/// A failing pair: its grid index (for the Campaign layer's serial-prefix
/// re-normalization) plus the property-specific witness.
template <typename CounterexampleT> struct IndexedFailure {
  uint64_t Index;
  CounterexampleT Witness;
};

/// The chunk / first-fail-chunk cancellation protocol, shared by the three
/// sweeps (soundness, optimality, monotonicity) that used to each carry a
/// near-verbatim copy, applied to the pair-index range [Begin, End) of
/// \p Grid. Templated on the counterexample type, a chunk-local counter
/// block (which doubles as per-chunk scratch -- e.g. the gamma(Q) staging
/// buffer -- since one instance lives per chunk, never shared across
/// threads), and the per-pair body.
///
///   Body(Index, P, Q, Local) -> std::optional<CounterexampleT>
///   Merge(Local)             -- fold the chunk's counters into the totals
///
/// With \p CancelOnFailure (the soundness protocol) a failing chunk stops
/// at its own first violation, chunks strictly above the lowest failing
/// chunk are cancelled, and chunks at or below it always finish -- so the
/// returned counterexample is the serial row-major first one in the
/// range. Without it (optimality's exact-count mode) every chunk
/// full-scans and only the lowest chunk's first witness is kept; the
/// result is the serial-order first counterexample either way.
template <typename CounterexampleT, typename LocalT, typename BodyT,
          typename MergeT>
std::optional<IndexedFailure<CounterexampleT>>
sweepPairGrid(const SweepGrid &Grid, uint64_t Begin, uint64_t End,
              const SweepConfig &Config, bool CancelOnFailure,
              const BodyT &Body, const MergeT &Merge) {
  assert(Begin <= End && End <= Grid.TotalPairs && "range out of grid");
  const uint64_t ChunkPairs = std::max<uint64_t>(1, Config.ChunkPairs);
  const uint64_t NumChunks = (End - Begin + ChunkPairs - 1) / ChunkPairs;

  // Lowest chunk index with a violation; the final value's witness is the
  // serial-order first counterexample.
  std::atomic<uint64_t> FirstFailChunk{UINT64_MAX};
  std::mutex FailuresMutex;
  std::map<uint64_t, IndexedFailure<CounterexampleT>> FailureByChunk;

  runOnPool(Config, NumChunks, [&](uint64_t Chunk) {
    if (CancelOnFailure &&
        Chunk > FirstFailChunk.load(std::memory_order_acquire))
      return;
    uint64_t ChunkBegin = Begin + Chunk * ChunkPairs;
    uint64_t ChunkEnd = std::min(End, ChunkBegin + ChunkPairs);
    LocalT Local{};
    bool ChunkHasFailure = false;
    for (uint64_t Index = ChunkBegin; Index != ChunkEnd; ++Index) {
      if (CancelOnFailure &&
          Chunk > FirstFailChunk.load(std::memory_order_relaxed))
        break;
      const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
      const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
      std::optional<CounterexampleT> Failure = Body(Index, P, Q, Local);
      if (Failure && !ChunkHasFailure) {
        ChunkHasFailure = true;
        {
          std::lock_guard<std::mutex> Lock(FailuresMutex);
          FailureByChunk.emplace(
              Chunk,
              IndexedFailure<CounterexampleT>{Index, std::move(*Failure)});
        }
        atomicMinU64(FirstFailChunk, Chunk);
      }
      if (ChunkHasFailure && CancelOnFailure)
        break; // This chunk's first (= serial-order) violation is recorded.
    }
    Merge(Local);
  });

  std::lock_guard<std::mutex> Lock(FailuresMutex);
  if (FailureByChunk.empty())
    return std::nullopt;
  return std::move(FailureByChunk.begin()->second); // Lowest chunk index.
}

/// The member lists of grid pair \p Index: from the memoized table when
/// present, else staged in \p Staging.
std::pair<MemberSpan, MemberSpan> pairMembersAt(const SweepGrid &Grid,
                                                uint64_t Index,
                                                PairMembers &Staging) {
  const uint64_t PIndex = Index / Grid.NumTnums;
  const uint64_t QIndex = Index % Grid.NumTnums;
  if (Grid.Members)
    return {Grid.Members->members(PIndex), Grid.Members->members(QIndex)};
  if (Staging.XsIndex != PIndex) {
    Staging.NumXs =
        materializeMembers(Grid.Universe[PIndex], Staging.XLanes).Count;
    Staging.XsIndex = PIndex;
  }
  return {MemberSpan{Staging.XLanes.data(), Staging.NumXs},
          materializeMembers(Grid.Universe[QIndex], Staging.YLanes)};
}

void publishFailureIndex(std::optional<uint64_t> *Out,
                         std::optional<uint64_t> Index) {
  if (Out)
    *Out = Index;
}

} // namespace

SweepGrid tnums::makeSweepGrid(unsigned Width, const SweepConfig &Config) {
  SweepGrid Grid;
  Grid.Width = Width;
  Grid.Universe = allWellFormedTnums(Width);
  Grid.NumTnums = Grid.Universe.size();
  Grid.TotalPairs = Grid.NumTnums * Grid.NumTnums;
  if (simdModeBatches(Config.Simd) && Config.MemberTableBytesCap &&
      memberTableBytes(Width) <= Config.MemberTableBytesCap)
    Grid.Members.emplace(Grid.Universe);
  return Grid;
}

Tnum tnums::optimalAbstractionAt(BinaryOp Op, const SweepGrid &Grid,
                                 uint64_t Index, SimdMode Simd,
                                 PairMembers &Staging) {
  if (!simdModeBatches(Simd))
    return optimalAbstractBinary(Op, Grid.Universe[Index / Grid.NumTnums],
                                 Grid.Universe[Index % Grid.NumTnums],
                                 Grid.Width);
  auto [Xs, Ys] = pairMembersAt(Grid, Index, Staging);
  return optimalAbstractBinaryMembers(Op, Grid.Width, Xs, Ys);
}

SoundnessReport tnums::checkSoundnessRangeParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract,
    const SweepGrid &Grid, uint64_t Begin, uint64_t End,
    const SweepConfig &Config, std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Concrete) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> PairsChecked{0};
  std::atomic<uint64_t> ConcreteChecked{0};

  const bool Batched = simdModeBatches(Config.Simd);
  const unsigned Width = Grid.Width;

  struct Local {
    uint64_t Pairs = 0;
    uint64_t Concrete = 0;
    // Chunk-local member staging for the non-memoized batched path.
    PairMembers Staging;
  };

  std::optional<IndexedFailure<SoundnessCounterexample>> Failure =
      sweepPairGrid<SoundnessCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/true,
          [&](uint64_t Index, const Tnum &P, const Tnum &Q,
              Local &L) -> std::optional<SoundnessCounterexample> {
            ++L.Pairs;
            Tnum R = Abstract(P, Q);
            if (!Batched)
              return scanPairScalar(Concrete, Width, P, Q, R, L.Concrete);
            auto [Xs, Ys] = pairMembersAt(Grid, Index, L.Staging);
            return scanPairMembersBatched(Concrete, Width, P, Q, R, Xs, Ys,
                                          L.Concrete);
          },
          [&](const Local &L) {
            PairsChecked.fetch_add(L.Pairs, std::memory_order_relaxed);
            ConcreteChecked.fetch_add(L.Concrete, std::memory_order_relaxed);
          });

  SoundnessReport Report;
  Report.PairsChecked = PairsChecked.load();
  Report.ConcreteChecked = ConcreteChecked.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

OptimalityReport tnums::checkOptimalityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config, bool StopAtFirst,
    std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> PairsChecked{0};
  std::atomic<uint64_t> OptimalPairs{0};

  const unsigned Width = Grid.Width;

  struct Local {
    uint64_t Pairs = 0;
    uint64_t Optimal = 0;
    PairMembers Staging;
  };

  // StopAtFirst selects the soundness cancellation protocol (early exit,
  // scheduling-dependent counts on failure); the default full-scan keeps
  // OptimalPairs / PairsChecked exact grid totals. Either way the witness
  // is the serial-order first non-optimal pair.
  std::optional<IndexedFailure<OptimalityCounterexample>> Failure =
      sweepPairGrid<OptimalityCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/StopAtFirst,
          [&](uint64_t Index, const Tnum &P, const Tnum &Q,
              Local &L) -> std::optional<OptimalityCounterexample> {
            ++L.Pairs;
            Tnum Actual = applyAbstractBinary(Op, P, Q, Width, Mul);
            Tnum Optimal =
                optimalAbstractionAt(Op, Grid, Index, Config.Simd, L.Staging);
            if (Actual == Optimal) {
              ++L.Optimal;
              return std::nullopt;
            }
            return OptimalityCounterexample{P, Q, Actual, Optimal};
          },
          [&](const Local &L) {
            PairsChecked.fetch_add(L.Pairs, std::memory_order_relaxed);
            OptimalPairs.fetch_add(L.Optimal, std::memory_order_relaxed);
          });

  OptimalityReport Report;
  Report.PairsChecked = PairsChecked.load();
  Report.OptimalPairs = OptimalPairs.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

MonotonicityReport tnums::checkMonotonicityRangeParallel(
    BinaryOp Op, MulAlgorithm Mul, const SweepGrid &Grid, uint64_t Begin,
    uint64_t End, const SweepConfig &Config,
    std::optional<uint64_t> *FailurePairIndex) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  std::atomic<uint64_t> QuadruplesChecked{0};
  const unsigned Width = Grid.Width;

  struct Local {
    uint64_t Quadruples = 0;
  };

  std::optional<IndexedFailure<MonotonicityCounterexample>> Failure =
      sweepPairGrid<MonotonicityCounterexample, Local>(
          Grid, Begin, End, Config, /*CancelOnFailure=*/true,
          [&](uint64_t, const Tnum &P2, const Tnum &Q2,
              Local &L) -> std::optional<MonotonicityCounterexample> {
            Tnum R2 = applyAbstractBinary(Op, P2, Q2, Width, Mul);
            std::optional<MonotonicityCounterexample> Violation;
            forEachSubTnum(P2, [&](Tnum P1) {
              if (Violation)
                return;
              forEachSubTnum(Q2, [&](Tnum Q1) {
                if (Violation)
                  return;
                ++L.Quadruples;
                Tnum R1 = applyAbstractBinary(Op, P1, Q1, Width, Mul);
                if (!R1.isSubsetOf(R2))
                  Violation =
                      MonotonicityCounterexample{P1, Q1, P2, Q2, R1, R2};
              });
            });
            return Violation;
          },
          [&](const Local &L) {
            QuadruplesChecked.fetch_add(L.Quadruples,
                                        std::memory_order_relaxed);
          });

  MonotonicityReport Report;
  Report.QuadruplesChecked = QuadruplesChecked.load();
  if (Failure) {
    publishFailureIndex(FailurePairIndex, Failure->Index);
    Report.Failure = std::move(Failure->Witness);
  } else {
    publishFailureIndex(FailurePairIndex, std::nullopt);
  }
  return Report;
}

PrecisionReport tnums::checkPrecisionRangeParallel(
    BinaryOp Op, const AbstractBinaryFn &Abstract, const SweepGrid &Grid,
    uint64_t Begin, uint64_t End, const SweepConfig &Config) {
  assert((!isShiftOp(Op) || (Grid.Width & (Grid.Width - 1)) == 0) &&
         "shift verification requires a power-of-two width");
  assert(Begin <= End && End <= Grid.TotalPairs && "range out of grid");

  // Precision-scan observability (docs/OBSERVABILITY.md): counters and
  // per-scan latency, recorded only while the process recorder is enabled
  // -- never feeding back into the report (no observer effect).
  struct ScanMetrics {
    Counter Pairs{"tnums_precision_pairs_total"};
    Histogram ScanNs{"tnums_precision_scan_ns"};
  };
  static ScanMetrics Metrics;
  const uint64_t ScanStartNs = metricsEnabled() ? traceNowNs() : 0;

  // Chunk-local accumulators: buckets and sums add order-independently,
  // and each chunk's worst witness carries its pair index so the global
  // pick (greatest gap, then lowest index) equals the serial scan's
  // first-attaining-max witness for any scheduling.
  struct Local {
    uint64_t Pairs = 0;
    uint64_t SumGap = 0;
    unsigned MaxGap = 0;
    uint64_t Buckets[PrecisionGapBuckets] = {};
    uint64_t WorstIndex = UINT64_MAX;
    std::optional<PrecisionWitness> Worst;
    PairMembers Staging;
  };

  std::mutex Mutex;
  PrecisionReport Report;
  uint64_t WorstIndex = UINT64_MAX;

  forEachIndexRangeParallel(Begin, End, Config, [&](uint64_t ChunkBegin,
                                                    uint64_t ChunkEnd) {
    Local L;
    for (uint64_t Index = ChunkBegin; Index != ChunkEnd; ++Index) {
      const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
      const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
      ++L.Pairs;
      Tnum Actual = Abstract(P, Q);
      Tnum Optimal =
          optimalAbstractionAt(Op, Grid, Index, Config.Simd, L.Staging);
      int Gap = std::popcount(Actual.mask()) - std::popcount(Optimal.mask());
      unsigned G = Gap > 0 ? static_cast<unsigned>(Gap) : 0;
      L.SumGap += G;
      ++L.Buckets[G];
      if (G > L.MaxGap) {
        L.MaxGap = G;
        L.WorstIndex = Index;
        L.Worst = PrecisionWitness{P, Q, Actual, Optimal, G};
      }
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    Report.PairsChecked += L.Pairs;
    Report.SumGap += L.SumGap;
    for (unsigned I = 0; I != PrecisionGapBuckets; ++I)
      Report.Buckets[I] += L.Buckets[I];
    if (L.Worst && (L.MaxGap > Report.MaxGap ||
                    (L.MaxGap == Report.MaxGap && L.WorstIndex < WorstIndex))) {
      Report.MaxGap = L.MaxGap;
      WorstIndex = L.WorstIndex;
      Report.Worst = L.Worst;
    }
  });

  Metrics.Pairs.add(Report.PairsChecked);
  if (metricsEnabled())
    Metrics.ScanNs.record(traceNowNs() - ScanStartNs);
  return Report;
}

SoundnessReport tnums::checkSoundnessExhaustiveParallel(
    BinaryOp Concrete, const AbstractBinaryFn &Abstract, unsigned Width,
    const SweepConfig &Config) {
  SweepGrid Grid = makeSweepGrid(Width, Config);
  return checkSoundnessRangeParallel(Concrete, Abstract, Grid, 0,
                                     Grid.TotalPairs, Config);
}

SoundnessReport
tnums::checkSoundnessExhaustiveParallel(BinaryOp Op, unsigned Width,
                                        MulAlgorithm Mul,
                                        const SweepConfig &Config) {
  return checkSoundnessExhaustiveParallel(
      Op,
      [Op, Width, Mul](const Tnum &P, const Tnum &Q) {
        return applyAbstractBinary(Op, P, Q, Width, Mul);
      },
      Width, Config);
}

OptimalityReport
tnums::checkOptimalityExhaustiveParallel(BinaryOp Op, unsigned Width,
                                         MulAlgorithm Mul,
                                         const SweepConfig &Config,
                                         bool StopAtFirst) {
  SweepGrid Grid = makeSweepGrid(Width, Config);
  return checkOptimalityRangeParallel(Op, Mul, Grid, 0, Grid.TotalPairs,
                                      Config, StopAtFirst);
}

MonotonicityReport
tnums::checkMonotonicityExhaustiveParallel(BinaryOp Op, unsigned Width,
                                           MulAlgorithm Mul,
                                           const SweepConfig &Config) {
  SweepGrid Grid = makeSweepGrid(Width, Config);
  return checkMonotonicityRangeParallel(Op, Mul, Grid, 0, Grid.TotalPairs,
                                        Config);
}

void tnums::forEachIndexRangeParallel(
    uint64_t Begin, uint64_t End, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn) {
  assert(Begin <= End && "bad index range");
  uint64_t ChunkSize = std::max<uint64_t>(1, Config.ChunkPairs);
  uint64_t NumChunks = (End - Begin + ChunkSize - 1) / ChunkSize;
  runOnPool(Config, NumChunks, [&](uint64_t Chunk) {
    uint64_t ChunkBegin = Begin + Chunk * ChunkSize;
    Fn(ChunkBegin, std::min(End, ChunkBegin + ChunkSize));
  });
}

void tnums::forEachIndexRangeParallel(
    uint64_t Total, const SweepConfig &Config,
    const std::function<void(uint64_t, uint64_t)> &Fn) {
  forEachIndexRangeParallel(0, Total, Config, Fn);
}
