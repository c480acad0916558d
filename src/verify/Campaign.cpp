//===- verify/Campaign.cpp - Checkpointed, sharded campaigns --------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "verify/Campaign.h"

#include "support/ArgParse.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/Trace.h"
#include "tnum/TnumEnum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include <sys/stat.h>

using namespace tnums;

const char *tnums::campaignPropertyName(CampaignProperty Property) {
  switch (Property) {
  case CampaignProperty::Soundness:
    return "soundness";
  case CampaignProperty::Optimality:
    return "optimality";
  case CampaignProperty::Monotonicity:
    return "monotonicity";
  case CampaignProperty::Precision:
    return "precision";
  }
  return "?";
}

unsigned tnums::campaignPropertyPayloadVersion(CampaignProperty Property) {
  // Bump a property's version whenever its serialize*/parse* pair below
  // changes format; the fingerprint mix then invalidates stored shards
  // of that property and nothing else.
  switch (Property) {
  case CampaignProperty::Soundness:
  case CampaignProperty::Optimality:
  case CampaignProperty::Monotonicity:
  case CampaignProperty::Precision:
    return 1;
  }
  return 0;
}

void CampaignSpec::addGrid(BinaryOp Op, MulAlgorithm Mul,
                           const std::vector<unsigned> &Widths,
                           const std::vector<CampaignProperty> &Properties) {
  for (unsigned Width : Widths)
    for (CampaignProperty Property : Properties)
      Cells.push_back(CampaignCell{Op, Mul, Width, Property});
}

bool CampaignSpec::overrideApplies(const CampaignCell &Cell) const {
  // The override stands in for the transfer function wherever the cell
  // EXECUTES it per pair: soundness verification and precision
  // measurement. Optimality/monotonicity cells always check the real
  // operator (their semantics are defined against applyAbstractBinary).
  if (!OperatorOverride || (Cell.Property != CampaignProperty::Soundness &&
                            Cell.Property != CampaignProperty::Precision))
    return false;
  if (OverrideOp && Cell.Op != *OverrideOp)
    return false;
  if (OverrideMul && (Cell.Op != BinaryOp::Mul || Cell.Mul != *OverrideMul))
    return false;
  return true;
}

bool CampaignCellResult::holds() const {
  switch (Cell.Property) {
  case CampaignProperty::Soundness:
    return Soundness.holds();
  case CampaignProperty::Optimality:
    return Optimality.isOptimalEverywhere();
  case CampaignProperty::Monotonicity:
    return Monotonicity.holds();
  case CampaignProperty::Precision:
    // "Measured optimal everywhere" -- informational for a measurement
    // property (front ends report precision cells, they do not fail on
    // them), but exactly what diff-baseline verdict flips should track.
    return Precision.MaxGap == 0;
  }
  return false;
}

void tnums::printCampaignStatus(uint64_t ShardsTotal, uint64_t ShardsRun,
                                uint64_t ShardsResumed,
                                uint64_t ShardsSkipped,
                                uint64_t ShardsInvalidated,
                                const std::string &CheckpointDir) {
  std::printf("campaign: %llu shards total, %llu run here, %llu resumed "
              "from checkpoint",
              static_cast<unsigned long long>(ShardsTotal),
              static_cast<unsigned long long>(ShardsRun),
              static_cast<unsigned long long>(ShardsResumed));
  if (ShardsSkipped)
    std::printf(", %llu skipped past early-exit witnesses",
                static_cast<unsigned long long>(ShardsSkipped));
  if (ShardsInvalidated)
    std::printf(", %llu invalidated by operator changes",
                static_cast<unsigned long long>(ShardsInvalidated));
  if (!CheckpointDir.empty())
    std::printf("; checkpoint dir %s", CheckpointDir.c_str());
  std::printf("\n");
}

bool tnums::matchCampaignArgs(ArgParser &Args, CampaignIO &IO) {
  const char *Dir = nullptr;
  if (Args.matchString("--checkpoint-dir", Dir)) {
    if (Dir) // Unset when the value was missing (the parser latched it).
      IO.CheckpointDir = Dir;
    return true;
  }
  if (Args.matchFlag("--resume")) {
    IO.Resume = true;
    return true;
  }
  if (Args.matchUnsigned("--shards", 1, 4096, IO.Shards))
    return true;
  if (Args.matchUnsigned("--shard-index", 0, 4095, IO.ShardIndex))
    return true;
  if (Args.matchU64("--shard-pairs", 1, UINT64_MAX, IO.ShardPairs))
    return true;
  // Time-box the invocation: stop after N shards (resume later). Also how
  // CI simulates preemption at a shard boundary.
  if (Args.matchU64("--max-shards", 1, UINT64_MAX, IO.MaxShardsThisRun))
    return true;
  return false;
}

uint64_t tnums::campaignFingerprint(const CampaignSpec &Spec,
                                    const CampaignIO &IO) {
  // The SHAPE only: operator implementation versions and the override tag
  // key individual cells (campaignCellFingerprint), never the directory --
  // an algorithm change must invalidate cells, not refuse the store.
  Fnv1a Hash;
  Hash.mixString("tnums-campaign v2");
  Hash.mixU64(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells) {
    Hash.mixU64(static_cast<uint64_t>(Cell.Op));
    Hash.mixU64(static_cast<uint64_t>(Cell.Mul));
    Hash.mixU64(Cell.Width);
    Hash.mixU64(static_cast<uint64_t>(Cell.Property));
  }
  Hash.mixU64(Spec.OptimalityEarlyExit ? 1 : 0);
  Hash.mixU64(IO.ShardPairs);
  return Hash.digest();
}

namespace {

/// The implementation-content half of a built-in cell's fingerprint: the
/// coordinates plus the version of the transfer function under test.
/// propertyCellFingerprint extends it with the property name and payload
/// version to form what shard files actually store.
uint64_t cellContentFingerprint(const CampaignSpec &Spec,
                                const CampaignCell &Cell) {
  Fnv1a Hash;
  Hash.mixString("tnums-campaign-cell v3");
  Hash.mixU64(static_cast<uint64_t>(Cell.Op));
  Hash.mixU64(static_cast<uint64_t>(Cell.Mul));
  Hash.mixU64(Cell.Width);
  Hash.mixU64(static_cast<uint64_t>(Cell.Property));
  if (Spec.overrideApplies(Cell)) {
    // The override IS the implementation under test; its tag stands in
    // for the unhashable function.
    Hash.mixString("override");
    Hash.mixString(Spec.OverrideTag);
  } else {
    Hash.mixU64(opFingerprint(Cell.Op, Cell.Mul));
  }
  return Hash.digest();
}

} // namespace

uint64_t tnums::propertyCellFingerprint(uint64_t ContentFingerprint,
                                        const char *PropertyName,
                                        unsigned PayloadVersion) {
  Fnv1a Hash;
  Hash.mixString("tnums-property-cell v1");
  Hash.mixU64(ContentFingerprint);
  Hash.mixString(PropertyName);
  Hash.mixU64(PayloadVersion);
  return Hash.digest();
}

uint64_t tnums::campaignCellFingerprint(const CampaignSpec &Spec,
                                        const CampaignCell &Cell) {
  return propertyCellFingerprint(
      cellContentFingerprint(Spec, Cell),
      campaignPropertyName(Cell.Property),
      campaignPropertyPayloadVersion(Cell.Property));
}

//===----------------------------------------------------------------------===//
// Generic sharded driver
//===----------------------------------------------------------------------===//

namespace {

/// One manifest entry: a contiguous pair-index range of one cell.
struct ShardRef {
  size_t Cell;
  uint64_t Begin;
  uint64_t End;
};

/// The deterministic manifest: cell-major, ranges ascending. A pure
/// function of the cell sizes and ShardPairs -- every invocation of a
/// campaign computes the identical list, which is what shard files are
/// keyed by.
std::vector<ShardRef> buildManifest(const std::vector<uint64_t> &CellPairs,
                                    uint64_t ShardPairs) {
  std::vector<ShardRef> Manifest;
  for (size_t Cell = 0; Cell != CellPairs.size(); ++Cell) {
    uint64_t Total = CellPairs[Cell];
    if (Total == 0) {
      // A degenerate empty cell still occupies one manifest slot so the
      // merge sees it and can mark it complete.
      Manifest.push_back(ShardRef{Cell, 0, 0});
      continue;
    }
    for (uint64_t Begin = 0; Begin < Total;) {
      uint64_t End = Total - Begin > ShardPairs ? Begin + ShardPairs : Total;
      Manifest.push_back(ShardRef{Cell, Begin, End});
      Begin = End;
    }
  }
  return Manifest;
}

} // namespace

ShardDriveResult tnums::driveCampaignShards(
    const std::vector<uint64_t> &CellTotalPairs,
    const std::vector<uint64_t> &CellFingerprints, uint64_t Fingerprint,
    const CampaignIO &IO, const RunShardFn &Run, const MergeShardFn &Merge,
    std::vector<bool> *CellComplete,
    std::vector<CellShardCounts> *CellCounts) {
  ShardDriveResult Result;
  assert(CellFingerprints.size() == CellTotalPairs.size() &&
         "one content fingerprint per cell");
  if (IO.Shards == 0 || IO.ShardIndex >= IO.Shards) {
    Result.Error = formatString("bad shard split: index %u of %u",
                                IO.ShardIndex, IO.Shards);
    return Result;
  }
  if (IO.Shards > 1 && IO.CheckpointDir.empty()) {
    Result.Error = "--shards > 1 requires a checkpoint directory "
                   "(shard results meet on disk)";
    return Result;
  }
  if (IO.ShardPairs == 0) {
    Result.Error = "ShardPairs must be positive";
    return Result;
  }

  const std::vector<ShardRef> Manifest =
      buildManifest(CellTotalPairs, IO.ShardPairs);
  Result.ShardsTotal = Manifest.size();
  if (CellCounts)
    CellCounts->assign(CellTotalPairs.size(), CellShardCounts{});

  std::optional<CheckpointStore> Store;
  if (!IO.CheckpointDir.empty()) {
    std::string Error;
    Store = CheckpointStore::open(IO.CheckpointDir, Fingerprint,
                                  Manifest.size(), Error);
    if (!Store) {
      Result.Error = std::move(Error);
      return Result;
    }
    if (!IO.Resume) {
      for (uint64_t Id = 0; Id != Manifest.size(); ++Id)
        if (Id % IO.Shards == IO.ShardIndex && Store->hasShard(Id)) {
          Result.Error = formatString(
              "checkpoint directory %s already holds shard %" PRIu64
              " of this invocation's slice; pass --resume to reuse it or "
              "point at a fresh directory",
              IO.CheckpointDir.c_str(), Id);
          return Result;
        }
    }
  }

  // Telemetry heartbeats: one JSONL row per shard executed by THIS
  // invocation plus a final invocation summary, appended to
  // telemetry.jsonl beside the shard store. The file accumulates across
  // resumes and is invisible to every fingerprint and bit-identity claim
  // (it is not a shard file and is never read back); an open failure
  // leaves the log inert rather than failing the campaign.
  EventLog Telemetry;
  if (!IO.CheckpointDir.empty()) {
    std::string TelemetryError;
    Telemetry.open(IO.CheckpointDir + "/telemetry.jsonl", TelemetryError);
  }
  const uint64_t InvocationStartNs = Telemetry.active() ? traceNowNs() : 0;

  // Results this invocation has in hand (computed or loaded), keyed by
  // manifest index. The merge below prefers this cache and falls back to
  // the store for shards other invocations completed after we passed
  // them in the execution loop.
  std::map<uint64_t, ShardRecord> Cache;
  // Lowest terminal shard per cell seen so far; later shards of that
  // cell are dead (early-exit) and are skipped, not run.
  std::map<size_t, uint64_t> CellTerminalShard;

  auto isDead = [&](const ShardRef &Ref, uint64_t Id) {
    auto It = CellTerminalShard.find(Ref.Cell);
    return It != CellTerminalShard.end() && Id > It->second;
  };

  /// Loads shard \p Id from the store and classifies it: a record whose
  /// cell fingerprint still matches is CURRENT (cached, terminal
  /// bookkeeping applied); a mismatch is STALE -- the operator
  /// implementation changed since it was written, so its verdict must
  /// not be merged; a file that disappeared between hasShard and
  /// loadShard is MISSING (another invocation's owner GC'd a stale shard
  /// under us -- the replacement, if any, lands later). A stored cell
  /// index disagreeing with the manifest is corruption, reported as a
  /// hard error.
  enum class Stored { Current, Stale, Missing, Error };
  auto classifyStored = [&](uint64_t Id, const ShardRef &Ref) -> Stored {
    std::string Error;
    std::optional<ShardRecord> Record = Store->loadShard(Id, Error);
    if (!Record) {
      if (Error.empty())
        return Stored::Missing;
      Result.Error = std::move(Error);
      return Stored::Error;
    }
    if (Record->Cell != Ref.Cell) {
      Result.Error = formatString(
          "shard %" PRIu64 " in %s records cell %" PRIu64
          " but the manifest places it in cell %zu; the store is corrupt",
          Id, IO.CheckpointDir.c_str(), Record->Cell, Ref.Cell);
      return Stored::Error;
    }
    if (Record->CellFingerprint != CellFingerprints[Ref.Cell])
      return Stored::Stale;
    if (Record->Terminal)
      CellTerminalShard.emplace(Ref.Cell, Id);
    Cache.emplace(Id, std::move(*Record));
    return Stored::Current;
  };

  //===--------------------------------------------------------------------===//
  // Execution: walk the manifest in order, running owned shards,
  // absorbing checkpointed ones whose cell fingerprint still matches,
  // and GC-ing + re-running owned shards invalidated by an operator
  // change.
  //===--------------------------------------------------------------------===//
  for (uint64_t Id = 0; Id != Manifest.size(); ++Id) {
    const ShardRef &Ref = Manifest[Id];
    if (isDead(Ref, Id)) {
      ++Result.ShardsSkipped;
      if (CellCounts)
        ++(*CellCounts)[Ref.Cell].Skipped;
      continue;
    }
    const bool Owned = Id % IO.Shards == IO.ShardIndex;
    if (Store && Store->hasShard(Id)) {
      switch (classifyStored(Id, Ref)) {
      case Stored::Error:
        return Result;
      case Stored::Missing:
        break; // Vanished under us: fall through and run if owned.
      case Stored::Current:
        if (Owned) {
          ++Result.ShardsResumed;
          if (CellCounts)
            ++(*CellCounts)[Ref.Cell].Resumed;
        }
        continue;
      case Stored::Stale: {
        // Only the OWNER may GC: a non-owner unlinking here could race
        // the owner's re-run and delete the freshly renamed replacement.
        // Non-owners simply treat the stale shard as absent.
        if (!Owned)
          break;
        ++Result.ShardsInvalidated;
        if (CellCounts)
          ++(*CellCounts)[Ref.Cell].Invalidated;
        std::string Error;
        if (!Store->removeShard(Id, Error)) {
          Result.Error = std::move(Error);
          return Result;
        }
        break; // Fall through to re-run below.
      }
      }
    }
    if (!Owned)
      continue;
    if (IO.MaxShardsThisRun && Result.ShardsRun >= IO.MaxShardsThisRun)
      continue; // Time-box hit: leave the rest for a resume.
    const uint64_t ShardStartNs = Telemetry.active() ? traceNowNs() : 0;
    ShardRecord Record;
    Run(Ref.Cell, Ref.Begin, Ref.End, Record);
    Record.Cell = Ref.Cell;
    Record.CellFingerprint = CellFingerprints[Ref.Cell];
    if (Store) {
      std::string Error;
      if (!Store->storeShard(Id, Record, Error)) {
        Result.Error = std::move(Error);
        return Result;
      }
    }
    if (Telemetry.active()) {
      const double WallS = double(traceNowNs() - ShardStartNs) / 1e9;
      const uint64_t Pairs = Ref.End - Ref.Begin;
      JsonLineBuilder Line;
      Line.field("ts_ms", traceWallMs())
          .field("event", "shard")
          .field("shard", Id)
          .field("cell", static_cast<uint64_t>(Ref.Cell))
          .field("begin", Ref.Begin)
          .field("end", Ref.End)
          .field("wall_s", WallS)
          .field("pairs_per_s", WallS > 0 ? double(Pairs) / WallS : 0.0)
          .field("terminal", Record.Terminal);
      Telemetry.write(Line.str());
    }
    if (Record.Terminal)
      CellTerminalShard.emplace(Ref.Cell, Id);
    Cache.emplace(Id, std::move(Record));
    ++Result.ShardsRun;
    if (CellCounts)
      ++(*CellCounts)[Ref.Cell].Run;
  }

  //===--------------------------------------------------------------------===//
  // Merge: manifest order, stopping each cell at its terminal shard (or
  // its first missing/stale one). Because the order is fixed and every
  // payload is deterministic, the merged result is bit-identical no
  // matter which invocations produced which shards, in how many runs, or
  // how many cells were served from the store vs recomputed.
  //===--------------------------------------------------------------------===//
  if (CellComplete)
    CellComplete->assign(CellTotalPairs.size(), false);
  bool AllComplete = true;
  for (size_t Cell = 0; Cell != CellTotalPairs.size(); ++Cell) {
    bool Complete = true;
    for (uint64_t Id = 0; Id != Manifest.size(); ++Id) {
      const ShardRef &Ref = Manifest[Id];
      if (Ref.Cell != Cell)
        continue;
      const ShardRecord *Record = nullptr;
      auto It = Cache.find(Id);
      if (It != Cache.end()) {
        Record = &It->second;
      } else if (Store && Store->hasShard(Id)) {
        switch (classifyStored(Id, Ref)) {
        case Stored::Error:
          return Result;
        case Stored::Current:
          Record = &Cache.find(Id)->second;
          break;
        case Stored::Stale:
        case Stored::Missing:
          Record = nullptr; // No current verdict: the cell stays partial.
          break;
        }
      }
      if (!Record) {
        Complete = false;
        break;
      }
      std::string Error;
      if (!Merge(Cell, Ref.Begin, Ref.End, *Record, Error)) {
        Result.Error = Error.empty() ? formatString("shard %" PRIu64
                                                    " failed to merge",
                                                    Id)
                                     : std::move(Error);
        return Result;
      }
      if (Record->Terminal)
        break; // The cell ends here by construction.
    }
    if (CellComplete)
      (*CellComplete)[Cell] = Complete;
    AllComplete &= Complete;
  }
  Result.Complete = AllComplete;
  if (Telemetry.active()) {
    JsonLineBuilder Line;
    Line.field("ts_ms", traceWallMs())
        .field("event", "invocation")
        .field("shards_total", Result.ShardsTotal)
        .field("run", Result.ShardsRun)
        .field("resumed", Result.ShardsResumed)
        .field("skipped", Result.ShardsSkipped)
        .field("invalidated", Result.ShardsInvalidated)
        .field("complete", Result.Complete)
        .field("wall_s", double(traceNowNs() - InvocationStartNs) / 1e9);
    Telemetry.write(Line.str());
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Property shard payloads
//
// Line-oriented key/value text (hex for tnum words). Every field that
// the merge folds into a report is a deterministic function of the
// shard's range; only the informational "seconds" field varies between
// writers, which is why it is excluded from every bit-identity claim.
//===----------------------------------------------------------------------===//

namespace {

std::string hexTnum(const Tnum &T) {
  return formatString("%016" PRIx64 " %016" PRIx64, T.value(), T.mask());
}

/// The engine-stamped first line of every property payload, naming the
/// driver and its payload-format version. The header travels with the
/// shard so a store can be refused BY CONTENT, independently of the
/// fingerprint-level invalidation a version bump triggers.
std::string payloadHeaderLine(const char *Name, unsigned Version) {
  return formatString("payload %s %u\n", Name, Version);
}

/// Verifies and strips \p Payload's header line, leaving the body the
/// driver's mergeShard parses. A mismatch is the migration refusal: the
/// stored bytes were written by a different property or payload version
/// and must not be merged.
bool stripPayloadHeader(const std::string &Payload, const char *Name,
                        unsigned Version, size_t CellIndex, std::string &Body,
                        std::string &Error) {
  const size_t Eol = Payload.find('\n');
  const std::string Header =
      Eol == std::string::npos ? Payload : Payload.substr(0, Eol);
  const std::string Expected = formatString("payload %s %u", Name, Version);
  if (Header != Expected) {
    Error = formatString(
        "cell %zu shard payload declares format \"%s\" but this binary "
        "expects \"%s\"; the store was written by an incompatible payload "
        "version -- re-run the campaign against a fresh checkpoint "
        "directory to migrate it",
        CellIndex, Header.c_str(), Expected.c_str());
    return false;
  }
  Body = Eol == std::string::npos ? std::string() : Payload.substr(Eol + 1);
  return true;
}

/// Fields shared by every property payload.
struct PayloadReader {
  std::map<std::string, std::string> Fields;

  explicit PayloadReader(const std::string &Payload) {
    size_t Pos = 0;
    while (Pos < Payload.size()) {
      size_t Eol = Payload.find('\n', Pos);
      if (Eol == std::string::npos)
        Eol = Payload.size();
      std::string Line = Payload.substr(Pos, Eol - Pos);
      Pos = Eol + 1;
      size_t Space = Line.find(' ');
      if (Space == std::string::npos || Space == 0)
        continue;
      Fields.emplace(Line.substr(0, Space), Line.substr(Space + 1));
    }
  }

  bool u64(const char *Key, uint64_t &Out) const {
    auto It = Fields.find(Key);
    if (It == Fields.end())
      return false;
    char *End = nullptr;
    errno = 0;
    unsigned long long Value = std::strtoull(It->second.c_str(), &End, 10);
    if (errno != 0 || End == It->second.c_str() || *End != '\0')
      return false;
    Out = static_cast<uint64_t>(Value);
    return true;
  }

  bool seconds(double &Out) const {
    auto It = Fields.find("seconds");
    if (It == Fields.end())
      return false;
    Out = std::strtod(It->second.c_str(), nullptr);
    return true;
  }

  /// Parses \p Count whitespace-separated hex words from field \p Key.
  bool hexWords(const char *Key, uint64_t *Out, unsigned Count) const {
    auto It = Fields.find(Key);
    if (It == Fields.end())
      return false;
    const char *Text = It->second.c_str();
    for (unsigned I = 0; I != Count; ++I) {
      char *End = nullptr;
      errno = 0;
      unsigned long long Value = std::strtoull(Text, &End, 16);
      if (errno != 0 || End == Text)
        return false;
      Out[I] = static_cast<uint64_t>(Value);
      Text = End;
    }
    return *Text == '\0' || *Text == ' ';
  }

  bool has(const char *Key) const { return Fields.count(Key) != 0; }
};

std::string serializeSoundnessShard(const SoundnessReport &Report,
                                    double Seconds) {
  std::string Payload = formatString(
      "pairs %" PRIu64 "\nconcrete %" PRIu64 "\nseconds %.9g\n",
      Report.PairsChecked, Report.ConcreteChecked, Seconds);
  if (Report.Failure) {
    const SoundnessCounterexample &W = *Report.Failure;
    Payload += formatString("witness %s %s %016" PRIx64 " %016" PRIx64
                            " %016" PRIx64 " %s\n",
                            hexTnum(W.P).c_str(), hexTnum(W.Q).c_str(), W.X,
                            W.Y, W.Z, hexTnum(W.R).c_str());
  }
  return Payload;
}

bool parseSoundnessShard(const std::string &Payload, SoundnessReport &Out,
                         double &Seconds) {
  PayloadReader Reader(Payload);
  if (!Reader.u64("pairs", Out.PairsChecked) ||
      !Reader.u64("concrete", Out.ConcreteChecked) ||
      !Reader.seconds(Seconds))
    return false;
  if (Reader.has("witness")) {
    uint64_t W[9];
    if (!Reader.hexWords("witness", W, 9))
      return false;
    Out.Failure = SoundnessCounterexample{Tnum(W[0], W[1]), Tnum(W[2], W[3]),
                                          W[4], W[5], W[6],
                                          Tnum(W[7], W[8])};
  }
  return true;
}

std::string serializeOptimalityShard(const OptimalityReport &Report,
                                     double Seconds) {
  std::string Payload = formatString(
      "pairs %" PRIu64 "\noptimal %" PRIu64 "\nseconds %.9g\n",
      Report.PairsChecked, Report.OptimalPairs, Seconds);
  if (Report.Failure) {
    const OptimalityCounterexample &W = *Report.Failure;
    Payload += formatString("witness %s %s %s %s\n", hexTnum(W.P).c_str(),
                            hexTnum(W.Q).c_str(), hexTnum(W.Actual).c_str(),
                            hexTnum(W.Optimal).c_str());
  }
  return Payload;
}

bool parseOptimalityShard(const std::string &Payload, OptimalityReport &Out,
                          double &Seconds) {
  PayloadReader Reader(Payload);
  if (!Reader.u64("pairs", Out.PairsChecked) ||
      !Reader.u64("optimal", Out.OptimalPairs) || !Reader.seconds(Seconds))
    return false;
  if (Reader.has("witness")) {
    uint64_t W[8];
    if (!Reader.hexWords("witness", W, 8))
      return false;
    Out.Failure = OptimalityCounterexample{Tnum(W[0], W[1]), Tnum(W[2], W[3]),
                                           Tnum(W[4], W[5]),
                                           Tnum(W[6], W[7])};
  }
  return true;
}

std::string serializeMonotonicityShard(const MonotonicityReport &Report,
                                       double Seconds) {
  std::string Payload =
      formatString("quadruples %" PRIu64 "\nseconds %.9g\n",
                   Report.QuadruplesChecked, Seconds);
  if (Report.Failure) {
    const MonotonicityCounterexample &W = *Report.Failure;
    Payload += formatString("witness %s %s %s %s %s %s\n",
                            hexTnum(W.P1).c_str(), hexTnum(W.Q1).c_str(),
                            hexTnum(W.P2).c_str(), hexTnum(W.Q2).c_str(),
                            hexTnum(W.R1).c_str(), hexTnum(W.R2).c_str());
  }
  return Payload;
}

bool parseMonotonicityShard(const std::string &Payload,
                            MonotonicityReport &Out, double &Seconds) {
  PayloadReader Reader(Payload);
  if (!Reader.u64("quadruples", Out.QuadruplesChecked) ||
      !Reader.seconds(Seconds))
    return false;
  if (Reader.has("witness")) {
    uint64_t W[12];
    if (!Reader.hexWords("witness", W, 12))
      return false;
    Out.Failure = MonotonicityCounterexample{
        Tnum(W[0], W[1]), Tnum(W[2], W[3]),  Tnum(W[4], W[5]),
        Tnum(W[6], W[7]), Tnum(W[8], W[9]), Tnum(W[10], W[11])};
  }
  return true;
}

std::string serializePrecisionShard(const PrecisionReport &Report,
                                    double Seconds) {
  std::string Payload = formatString(
      "pairs %" PRIu64 "\nsumgap %" PRIu64 "\nmaxgap %u\nseconds %.9g\n",
      Report.PairsChecked, Report.SumGap, Report.MaxGap, Seconds);
  // Sparse histogram, one DISTINCT key per nonzero bucket: PayloadReader
  // keeps only the first occurrence of a duplicate key, so the buckets
  // cannot share one.
  for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
    if (Report.Buckets[G])
      Payload += formatString("hist%u %" PRIu64 "\n", G, Report.Buckets[G]);
  if (Report.Worst) {
    const PrecisionWitness &W = *Report.Worst;
    Payload += formatString("witness %s %s %s %s\n", hexTnum(W.P).c_str(),
                            hexTnum(W.Q).c_str(), hexTnum(W.Actual).c_str(),
                            hexTnum(W.Optimal).c_str());
  }
  return Payload;
}

bool parsePrecisionShard(const std::string &Payload, PrecisionReport &Out,
                         double &Seconds) {
  PayloadReader Reader(Payload);
  uint64_t MaxGap = 0;
  if (!Reader.u64("pairs", Out.PairsChecked) ||
      !Reader.u64("sumgap", Out.SumGap) || !Reader.u64("maxgap", MaxGap) ||
      MaxGap >= PrecisionGapBuckets || !Reader.seconds(Seconds))
    return false;
  Out.MaxGap = static_cast<unsigned>(MaxGap);
  for (unsigned G = 0; G != PrecisionGapBuckets; ++G) {
    uint64_t Count = 0;
    if (Reader.u64(formatString("hist%u", G).c_str(), Count))
      Out.Buckets[G] = Count;
  }
  // The witness, when present, is the shard's worst pair: its gap IS
  // maxgap, so the value is not serialized separately.
  if (Reader.has("witness")) {
    uint64_t W[8];
    if (!Reader.hexWords("witness", W, 8))
      return false;
    Out.Worst = PrecisionWitness{Tnum(W[0], W[1]), Tnum(W[2], W[3]),
                                 Tnum(W[4], W[5]), Tnum(W[6], W[7]),
                                 Out.MaxGap};
  }
  return true;
}

/// Parses one shard payload BODY (header already stripped) and folds it
/// into \p Cell according to the cell's property -- the one merge used
/// by both the built-in drivers and the baseline loader, so a
/// --diff-baseline merge can never drift from the live one. False (with
/// \p Error set) on a malformed payload.
bool mergePropertyShard(CampaignCellResult &Cell, size_t CellIndex,
                        const std::string &Payload, std::string &Error) {
  double Seconds = 0;
  bool Ok = false;
  switch (Cell.Cell.Property) {
  case CampaignProperty::Soundness: {
    SoundnessReport Shard;
    Ok = parseSoundnessShard(Payload, Shard, Seconds);
    if (Ok) {
      Cell.Soundness.PairsChecked += Shard.PairsChecked;
      Cell.Soundness.ConcreteChecked += Shard.ConcreteChecked;
      if (Shard.Failure && !Cell.Soundness.Failure)
        Cell.Soundness.Failure = Shard.Failure;
    }
    break;
  }
  case CampaignProperty::Optimality: {
    OptimalityReport Shard;
    Ok = parseOptimalityShard(Payload, Shard, Seconds);
    if (Ok) {
      Cell.Optimality.PairsChecked += Shard.PairsChecked;
      Cell.Optimality.OptimalPairs += Shard.OptimalPairs;
      if (Shard.Failure && !Cell.Optimality.Failure)
        Cell.Optimality.Failure = Shard.Failure;
    }
    break;
  }
  case CampaignProperty::Monotonicity: {
    MonotonicityReport Shard;
    Ok = parseMonotonicityShard(Payload, Shard, Seconds);
    if (Ok) {
      Cell.Monotonicity.QuadruplesChecked += Shard.QuadruplesChecked;
      if (Shard.Failure && !Cell.Monotonicity.Failure)
        Cell.Monotonicity.Failure = Shard.Failure;
    }
    break;
  }
  case CampaignProperty::Precision: {
    PrecisionReport Shard;
    Ok = parsePrecisionShard(Payload, Shard, Seconds);
    if (Ok) {
      Cell.Precision.PairsChecked += Shard.PairsChecked;
      Cell.Precision.SumGap += Shard.SumGap;
      for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
        Cell.Precision.Buckets[G] += Shard.Buckets[G];
      // Strictly-greater replacement in manifest order keeps the
      // earliest shard's witness on ties -- exactly the serial scan's
      // first pair attaining the global maximum.
      if (Shard.MaxGap > Cell.Precision.MaxGap) {
        Cell.Precision.MaxGap = Shard.MaxGap;
        Cell.Precision.Worst = Shard.Worst;
      }
    }
    break;
  }
  }
  if (!Ok) {
    Error = formatString("malformed %s shard payload for cell %zu",
                         campaignPropertyName(Cell.Cell.Property), CellIndex);
    return false;
  }
  Cell.Seconds += Seconds;
  ++Cell.ShardsMerged;
  return true;
}

//===----------------------------------------------------------------------===//
// Serial-prefix normalization
//
// The range sweeps' work counters are scheduling-dependent when a shard
// fails (cancellation). Checkpointed shards must be deterministic, so a
// failing shard is re-normalized to the exact counts a serial walk of
// [Begin, FailIndex] would have produced -- which also makes the merged
// campaign report equal the *serial* checker's report bit for bit.
//===----------------------------------------------------------------------===//

/// Concrete evaluations a serial scan of the witness pair performs: every
/// member pair up to and including the first violating one.
uint64_t evalsUpToViolation(BinaryOp Concrete, unsigned Width, const Tnum &P,
                            const Tnum &Q, const Tnum &R) {
  uint64_t Count = 0;
  bool Done = false;
  forEachMember(P, [&](uint64_t X) {
    if (Done)
      return;
    forEachMember(Q, [&](uint64_t Y) {
      if (Done)
        return;
      ++Count;
      if (!R.contains(applyConcreteBinary(Concrete, X, Y, Width)))
        Done = true;
    });
  });
  return Count;
}

/// Quadruples a serial scan of the witness pair performs, analogously.
uint64_t quadsUpToViolation(BinaryOp Op, MulAlgorithm Mul, unsigned Width,
                            const Tnum &P2, const Tnum &Q2) {
  Tnum R2 = applyAbstractBinary(Op, P2, Q2, Width, Mul);
  uint64_t Count = 0;
  bool Done = false;
  forEachSubTnum(P2, [&](Tnum P1) {
    if (Done)
      return;
    forEachSubTnum(Q2, [&](Tnum Q1) {
      if (Done)
        return;
      ++Count;
      if (!applyAbstractBinary(Op, P1, Q1, Width, Mul).isSubsetOf(R2))
        Done = true;
    });
  });
  return Count;
}

uint64_t pow3(unsigned Exp) {
  uint64_t Value = 1;
  while (Exp--)
    Value *= 3;
  return Value;
}

void normalizeSoundnessFailure(BinaryOp Concrete, const SweepGrid &Grid,
                               uint64_t Begin, uint64_t FailIndex,
                               SoundnessReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  Report.PairsChecked = FailIndex - Begin + 1;
  uint64_t Concrete2 = 0;
  for (uint64_t Index = Begin; Index != FailIndex; ++Index) {
    const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
    const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
    // Fully-scanned pairs cost exactly |gamma(P)| * |gamma(Q)| evals.
    Concrete2 += uint64_t(1) << (std::popcount(P.mask()) +
                                 std::popcount(Q.mask()));
  }
  const SoundnessCounterexample &W = *Report.Failure;
  Concrete2 += evalsUpToViolation(Concrete, Grid.Width, W.P, W.Q, W.R);
  Report.ConcreteChecked = Concrete2;
}

void normalizeMonotonicityFailure(BinaryOp Op, MulAlgorithm Mul,
                                  const SweepGrid &Grid, uint64_t Begin,
                                  uint64_t FailIndex,
                                  MonotonicityReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  uint64_t Quads = 0;
  for (uint64_t Index = Begin; Index != FailIndex; ++Index) {
    const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
    const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
    // A fully-scanned pair visits every refinement pair: the down-set of
    // a tnum with k unknown trits has 3^k elements.
    Quads += pow3(static_cast<unsigned>(std::popcount(P.mask()))) *
             pow3(static_cast<unsigned>(std::popcount(Q.mask())));
  }
  const MonotonicityCounterexample &W = *Report.Failure;
  Quads += quadsUpToViolation(Op, Mul, Grid.Width, W.P2, W.Q2);
  Report.QuadruplesChecked = Quads;
}

/// Early-exit optimality: rescan [Begin, FailIndex) serially to recover
/// the exact prefix OptimalPairs count. The witness is almost always in
/// the first shard of a non-optimal cell, so the rescan is short in
/// practice.
void normalizeOptimalityFailure(BinaryOp Op, MulAlgorithm Mul,
                                const SweepGrid &Grid,
                                const SweepConfig &Config, uint64_t Begin,
                                uint64_t FailIndex,
                                OptimalityReport &Report) {
  assert(Report.Failure && "nothing to normalize");
  Report.PairsChecked = FailIndex - Begin + 1;
  PairMembers Staging;
  uint64_t Optimal = 0;
  for (uint64_t Index = Begin; Index != FailIndex; ++Index) {
    const Tnum &P = Grid.Universe[Index / Grid.NumTnums];
    const Tnum &Q = Grid.Universe[Index % Grid.NumTnums];
    if (applyAbstractBinary(Op, P, Q, Grid.Width, Mul) ==
        optimalAbstractionAt(Op, Grid, Index, Config.Simd, Staging))
      ++Optimal;
  }
  Report.OptimalPairs = Optimal;
}

/// The per-cell pair totals of \p Spec (one grid dimension per width).
std::vector<uint64_t> specCellPairs(const CampaignSpec &Spec) {
  std::vector<uint64_t> CellPairs;
  CellPairs.reserve(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells) {
    uint64_t NumTnums = numWellFormedTnums(Cell.Width);
    CellPairs.push_back(NumTnums * NumTnums);
  }
  return CellPairs;
}

/// The per-cell content fingerprints of \p Spec.
std::vector<uint64_t> specCellFingerprints(const CampaignSpec &Spec) {
  std::vector<uint64_t> Fingerprints;
  Fingerprints.reserve(Spec.Cells.size());
  for (const CampaignCell &Cell : Spec.Cells)
    Fingerprints.push_back(campaignCellFingerprint(Spec, Cell));
  return Fingerprints;
}

} // namespace

//===----------------------------------------------------------------------===//
// runPropertyCampaign -- the driver-registry layer over
// driveCampaignShards: derives stored fingerprints from (content,
// property name, payload version), stamps the payload header on every
// shard a driver produces, and verifies + strips it before any driver
// merges bytes back.
//===----------------------------------------------------------------------===//

ShardDriveResult tnums::runPropertyCampaign(
    const std::vector<PropertyCampaignCell> &Cells, uint64_t Fingerprint,
    const CampaignIO &IO, std::vector<bool> *CellComplete,
    std::vector<CellShardCounts> *CellCounts) {
  std::vector<uint64_t> CellPairs;
  std::vector<uint64_t> CellFingerprints;
  CellPairs.reserve(Cells.size());
  CellFingerprints.reserve(Cells.size());
  for (const PropertyCampaignCell &Cell : Cells) {
    assert(Cell.Driver && "every property cell needs a driver");
    CellPairs.push_back(Cell.TotalPairs);
    CellFingerprints.push_back(
        propertyCellFingerprint(Cell.ContentFingerprint, Cell.Driver->name(),
                                Cell.Driver->payloadVersion()));
  }
  RunShardFn Run = [&](size_t Cell, uint64_t Begin, uint64_t End,
                       ShardRecord &Out) {
    PropertyDriver &Driver = *Cells[Cell].Driver;
    std::string Body;
    bool Terminal = false;
    Driver.runShard(Cell, Begin, End, Body, Terminal);
    Out.Payload = payloadHeaderLine(Driver.name(), Driver.payloadVersion());
    Out.Payload += Body;
    Out.Terminal = Terminal;
  };
  MergeShardFn Merge = [&](size_t Cell, uint64_t Begin, uint64_t End,
                           const ShardRecord &Record,
                           std::string &Error) -> bool {
    PropertyDriver &Driver = *Cells[Cell].Driver;
    std::string Body;
    if (!stripPayloadHeader(Record.Payload, Driver.name(),
                            Driver.payloadVersion(), Cell, Body, Error))
      return false;
    return Driver.mergeShard(Cell, Begin, End, Body, Error);
  };
  return driveCampaignShards(CellPairs, CellFingerprints, Fingerprint, IO,
                             Run, Merge, CellComplete, CellCounts);
}

//===----------------------------------------------------------------------===//
// The built-in property drivers + runCampaign
//===----------------------------------------------------------------------===//

namespace {

/// State the four built-in drivers share: the spec and scheduling config,
/// the per-invocation result cells they fold into, and one sweep grid
/// (universe + member table) per width, shared by every cell, shard, and
/// property at that width and built on first use.
struct CampaignEngine {
  const CampaignSpec &Spec;
  const SweepConfig &Config;
  CampaignResult &Result;
  std::map<unsigned, SweepGrid> Grids;

  const SweepGrid &gridFor(unsigned Width) {
    auto It = Grids.find(Width);
    if (It == Grids.end())
      It = Grids.emplace(Width, makeSweepGrid(Width, Config)).first;
    return It->second;
  }

  AbstractBinaryFn abstractFor(const CampaignCell &Cell) const {
    unsigned Width = Cell.Width;
    if (Spec.overrideApplies(Cell)) {
      OperatorOverrideFn Override = Spec.OperatorOverride;
      return [Override, Width](const Tnum &P, const Tnum &Q) {
        return Override(P, Q, Width);
      };
    }
    BinaryOp Op = Cell.Op;
    MulAlgorithm Mul = Cell.Mul;
    return [Op, Mul, Width](const Tnum &P, const Tnum &Q) {
      return applyAbstractBinary(Op, P, Q, Width, Mul);
    };
  }
};

/// Built-in driver plumbing: name and payload version come from the
/// property enum, merging goes through the shared mergePropertyShard
/// fold (also used by the baseline loader).
class BuiltinPropertyDriver : public PropertyDriver {
protected:
  CampaignEngine &Engine;
  const CampaignProperty Property;

  BuiltinPropertyDriver(CampaignEngine &Engine, CampaignProperty Property)
      : Engine(Engine), Property(Property) {}

  const CampaignCell &cell(size_t Index) const {
    return Engine.Spec.Cells[Index];
  }

public:
  const char *name() const override { return campaignPropertyName(Property); }
  unsigned payloadVersion() const override {
    return campaignPropertyPayloadVersion(Property);
  }
  bool mergeShard(size_t Cell, uint64_t, uint64_t,
                  const std::string &Payload, std::string &Error) override {
    return mergePropertyShard(Engine.Result.Cells[Cell], Cell, Payload,
                              Error);
  }
};

class SoundnessDriver final : public BuiltinPropertyDriver {
public:
  explicit SoundnessDriver(CampaignEngine &Engine)
      : BuiltinPropertyDriver(Engine, CampaignProperty::Soundness) {}

  void runShard(size_t CellIndex, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &Terminal) override {
    const CampaignCell &Cell = cell(CellIndex);
    const SweepGrid &Grid = Engine.gridFor(Cell.Width);
    auto Start = std::chrono::steady_clock::now();
    std::optional<uint64_t> FailIndex;
    SoundnessReport Report =
        checkSoundnessRangeParallel(Cell.Op, Engine.abstractFor(Cell), Grid,
                                    Begin, End, Engine.Config, &FailIndex);
    if (Report.Failure) {
      normalizeSoundnessFailure(Cell.Op, Grid, Begin, *FailIndex, Report);
      Terminal = true; // Soundness cells stop at the first witness.
    }
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Payload = serializeSoundnessShard(Report, Elapsed.count());
  }
};

class OptimalityDriver final : public BuiltinPropertyDriver {
public:
  explicit OptimalityDriver(CampaignEngine &Engine)
      : BuiltinPropertyDriver(Engine, CampaignProperty::Optimality) {}

  void runShard(size_t CellIndex, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &Terminal) override {
    const CampaignCell &Cell = cell(CellIndex);
    const SweepGrid &Grid = Engine.gridFor(Cell.Width);
    auto Start = std::chrono::steady_clock::now();
    std::optional<uint64_t> FailIndex;
    OptimalityReport Report = checkOptimalityRangeParallel(
        Cell.Op, Cell.Mul, Grid, Begin, End, Engine.Config,
        /*StopAtFirst=*/Engine.Spec.OptimalityEarlyExit, &FailIndex);
    if (Report.Failure && Engine.Spec.OptimalityEarlyExit) {
      normalizeOptimalityFailure(Cell.Op, Cell.Mul, Grid, Engine.Config,
                                 Begin, *FailIndex, Report);
      Terminal = true;
    }
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Payload = serializeOptimalityShard(Report, Elapsed.count());
  }
};

class MonotonicityDriver final : public BuiltinPropertyDriver {
public:
  explicit MonotonicityDriver(CampaignEngine &Engine)
      : BuiltinPropertyDriver(Engine, CampaignProperty::Monotonicity) {}

  void runShard(size_t CellIndex, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &Terminal) override {
    const CampaignCell &Cell = cell(CellIndex);
    const SweepGrid &Grid = Engine.gridFor(Cell.Width);
    auto Start = std::chrono::steady_clock::now();
    std::optional<uint64_t> FailIndex;
    MonotonicityReport Report = checkMonotonicityRangeParallel(
        Cell.Op, Cell.Mul, Grid, Begin, End, Engine.Config, &FailIndex);
    if (Report.Failure) {
      normalizeMonotonicityFailure(Cell.Op, Cell.Mul, Grid, Begin,
                                   *FailIndex, Report);
      Terminal = true;
    }
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Payload = serializeMonotonicityShard(Report, Elapsed.count());
  }
};

class PrecisionDriver final : public BuiltinPropertyDriver {
public:
  explicit PrecisionDriver(CampaignEngine &Engine)
      : BuiltinPropertyDriver(Engine, CampaignProperty::Precision) {}

  void runShard(size_t CellIndex, uint64_t Begin, uint64_t End,
                std::string &Payload, bool &) override {
    struct ScanMetrics {
      Counter Cells{"tnums_precision_cells_total"};
    };
    static ScanMetrics Metrics;
    if (Begin == 0)
      Metrics.Cells.add(1);
    // A measurement has no terminal shards: every pair is scanned.
    const CampaignCell &Cell = cell(CellIndex);
    const SweepGrid &Grid = Engine.gridFor(Cell.Width);
    auto Start = std::chrono::steady_clock::now();
    PrecisionReport Report =
        checkPrecisionRangeParallel(Cell.Op, Engine.abstractFor(Cell), Grid,
                                    Begin, End, Engine.Config);
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Payload = serializePrecisionShard(Report, Elapsed.count());
  }

  bool mergeShard(size_t Cell, uint64_t Begin, uint64_t End,
                  const std::string &Payload, std::string &Error) override {
    struct MergeMetrics {
      Histogram MergeNs{"tnums_precision_merge_ns"};
    };
    static MergeMetrics Metrics;
    const uint64_t StartNs = metricsEnabled() ? traceNowNs() : 0;
    bool Ok =
        BuiltinPropertyDriver::mergeShard(Cell, Begin, End, Payload, Error);
    if (metricsEnabled())
      Metrics.MergeNs.record(traceNowNs() - StartNs);
    return Ok;
  }
};

} // namespace

CampaignResult tnums::runCampaign(const CampaignSpec &Spec,
                                  const CampaignIO &IO,
                                  const SweepConfig &Config) {
  CampaignResult Result;
  if (Spec.OperatorOverride && Spec.OverrideTag.empty()) {
    Result.Error = "an OperatorOverride requires an OverrideTag (the "
                   "fingerprint cannot hash a function)";
    return Result;
  }
  for (const CampaignCell &Cell : Spec.Cells)
    if (isShiftOp(Cell.Op) && (Cell.Width & (Cell.Width - 1)) != 0) {
      Result.Error = formatString(
          "cell %s/%s: shift verification requires a power-of-two width, "
          "got %u",
          binaryOpName(Cell.Op), campaignPropertyName(Cell.Property),
          Cell.Width);
      return Result;
    }

  std::vector<uint64_t> CellPairs = specCellPairs(Spec);

  Result.Cells.resize(Spec.Cells.size());
  for (size_t I = 0; I != Spec.Cells.size(); ++I)
    Result.Cells[I].Cell = Spec.Cells[I];

  CampaignEngine Engine{Spec, Config, Result, {}};
  SoundnessDriver Soundness(Engine);
  OptimalityDriver Optimality(Engine);
  MonotonicityDriver Monotonicity(Engine);
  PrecisionDriver Precision(Engine);
  auto driverFor = [&](CampaignProperty Property) -> PropertyDriver * {
    switch (Property) {
    case CampaignProperty::Soundness:
      return &Soundness;
    case CampaignProperty::Optimality:
      return &Optimality;
    case CampaignProperty::Monotonicity:
      return &Monotonicity;
    case CampaignProperty::Precision:
      return &Precision;
    }
    return nullptr;
  };

  std::vector<PropertyCampaignCell> Cells;
  Cells.reserve(Spec.Cells.size());
  for (size_t I = 0; I != Spec.Cells.size(); ++I)
    Cells.push_back(PropertyCampaignCell{
        CellPairs[I], cellContentFingerprint(Spec, Spec.Cells[I]),
        driverFor(Spec.Cells[I].Property)});

  std::vector<bool> CellComplete;
  std::vector<CellShardCounts> CellCounts;
  uint64_t Fingerprint = campaignFingerprint(Spec, IO);
  ShardDriveResult Drive = runPropertyCampaign(Cells, Fingerprint, IO,
                                               &CellComplete, &CellCounts);
  Result.ShardsTotal = Drive.ShardsTotal;
  Result.ShardsRun = Drive.ShardsRun;
  Result.ShardsResumed = Drive.ShardsResumed;
  Result.ShardsSkipped = Drive.ShardsSkipped;
  Result.ShardsInvalidated = Drive.ShardsInvalidated;
  if (!Drive.ok()) {
    Result.Error = std::move(Drive.Error);
    return Result;
  }
  Result.Complete = Drive.Complete;
  for (size_t I = 0; I != Result.Cells.size(); ++I) {
    Result.Cells[I].Complete = CellComplete[I];
    Result.Cells[I].ShardsRun = CellCounts[I].Run;
    Result.Cells[I].ShardsResumed = CellCounts[I].Resumed;
    Result.Cells[I].ShardsInvalidated = CellCounts[I].Invalidated;
    Result.Cells[I].ShardsSkipped = CellCounts[I].Skipped;
    // ShardsTotal per cell: count manifest entries (recompute cheaply;
    // the (Total - 1) form cannot overflow for huge ShardPairs).
    uint64_t Total = CellPairs[I];
    Result.Cells[I].ShardsTotal =
        Total == 0 ? 1 : (Total - 1) / IO.ShardPairs + 1;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// diffCampaignBaseline
//===----------------------------------------------------------------------===//

namespace {

/// Field-wise equality of the property-relevant report of two merged
/// cells (counters AND witness; the informational Seconds is ignored).
bool sameMergedReport(const CampaignCellResult &A,
                      const CampaignCellResult &B) {
  switch (A.Cell.Property) {
  case CampaignProperty::Soundness: {
    if (A.Soundness.PairsChecked != B.Soundness.PairsChecked ||
        A.Soundness.ConcreteChecked != B.Soundness.ConcreteChecked ||
        A.Soundness.Failure.has_value() != B.Soundness.Failure.has_value())
      return false;
    if (!A.Soundness.Failure)
      return true;
    const SoundnessCounterexample &X = *A.Soundness.Failure;
    const SoundnessCounterexample &Y = *B.Soundness.Failure;
    return X.P == Y.P && X.Q == Y.Q && X.X == Y.X && X.Y == Y.Y &&
           X.Z == Y.Z && X.R == Y.R;
  }
  case CampaignProperty::Optimality: {
    if (A.Optimality.PairsChecked != B.Optimality.PairsChecked ||
        A.Optimality.OptimalPairs != B.Optimality.OptimalPairs ||
        A.Optimality.Failure.has_value() != B.Optimality.Failure.has_value())
      return false;
    if (!A.Optimality.Failure)
      return true;
    const OptimalityCounterexample &X = *A.Optimality.Failure;
    const OptimalityCounterexample &Y = *B.Optimality.Failure;
    return X.P == Y.P && X.Q == Y.Q && X.Actual == Y.Actual &&
           X.Optimal == Y.Optimal;
  }
  case CampaignProperty::Monotonicity: {
    if (A.Monotonicity.QuadruplesChecked !=
            B.Monotonicity.QuadruplesChecked ||
        A.Monotonicity.Failure.has_value() !=
            B.Monotonicity.Failure.has_value())
      return false;
    if (!A.Monotonicity.Failure)
      return true;
    const MonotonicityCounterexample &X = *A.Monotonicity.Failure;
    const MonotonicityCounterexample &Y = *B.Monotonicity.Failure;
    return X.P1 == Y.P1 && X.Q1 == Y.Q1 && X.P2 == Y.P2 && X.Q2 == Y.Q2 &&
           X.R1 == Y.R1 && X.R2 == Y.R2;
  }
  case CampaignProperty::Precision: {
    if (A.Precision.PairsChecked != B.Precision.PairsChecked ||
        A.Precision.SumGap != B.Precision.SumGap ||
        A.Precision.MaxGap != B.Precision.MaxGap ||
        A.Precision.Worst.has_value() != B.Precision.Worst.has_value())
      return false;
    for (unsigned G = 0; G != PrecisionGapBuckets; ++G)
      if (A.Precision.Buckets[G] != B.Precision.Buckets[G])
        return false;
    if (!A.Precision.Worst)
      return true;
    const PrecisionWitness &X = *A.Precision.Worst;
    const PrecisionWitness &Y = *B.Precision.Worst;
    return X.P == Y.P && X.Q == Y.Q && X.Actual == Y.Actual &&
           X.Optimal == Y.Optimal && X.Gap == Y.Gap;
  }
  }
  return false;
}

/// "mul[our_mul]/w6"-style cell coordinates for the precision-delta
/// lines (the property is implied; only Precision cells are printed).
std::string precisionCellLabel(const CampaignCell &Cell) {
  if (Cell.Op == BinaryOp::Mul)
    return formatString("mul[%s]/w%u", mulAlgorithmName(Cell.Mul),
                        Cell.Width);
  return formatString("%s/w%u", binaryOpName(Cell.Op), Cell.Width);
}

} // namespace

CampaignDiffResult tnums::diffCampaignBaseline(const CampaignSpec &Spec,
                                               const CampaignIO &IO,
                                               const std::string &BaselineDir,
                                               const CampaignResult &Current) {
  CampaignDiffResult Diff;
  if (Current.Cells.size() != Spec.Cells.size()) {
    Diff.Error = "diff baseline: Current does not match Spec";
    return Diff;
  }
  std::vector<uint64_t> CellPairs = specCellPairs(Spec);
  std::vector<uint64_t> CellFingerprints = specCellFingerprints(Spec);
  const std::vector<ShardRef> Manifest =
      buildManifest(CellPairs, IO.ShardPairs);

  // A diff is a READ: a mistyped baseline path must be a hard error, not
  // a freshly created empty store reporting "0 cells reused" -- so check
  // for the manifest before open() (which would create dir + manifest).
  struct stat St;
  if (::stat((BaselineDir + "/campaign.manifest").c_str(), &St) != 0) {
    Diff.Error = formatString(
        "%s is not a campaign checkpoint directory (no campaign.manifest)",
        BaselineDir.c_str());
    return Diff;
  }

  // The baseline must be the same campaign SHAPE; its cell fingerprints
  // may of course differ -- that difference is the report.
  std::string Error;
  std::optional<CheckpointStore> Store = CheckpointStore::open(
      BaselineDir, campaignFingerprint(Spec, IO), Manifest.size(), Error);
  if (!Store) {
    Diff.Error = std::move(Error);
    return Diff;
  }

  Diff.Cells.resize(Spec.Cells.size());
  for (size_t Cell = 0; Cell != Spec.Cells.size(); ++Cell) {
    CampaignCellDiff &Out = Diff.Cells[Cell];
    Out.Cell = Spec.Cells[Cell];
    Out.Baseline.Cell = Spec.Cells[Cell];
    bool Complete = true;
    bool Consistent = true;
    for (uint64_t Id = 0; Id != Manifest.size() && Consistent; ++Id) {
      const ShardRef &Ref = Manifest[Id];
      if (Ref.Cell != Cell)
        continue;
      if (!Store->hasShard(Id)) {
        Complete = false;
        break;
      }
      std::optional<ShardRecord> Record = Store->loadShard(Id, Error);
      if (!Record) {
        Diff.Error = Error.empty()
                         ? formatString("baseline shard %" PRIu64
                                        " vanished",
                                        Id)
                         : std::move(Error);
        return Diff;
      }
      if (Record->Cell != Ref.Cell) {
        Diff.Error = formatString(
            "baseline shard %" PRIu64 " records cell %" PRIu64
            " but the manifest places it in cell %zu; the store is corrupt",
            Id, Record->Cell, Ref.Cell);
        return Diff;
      }
      if (!Out.InBaseline) {
        Out.InBaseline = true;
        Out.BaselineFingerprint = Record->CellFingerprint;
      } else if (Record->CellFingerprint != Out.BaselineFingerprint) {
        // A half-migrated cell (some shards re-run under a newer operator
        // than others) has no single coherent baseline verdict.
        Consistent = false;
        break;
      }
      // Baseline shards carry the same engine-stamped payload header as
      // live ones; verify and strip it with the same helper so a
      // baseline from an incompatible payload version is refused, not
      // misparsed.
      std::string Body;
      if (!stripPayloadHeader(
              Record->Payload, campaignPropertyName(Out.Cell.Property),
              campaignPropertyPayloadVersion(Out.Cell.Property), Cell, Body,
              Error) ||
          !mergePropertyShard(Out.Baseline, Cell, Body, Error)) {
        Diff.Error = std::move(Error);
        return Diff;
      }
      if (Record->Terminal)
        break; // The cell's merge ends here by construction.
    }
    Out.BaselineComplete = Out.InBaseline && Complete && Consistent;
    Out.Baseline.Complete = Out.BaselineComplete;
    Out.Reused = Out.InBaseline &&
                 Out.BaselineFingerprint == CellFingerprints[Cell];
    if (Out.InBaseline)
      ++(Out.Reused ? Diff.CellsReused : Diff.CellsRerun);
    if (Out.BaselineComplete && Current.Cells[Cell].Complete) {
      Out.ReportChanged = !sameMergedReport(Out.Baseline, Current.Cells[Cell]);
      Out.VerdictChanged =
          Out.Baseline.holds() != Current.Cells[Cell].holds();
      if (Out.VerdictChanged)
        ++Diff.CellsVerdictChanged;
    }
  }
  return Diff;
}

uint64_t
tnums::printPrecisionDeltas([[maybe_unused]] const CampaignSpec &Spec,
                            const CampaignDiffResult &Diff,
                            const CampaignResult &Current, std::FILE *Out) {
  uint64_t Deltas = 0;
  assert(Diff.Cells.size() == Spec.Cells.size() &&
         Current.Cells.size() == Spec.Cells.size() &&
         "diff/current must match the spec");
  for (size_t I = 0; I != Diff.Cells.size(); ++I) {
    const CampaignCellDiff &Cell = Diff.Cells[I];
    if (Cell.Cell.Property != CampaignProperty::Precision)
      continue;
    if (!Cell.BaselineComplete || !Current.Cells[I].Complete ||
        !Cell.ReportChanged)
      continue;
    const PrecisionReport &Old = Cell.Baseline.Precision;
    const PrecisionReport &New = Current.Cells[I].Precision;
    std::fprintf(Out,
                 "precision delta %s: sum_gap %llu -> %llu, max_gap %u -> "
                 "%u\n",
                 precisionCellLabel(Cell.Cell).c_str(),
                 static_cast<unsigned long long>(Old.SumGap),
                 static_cast<unsigned long long>(New.SumGap), Old.MaxGap,
                 New.MaxGap);
    ++Deltas;
  }
  std::fprintf(Out, "%llu precision deltas vs baseline\n",
               static_cast<unsigned long long>(Deltas));
  return Deltas;
}

//===----------------------------------------------------------------------===//
// sweepMulSoundness -- now a thin wrapper over the campaign engine
//===----------------------------------------------------------------------===//

std::vector<MulSweepResult>
tnums::sweepMulSoundness(const std::vector<unsigned> &Widths,
                         const SweepConfig &Config) {
  CampaignSpec Spec;
  for (unsigned Width : Widths)
    for (MulAlgorithm Algorithm : AllMulAlgorithms)
      Spec.Cells.push_back(CampaignCell{BinaryOp::Mul, Algorithm, Width,
                                        CampaignProperty::Soundness});
  // In-memory, single-invocation: one shard per cell keeps the scheduling
  // identical to the pre-campaign full-grid sweep.
  CampaignIO IO;
  IO.ShardPairs = UINT64_MAX;
  CampaignResult Campaign = runCampaign(Spec, IO, Config);
  assert(Campaign.ok() && Campaign.Complete &&
         "in-memory mul campaign cannot fail to run");
  std::vector<MulSweepResult> Results;
  Results.reserve(Campaign.Cells.size());
  for (const CampaignCellResult &Cell : Campaign.Cells)
    Results.push_back(MulSweepResult{Cell.Cell.Mul, Cell.Cell.Width,
                                     Cell.Soundness, Cell.Seconds});
  return Results;
}
