//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the command-line
/// options, the outcome a workload hands back to the report, the in-memory
/// span log of the traced run, and small measurement helpers (clocks,
/// percentiles, peak RSS, the filesystem type of the cache directory).
///
/// Spans are recorded only by the benchmark's own files, around its calls
/// into each layer's public functions; nothing inside the program is
/// instrumented. A null SpanLog means the untraced run: every ScopedSpan is
/// then one untaken branch.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_PERFBENCH_BENCH_H
#define TNUMS_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for cache stores, sockets and the span file.
  std::string WorkDir;
};

/// Monotonic time in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since \p StartNs.
inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Whether a workload repeats its set-up once more: at least 5 times and
/// for at least 0.25 s (at most 1000 times), so that setup_s, the median,
/// is not a single cold-start sample.
inline bool moreSetup(unsigned Done, uint64_t StartNs) {
  return Done < 5 || (Done < 1000 && secondsSince(StartNs) < 0.25);
}

/// One named value with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to the report.
struct Outcome {
  /// Median set-up time over the moreSetup repetitions.
  double SetupS = 0;
  /// Work items per second in the untraced timed region.
  double ThroughputPerS = 0;
  /// Items the timed region processed, and how many of them the
  /// workload's oracle found wrong.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Whole-run checks that are not per item (closed-form counts,
  /// cross-pass fingerprints). False fails the run.
  bool OracleOk = true;
  /// Per-layer metrics by name (filled by the traced run).
  std::map<std::string, Metric> Layer;
  /// Fingerprints and other report-only facts, printed as "info" lines.
  std::vector<std::pair<std::string, std::string>> Info;

  void layer(const std::string &Name, double Value, const char *Unit) {
    Layer[Name] = Metric{Value, Unit};
  }
  void info(const std::string &Key, const std::string &Value) {
    Info.emplace_back(Key, Value);
  }
};

/// One timed interval: name, start, end, the span that caused it, and the
/// request it belongs to (0 = none).
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;
  uint64_t RequestId = 0;
};

/// An append-only, single-thread span buffer. Threads keep their own logs
/// and the owner absorbs them after joining.
class SpanLog {
public:
  int32_t open(const char *Name, int32_t Parent, uint64_t RequestId = 0) {
    Spans.push_back(Span{Name, nowNs(), 0, Parent, RequestId});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void close(int32_t Id) { Spans[static_cast<size_t>(Id)].EndNs = nowNs(); }

  /// Appends \p Child's spans; its root spans (Parent == -1) become
  /// children of \p AttachTo.
  void absorb(const SpanLog &Child, int32_t AttachTo);

  /// Share of span \p Id's interval that none of its children cover.
  double uncoveredFraction(int32_t Id) const;
  /// The same share over all spans named \p Name together.
  double uncoveredFraction(const char *Name) const;

  /// Writes one JSON object per span, with its self time: the duration
  /// minus the union of its children's intervals.
  bool writeJsonLines(const std::string &Path) const;

  std::vector<Span> Spans;
};

/// RAII span; does nothing when the log is null (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *LogV, const char *Name, int32_t Parent,
             uint64_t RequestId = 0)
      : Log(LogV), Id(LogV ? LogV->open(Name, Parent, RequestId) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t id() const { return Id; }

private:
  SpanLog *Log;
  int32_t Id;
};

/// Nearest-rank percentile of \p Values (sorted in place); 0 if empty.
double percentile(std::vector<double> &Values, double Fraction);

/// Median of \p Values; 0 if empty.
double median(std::vector<double> Values);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Filesystem type of \p Path ("ext4", "tmpfs", ... or the hex magic).
std::string filesystemType(const std::string &Path);

/// Removes \p Path and everything below it; missing paths are fine.
void removeTree(const std::string &Path);

/// Creates \p Path and its parents; true if it exists afterwards.
bool makeDir(const std::string &Path);

/// "%016llx" of \p Value.
std::string hex64(uint64_t Value);

/// The workloads.
Outcome runVerifyBatch(const Options &Opts);
Outcome runDaemonCache(const Options &Opts);
Outcome runCampaign(const Options &Opts);
Outcome runExec(const Options &Opts);

} // namespace perfbench

#endif // TNUMS_PERFBENCH_BENCH_H
