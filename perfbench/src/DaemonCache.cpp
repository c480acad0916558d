//===- perfbench/src/DaemonCache.cpp - The daemon-cache workloads ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// daemon-cache: an in-process Daemon on a UNIX socket with 2 workers,
/// driven closed-loop by 2 DaemonClient connections. Each client submits a
/// disjoint half of one seeded loader stream, in order, and waits for
/// every verdict before the next submit.
///
///  * each cold pass starts a fresh daemon on an empty cache directory, so
///    durable verdict stores dominate it;
///  * warm passes restart the daemon once on the store the last cold pass
///    filled and replay the stream: the first replay reads the verdicts
///    from disk, the later ones from the cache's memory map, so the wire,
///    queueing and cache lookups dominate them.
///
/// The end-to-end throughput is the warm state's median pass. Cold
/// passes, and warm passes that read the disk, wait on a shared disk and
/// repeat too poorly to gate on; the cold pass fills the store, the traced
/// run reports its numbers per layer, and the cache probe times disk
/// lookups directly. Daemon start, stop and directory clean-up are outside
/// the timed region. Oracle: every verdict frame (with the cache-hit flag
/// cleared) is byte-equal to the in-process verifyRequestInto result, and
/// byte-equal between the cold and the warm pass over the same store.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "service/Daemon.h"
#include "service/DaemonClient.h"
#include "service/VerdictCache.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include <sched.h>
#include <unistd.h>

using namespace tnums;
using namespace tnums::service;

namespace perfbench {
namespace {

constexpr uint64_t StreamDraws = 1800;
constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;

/// A daemon serving on its own event-loop thread; stopped on destruction.
class RunningDaemon {
public:
  static std::unique_ptr<RunningDaemon> start(const std::string &Socket,
                                              const std::string &CacheDir,
                                              std::string &Error) {
    DaemonConfig Config;
    Config.SocketPath = Socket;
    Config.NumThreads = Workers;
    Config.CacheDir = CacheDir;
    std::optional<Daemon> D = Daemon::create(Config, Error);
    if (!D)
      return nullptr;
    std::unique_ptr<RunningDaemon> Running(new RunningDaemon(std::move(*D)));
    RunningDaemon *Self = Running.get();
    Running->Loop = std::thread([Self] { Self->D.run(Self->LoopError); });
    return Running;
  }
  ~RunningDaemon() {
    D.requestStop();
    Loop.join();
  }
  RunningDaemon(const RunningDaemon &) = delete;
  RunningDaemon &operator=(const RunningDaemon &) = delete;

private:
  explicit RunningDaemon(Daemon DV) : D(std::move(DV)) {}

  Daemon D;
  std::string LoopError;
  std::thread Loop;
};

/// The verdict bytes a client received, with the cache-hit flag cleared so
/// a stored verdict compares equal to the analyzed one.
std::string verdictFrame(VerdictMsg Verdict) {
  Verdict.CacheHit = false;
  return encodeVerdict(Verdict);
}

/// The in-process reference frames.
std::vector<std::string> referenceFrames(const ProgramStream &Stream) {
  std::vector<std::string> Frames;
  bpf::Analyzer Engine;
  for (const VerifyRequest &Request : Stream.Requests) {
    VerifyResult Result;
    verifyRequestInto(Request, /*KeepStates=*/false, Engine, Result);
    Frames.push_back(verdictFrame(resultToVerdict(Result, false)));
  }
  return Frames;
}

/// Median of a log2-bucketed histogram delta (support/Metrics.h), with
/// linear interpolation inside the bucket.
double histogramMedian(const MetricValue *Before, const MetricValue *After) {
  if (!After)
    return 0;
  std::vector<uint64_t> Delta(After->Buckets);
  if (Before)
    for (size_t I = 0; I != Delta.size() && I != Before->Buckets.size(); ++I)
      Delta[I] -= Before->Buckets[I];
  uint64_t Total = 0;
  for (uint64_t N : Delta)
    Total += N;
  double Half = static_cast<double>(Total) / 2, Seen = 0;
  for (size_t I = 0; I != Delta.size(); ++I) {
    if (Seen + static_cast<double>(Delta[I]) >= Half && Delta[I]) {
      double Lo = I == 0 ? 0 : std::ldexp(1.0, static_cast<int>(I) - 1);
      double Hi = std::ldexp(1.0, static_cast<int>(I));
      return Lo + (Hi - Lo) * (Half - Seen) / static_cast<double>(Delta[I]);
    }
    Seen += static_cast<double>(Delta[I]);
  }
  return 0;
}

/// One closed-loop pass of both clients over the stream.
struct Pass {
  double Seconds = 0;
  std::vector<std::string> Frames;
  std::vector<double> LatencyMs;
  uint64_t Failures = 0; ///< Transport or protocol failures.
  StatsReplyMsg Before, After;
  double DaemonTotalP50Us = 0; ///< Daemon-side "total" phase median.
};

const char *const TotalPhase = "tnumsd_request_phase_ns{phase=\"total\"}";

bool runPass(const std::string &Socket, const ProgramStream &Stream,
             SpanLog *Log, int32_t Root, Pass &Out, std::string &Error) {
  size_t N = Stream.Requests.size();
  Out.Frames.assign(N, std::string());
  std::optional<DaemonClient> Probe =
      DaemonClient::connectUnixSocket(Socket, "probe", 5000, Error);
  if (!Probe)
    return false;
  std::vector<std::optional<DaemonClient>> Conns;
  for (unsigned C = 0; C != Clients; ++C) {
    Conns.push_back(DaemonClient::connectUnixSocket(
        Socket, "client" + std::to_string(C), 5000, Error));
    if (!Conns.back())
      return false;
  }
  MetricsReplyMsg MetricsBefore, MetricsAfter;
  if (!Probe->queryStats(Out.Before, Error) ||
      (Log && !Probe->queryMetrics(MetricsBefore, Error)))
    return false;

  std::vector<SpanLog> ThreadLogs(Clients);
  std::vector<std::vector<double>> Latencies(Clients);
  std::vector<uint64_t> Failures(Clients, 0);
  uint64_t Start = nowNs();
  int32_t PassSpan = Log ? Log->open("daemon.pass", Root) : -1;
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        SpanLog *TLog = Log ? &ThreadLogs[C] : nullptr;
        ScopedSpan Client(TLog, "client", -1);
        std::string ClientError;
        for (size_t I = N * C / Clients; I != N * (C + 1) / Clients; ++I) {
          uint64_t T0 = nowNs();
          VerdictMsg Verdict;
          bool Ok;
          {
            ScopedSpan S(TLog, "service.submit", Client.id(), I + 1);
            Ok = Conns[C]->submitWithRetry(Stream.Requests[I], 0, 120000,
                                           Verdict, ClientError);
          }
          Latencies[C].push_back(static_cast<double>(nowNs() - T0) * 1e-6);
          if (!Ok) {
            ++Failures[C];
            continue;
          }
          Out.Frames[I] = verdictFrame(std::move(Verdict));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  Out.Seconds = secondsSince(Start);
  if (Log)
    Log->close(PassSpan);
  for (unsigned C = 0; C != Clients; ++C) {
    if (Log)
      Log->absorb(ThreadLogs[C], PassSpan);
    Out.LatencyMs.insert(Out.LatencyMs.end(), Latencies[C].begin(),
                         Latencies[C].end());
    Out.Failures += Failures[C];
  }
  if (!Probe->queryStats(Out.After, Error) ||
      (Log && !Probe->queryMetrics(MetricsAfter, Error)))
    return false;
  if (Log) {
    MetricsSnapshot B{MetricsBefore.Metrics}, A{MetricsAfter.Metrics};
    Out.DaemonTotalP50Us =
        histogramMedian(B.find(TotalPhase), A.find(TotalPhase)) * 1e-3;
  }
  return true;
}

/// Which cache state the timed passes see.
enum class CacheState { Cold, Warm };

/// Timed passes until \p Budget seconds of pass time are spent.
struct PassRuns {
  double Seconds = 0;
  uint64_t Verdicts = 0;
  uint64_t Failed = 0; ///< Transport failures + oracle mismatches.
  uint64_t CacheHits = 0, Analyses = 0, Busy = 0;
  std::vector<double> LatencyMs;
  std::vector<double> TransportUs;
  std::vector<double> PassRates; ///< Verdicts per second of each pass.
  std::vector<std::string> LastFrames; ///< The last pass's verdict frames.
  unsigned Passes = 0;
};

struct Workspace {
  std::string Socket;
  std::string Dir; ///< Store directory of the warm passes / last cold pass.
};

bool runPasses(CacheState State, const Workspace &Ws,
               const ProgramStream &Stream,
               const std::vector<std::string> &Reference, double Budget,
               SpanLog *Log, int32_t Root, PassRuns &Runs,
               std::string &Error) {
  std::unique_ptr<RunningDaemon> D;
  while (Runs.Seconds < Budget || Runs.Passes == 0) {
    if (State == CacheState::Cold) {
      D.reset();
      removeTree(Ws.Dir);
      if (!makeDir(Ws.Dir)) {
        Error = "cannot create " + Ws.Dir;
        return false;
      }
    }
    if (!D && !(D = RunningDaemon::start(Ws.Socket, Ws.Dir, Error)))
      return false;
    Pass P;
    if (!runPass(Ws.Socket, Stream, Log, Root, P, Error))
      return false;
    ++Runs.Passes;
    Runs.Seconds += P.Seconds;
    Runs.Verdicts += Stream.Requests.size();
    Runs.PassRates.push_back(static_cast<double>(Stream.Requests.size()) /
                             P.Seconds);
    Runs.Failed += P.Failures;
    for (size_t I = 0; I != Reference.size(); ++I)
      Runs.Failed += !P.Frames[I].empty() && P.Frames[I] != Reference[I];
    Runs.CacheHits += P.After.cacheHits() - P.Before.cacheHits();
    Runs.Analyses += P.After.Analyses - P.Before.Analyses;
    Runs.Busy += (P.After.BusyPool + P.After.BusyQuota) -
                 (P.Before.BusyPool + P.Before.BusyQuota);
    if (Log)
      Runs.TransportUs.push_back(percentile(P.LatencyMs, 0.5) * 1e3 -
                                 P.DaemonTotalP50Us);
    Runs.LatencyMs.insert(Runs.LatencyMs.end(), P.LatencyMs.begin(),
                          P.LatencyMs.end());
    Runs.LastFrames = std::move(P.Frames);
  }
  return true;
}

/// Times VerdictCache::store and lookup directly on a fresh store in the
/// benchmark's work directory, over the stream's unique requests. A failed
/// store or a lookup that misses fails the run.
void probeCache(const ProgramStream &Stream, const std::string &Dir,
                SpanLog &Log, Outcome &Out) {
  ScopedSpan Root(&Log, "probe.cache", -1);
  std::vector<size_t> Unique = uniqueRequests(Stream);
  std::vector<VerifyResult> Results(Unique.size());
  bpf::Analyzer Engine;
  for (size_t I = 0; I != Unique.size(); ++I)
    verifyRequestInto(Stream.Requests[Unique[I]], false, Engine, Results[I]);
  removeTree(Dir);
  makeDir(Dir);
  std::vector<double> StoreMs, LookupUs;
  std::string Error;
  uint64_t Failures = 0;
  {
    std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
    for (size_t I = 0; Cache && I != Unique.size(); ++I) {
      ScopedSpan S(&Log, "service.cache.store", Root.id(), Unique[I] + 1);
      uint64_t T0 = nowNs();
      Failures += !Cache->store(Stream.Requests[Unique[I]], Results[I], Error);
      StoreMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
    }
  }
  {
    std::unique_ptr<VerdictCache> Cache = VerdictCache::open(Dir, Error);
    for (size_t I = 0; Cache && I != Unique.size(); ++I) {
      ScopedSpan S(&Log, "service.cache.lookup", Root.id(), Unique[I] + 1);
      uint64_t T0 = nowNs();
      Failures += !Cache->lookup(Stream.Requests[Unique[I]]);
      LookupUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
    }
  }
  removeTree(Dir);
  if (Failures || StoreMs.empty() || LookupUs.empty()) {
    Out.OracleOk = false;
    Out.info("error", "cache probe: " + std::to_string(Failures) +
                          " failed stores or lookups " + Error);
  }
  Out.layer("service.cache.store_ms.p50", percentile(StoreMs, 0.50), "ms");
  Out.layer("service.cache.store_ms.p99", percentile(StoreMs, 0.99), "ms");
  Out.layer("service.cache.lookup_us.p50", percentile(LookupUs, 0.50), "us");
  Out.layer("service.cache.lookup_us.p99", percentile(LookupUs, 0.99), "us");
}

/// Times the client-side Submit frame encoding over the stream, in
/// microseconds per request.
void probeEncode(const ProgramStream &Stream, SpanLog &Log, Outcome &Out) {
  ScopedSpan S(&Log, "service.wire.encode", -1);
  uint64_t Calls = 0, Bytes = 0, Start = nowNs();
  do {
    for (const VerifyRequest &Request : Stream.Requests)
      Bytes += encodeFrame(MsgType::Submit, ++Calls,
                           encodeSubmit(SubmitMsg{0, Request}))
                   .size();
  } while (secondsSince(Start) < 0.1);
  double PerCall = static_cast<double>(Calls);
  Out.layer("service.wire.encode_us",
            static_cast<double>(nowNs() - Start) * 1e-3 / PerCall, "us");
  Out.info("wire.submit_bytes",
           std::to_string(static_cast<double>(Bytes) / PerCall));
}

/// The per-layer metrics of one cache state's passes.
void reportPasses(const char *State, PassRuns &Runs, Outcome &Out) {
  std::string Prefix = State;
  Out.layer(Prefix + ".verdicts_per_s", median(Runs.PassRates), "1/s");
  Out.layer(Prefix + ".latency_ms.p50", percentile(Runs.LatencyMs, 0.50),
            "ms");
  Out.layer(Prefix + ".latency_ms.p99", percentile(Runs.LatencyMs, 0.99),
            "ms");
  Out.layer(Prefix + ".latency_ms.samples",
            static_cast<double>(Runs.LatencyMs.size()), "count");
  Out.layer("service.cache.hit_frac." + Prefix,
            static_cast<double>(Runs.CacheHits) /
                static_cast<double>(Runs.Verdicts),
            "ratio");
}

} // namespace

Outcome runDaemonCache(const Options &Opts) {
  Outcome Out;
  // Every thread of this workload (clients, event loop, workers) shares the
  // CPU it starts on. Each verdict crosses three threads, and on a VM with
  // steal time cross-CPU wake-ups made warm throughput vary threefold from
  // run to run; on one CPU it repeats within a few percent and is as fast
  // as the best unpinned runs.
  cpu_set_t OneCpu;
  CPU_ZERO(&OneCpu);
  int Cpu = std::max(sched_getcpu(), 0);
  CPU_SET(Cpu, &OneCpu);
  if (sched_setaffinity(0, sizeof(OneCpu), &OneCpu) == 0)
    Out.info("daemon.cpu", std::to_string(Cpu));
  Workspace Ws;
  Ws.Socket = Opts.WorkDir + "/d" + std::to_string(::getpid()) + ".sock";
  Ws.Dir = Opts.WorkDir + "/verdict-cache";
  std::string Error;
  auto Fail = [&Out, &Error](const char *Stage) {
    Out.OracleOk = false;
    Out.info("error", std::string(Stage) + ": " + Error);
    return Out;
  };
  ProgramStream Stream = makeLoaderStream(Opts.Seed, StreamDraws);
  std::vector<std::string> Reference = referenceFrames(Stream);

  // Cold: fresh stores. The untraced run needs one pass to fill the store
  // the warm passes read; the traced run measures the cold state too.
  double ColdBudget = Opts.Trace ? Opts.Seconds / 4 : 0;
  PassRuns Cold, ColdTraced;
  SpanLog Log;
  int32_t ColdRoot = Opts.Trace ? Log.open("workload.daemon-cache.cold", -1) : -1;
  if (!runPasses(CacheState::Cold, Ws, Stream, Reference, ColdBudget, nullptr,
                 -1, Cold, Error) ||
      (Opts.Trace && !runPasses(CacheState::Cold, Ws, Stream, Reference,
                                ColdBudget, &Log, ColdRoot, ColdTraced, Error)))
    return Fail("cold pass");
  if (Opts.Trace)
    Log.close(ColdRoot);
  std::vector<std::string> ColdFrames =
      std::move(Opts.Trace ? ColdTraced.LastFrames : Cold.LastFrames);

  // Set-up: generate the stream, start the daemon on the filled store
  // (opening the cache), and complete one client handshake.
  std::vector<double> Setups, Gens;
  uint64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    uint64_t Start = nowNs();
    Stream = makeLoaderStream(Opts.Seed, StreamDraws);
    Gens.push_back(secondsSince(Start));
    std::unique_ptr<RunningDaemon> D =
        RunningDaemon::start(Ws.Socket, Ws.Dir, Error);
    if (!D || !DaemonClient::connectUnixSocket(Ws.Socket, "setup", 5000, Error))
      return Fail("setup");
    Setups.push_back(secondsSince(Start));
  }
  Out.SetupS = median(Setups);

  // Warm: one restart on the filled store, then replays.
  double Budget = Opts.Trace ? Opts.Seconds / 4 : Opts.Seconds;
  PassRuns Warm;
  if (!runPasses(CacheState::Warm, Ws, Stream, Reference, Budget, nullptr, -1,
                 Warm, Error))
    return Fail("warm pass");
  Out.ThroughputPerS = median(Warm.PassRates);
  Out.Attempted = Cold.Verdicts + Warm.Verdicts;
  Out.Failed = Cold.Failed + Warm.Failed;

  // Cross-state oracle: the cold store replays byte-equal when warm.
  uint64_t CrossMismatches = 0;
  for (size_t I = 0; I != Reference.size(); ++I)
    CrossMismatches += ColdFrames[I] != Warm.LastFrames[I];
  Out.OracleOk = CrossMismatches == 0;

  BatchResult AsBatch;
  bpf::Analyzer Engine;
  for (const VerifyRequest &Request : Stream.Requests) {
    AsBatch.Results.emplace_back();
    verifyRequestInto(Request, false, Engine, AsBatch.Results.back());
  }
  Out.info("fingerprint.verdict", hex64(verdictFingerprint(AsBatch)));
  Out.info("cache.filesystem", filesystemType(Ws.Dir));
  Out.info("oracle.cold_vs_warm_mismatches", std::to_string(CrossMismatches));
  Out.info("passes", std::to_string(Cold.Passes) + " cold, " +
                         std::to_string(Warm.Passes) + " warm, " +
                         std::to_string(Stream.Requests.size()) +
                         " requests each");
  Out.info("cold.verdicts_per_s", std::to_string(median(Cold.PassRates)));
  if (!Opts.Trace) {
    removeTree(Ws.Dir);
    return Out;
  }

  int32_t WarmRoot = Log.open("workload.daemon-cache.warm", -1);
  PassRuns WarmTraced;
  if (!runPasses(CacheState::Warm, Ws, Stream, Reference, Budget, &Log,
                 WarmRoot, WarmTraced, Error))
    return Fail("traced warm pass");
  Log.close(WarmRoot);
  Out.Attempted += ColdTraced.Verdicts + WarmTraced.Verdicts;
  Out.Failed += ColdTraced.Failed + WarmTraced.Failed;

  reportPasses("cold", Cold, Out);
  reportPasses("warm", Warm, Out);
  // Overhead and coverage over both states' passes. Daemon start and stop
  // lie between the passes, outside the timed region, so the workload's
  // wall is the sum of the pass spans.
  double Untraced = Cold.Seconds / Cold.Verdicts + Warm.Seconds / Warm.Verdicts;
  double Traced = ColdTraced.Seconds / ColdTraced.Verdicts +
                  WarmTraced.Seconds / WarmTraced.Verdicts;
  Out.layer("trace.overhead_frac", Traced / Untraced - 1, "ratio");
  Out.layer("trace.unattributed_frac", Log.uncoveredFraction("daemon.pass"),
            "ratio");
  Out.layer("service.daemon.analyses",
            static_cast<double>(Cold.Analyses) / Cold.Passes, "count");
  Out.layer("service.daemon.busy", static_cast<double>(Cold.Busy + Warm.Busy),
            "count");
  Out.layer("service.gen.s", median(Gens), "s");
  Out.layer("service.transport_us", median(WarmTraced.TransportUs), "us");
  probeEncode(Stream, Log, Out);
  probeCache(Stream, Opts.WorkDir + "/probe-cache", Log, Out);
  int32_t Probe = Log.open("probe.bpf", -1);
  attributeAnalysis(Stream, uniqueRequests(Stream), Log, Probe, Out);
  Log.close(Probe);
  removeTree(Ws.Dir);

  std::string TracePath = Opts.WorkDir + "/trace-daemon-cache-" +
                          std::to_string(Opts.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    Out.info("trace.file", TracePath);
  return Out;
}

} // namespace perfbench
