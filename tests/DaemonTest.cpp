//===- tests/DaemonTest.cpp - tnumsd concurrency/identity battery ---------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's production contract (service/Daemon.h): N concurrent
/// clients submitting the same program stream in different orders and at
/// different priorities receive verdicts bit-identical to the in-process
/// VerificationService -- across worker counts, UNIX vs TCP transports,
/// cache on/off, and a daemon kill + restart mid-workload (where the
/// persistent verdict cache must serve every repeat verdict with ZERO
/// re-analysis, counter-asserted). Plus the protocol edges: Hello-first
/// enforcement, garbage streams answered with Error + close, and explicit
/// Busy backpressure under pool saturation and tenant quotas that a
/// retrying client rides out without ever receiving a wrong verdict.
///
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"
#include "service/DaemonClient.h"
#include "service/ProgramGen.h"
#include "service/VerificationService.h"
#include "service/WireProtocol.h"
#include "support/Metrics.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

using namespace tnums;
using namespace tnums::bpf;
using namespace tnums::service;

namespace {

constexpr uint64_t MemSize = 32;

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return testing::TempDir() + "tnumsd-" + std::to_string(getpid()) + "-" +
         std::to_string(Counter++) + ".sock";
}

std::string makeCacheDir() {
  std::string Template = testing::TempDir() + "daemoncacheXXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return std::string(Dir) + "/cache";
}

std::vector<VerifyRequest> makeStream(uint64_t Seed, uint64_t Count,
                                      GenProfile Profile = GenProfile::Mixed) {
  GenOptions Opts;
  Opts.Profile = Profile;
  Opts.MemSize = MemSize;
  ProgramGen Gen(Seed, Opts);
  std::vector<VerifyRequest> Requests;
  for (uint64_t I = 0; I != Count; ++I) {
    VerifyRequest Request;
    Request.Prog = Gen.next();
    Request.MemSize = MemSize;
    Requests.push_back(std::move(Request));
  }
  return Requests;
}

/// A straight-line ALU chain long enough that one analysis takes real
/// time -- the deterministic lever for the backpressure tests: while the
/// single worker chews on one of these, every pipelined Submit behind it
/// must be refused, not queued.
VerifyRequest slowRequest(uint64_t Salt) {
  std::vector<Insn> Insns;
  Insns.push_back(Insn::movImm(Reg::R0, static_cast<int64_t>(Salt)));
  for (unsigned I = 0; I != 8000; ++I)
    Insns.push_back(Insn::aluImm(AluOp::Add, Reg::R0, 1));
  Insns.push_back(Insn::exit());
  VerifyRequest Request;
  Request.Prog = Program(std::move(Insns));
  Request.MemSize = MemSize;
  return Request;
}

/// Client-specific deterministic Fisher-Yates shuffle.
std::vector<size_t> shuffledOrder(size_t Count, uint64_t Seed) {
  std::vector<size_t> Order(Count);
  for (size_t Index = 0; Index != Count; ++Index)
    Order[Index] = Index;
  uint64_t State = Seed;
  auto Next = [&State] {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  };
  for (size_t Index = Count; Index > 1; --Index)
    std::swap(Order[Index - 1], Order[Next() % Index]);
  return Order;
}

/// Daemon on a background thread; stop() asserts the loop exited clean.
class RunningDaemon {
public:
  bool start(const DaemonConfig &Config) {
    std::string Error;
    Served = Daemon::create(Config, Error);
    if (!Served) {
      ADD_FAILURE() << "Daemon::create: " << Error;
      return false;
    }
    Loop = std::thread([this] { Ok = Served->run(LoopError); });
    return true;
  }

  Daemon &daemon() { return *Served; }

  void stop() {
    Served->requestStop();
    join();
  }

  void join() {
    if (Loop.joinable())
      Loop.join();
    EXPECT_TRUE(Ok) << LoopError;
  }

  ~RunningDaemon() {
    if (Loop.joinable()) {
      Served->requestStop();
      Loop.join();
    }
  }

private:
  std::optional<Daemon> Served;
  std::thread Loop;
  std::string LoopError;
  bool Ok = false;
};

/// Submits \p Requests in \p Order (retrying Busy) and reassembles the
/// canonical-order batch for fingerprinting.
void runClientOrdered(const std::string &SocketPath, const std::string &Tenant,
                      const std::vector<VerifyRequest> &Requests,
                      const std::vector<size_t> &Order, uint8_t Priority,
                      BatchResult &Out, bool &OkOut) {
  std::string Error;
  std::optional<DaemonClient> Client = DaemonClient::connectUnixSocket(
      SocketPath, Tenant, /*TimeoutMs=*/5000, Error);
  if (!Client) {
    ADD_FAILURE() << "connect: " << Error;
    OkOut = false;
    return;
  }
  Out.Results.resize(Requests.size());
  for (size_t Index : Order) {
    VerdictMsg Verdict;
    if (!Client->submitWithRetry(Requests[Index], Priority,
                                 /*TimeoutMs=*/120000, Verdict, Error)) {
      ADD_FAILURE() << "submit " << Index << ": " << Error;
      OkOut = false;
      return;
    }
    Out.Results[Index] = verdictToResult(Verdict);
  }
  OkOut = true;
}

//===----------------------------------------------------------------------===//
// Identity battery
//===----------------------------------------------------------------------===//

TEST(Daemon, ConcurrentClientsBitIdenticalToInProcess) {
  std::vector<VerifyRequest> Requests = makeStream(101, 150);
  uint64_t Reference =
      verdictFingerprint(VerificationService().verifyBatch(Requests));

  // Two worker configs; clients shuffle differently and use different
  // priorities, so the daemon-side schedules genuinely differ.
  for (unsigned Threads : {1u, 4u}) {
    DaemonConfig Config;
    Config.SocketPath = uniqueSocketPath();
    Config.NumThreads = Threads;
    RunningDaemon Daemon;
    ASSERT_TRUE(Daemon.start(Config));

    constexpr unsigned NumClients = 5;
    std::vector<BatchResult> Batches(NumClients);
    // One byte per client: std::vector<bool> packs the flags into shared
    // words, so concurrent writes from the client threads would race.
    std::vector<uint8_t> Oks(NumClients, 0);
    {
      std::vector<std::thread> Clients;
      for (unsigned Index = 0; Index != NumClients; ++Index) {
        std::vector<size_t> Order =
            shuffledOrder(Requests.size(), 0xC0FFEE + Index);
        Clients.emplace_back([&, Index, Order] {
          bool Ok = false;
          runClientOrdered(Config.SocketPath,
                           "tenant" + std::to_string(Index % 2), Requests,
                           Order, static_cast<uint8_t>(Index % 3), Batches[Index],
                           Ok);
          Oks[Index] = Ok;
        });
      }
      for (std::thread &Client : Clients)
        Client.join();
    }
    Daemon.stop();

    for (unsigned Index = 0; Index != NumClients; ++Index) {
      ASSERT_TRUE(Oks[Index]) << "client " << Index;
      EXPECT_EQ(verdictFingerprint(Batches[Index]), Reference)
          << "client " << Index << " diverged at " << Threads << " threads";
    }
  }
}

TEST(Daemon, TcpAndUnixClientsAgree) {
  std::vector<VerifyRequest> Requests = makeStream(113, 60);
  uint64_t Reference =
      verdictFingerprint(VerificationService().verifyBatch(Requests));

  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  Config.TcpPort = 0; // Ephemeral.
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));
  uint16_t Port = Daemon.daemon().tcpPort();
  ASSERT_NE(Port, 0);

  std::string Error;
  std::optional<DaemonClient> Tcp =
      DaemonClient::connectTcp(Port, "tcp-tenant", Error);
  ASSERT_TRUE(Tcp) << Error;
  std::optional<DaemonClient> Unix = DaemonClient::connectUnixSocket(
      Config.SocketPath, "unix-tenant", 5000, Error);
  ASSERT_TRUE(Unix) << Error;

  BatchResult TcpBatch, UnixBatch;
  TcpBatch.Results.resize(Requests.size());
  UnixBatch.Results.resize(Requests.size());
  for (size_t Index = 0; Index != Requests.size(); ++Index) {
    VerdictMsg Verdict;
    ASSERT_TRUE(Tcp->submitWithRetry(Requests[Index], 0, 120000, Verdict,
                                     Error))
        << Error;
    TcpBatch.Results[Index] = verdictToResult(Verdict);
    ASSERT_TRUE(Unix->submitWithRetry(Requests[Index], 0, 120000, Verdict,
                                      Error))
        << Error;
    UnixBatch.Results[Index] = verdictToResult(Verdict);
  }
  Daemon.stop();

  EXPECT_EQ(verdictFingerprint(TcpBatch), Reference);
  EXPECT_EQ(verdictFingerprint(UnixBatch), Reference);
}

TEST(Daemon, RestartMidWorkloadWarmStartsWithZeroReanalysis) {
  std::vector<VerifyRequest> Requests = makeStream(127, 120);
  uint64_t Reference =
      verdictFingerprint(VerificationService().verifyBatch(Requests));
  std::string CacheDir = makeCacheDir();
  std::string SocketPath = uniqueSocketPath();

  DaemonConfig Config;
  Config.SocketPath = SocketPath;
  Config.NumThreads = 4;
  Config.CacheDir = CacheDir;

  // Cold daemon: everything analyzed, everything stored.
  uint64_t ColdAnalyses = 0;
  {
    RunningDaemon Daemon;
    ASSERT_TRUE(Daemon.start(Config));
    BatchResult Batch;
    bool Ok = false;
    runClientOrdered(SocketPath, "cold", Requests,
                     shuffledOrder(Requests.size(), 1), 0, Batch, Ok);
    ASSERT_TRUE(Ok);
    EXPECT_EQ(verdictFingerprint(Batch), Reference);
    DaemonStats Stats = Daemon.daemon().stats();
    ColdAnalyses = Stats.Analyses;
    EXPECT_GT(ColdAnalyses, 0u);
    EXPECT_EQ(Stats.Verdicts, Requests.size());
    Daemon.stop(); // Kill mid-campaign: the store must already be durable.
  }

  // Restarted daemon, same cache: the full repeat workload is served from
  // the persistent store -- the analyzer never runs.
  {
    RunningDaemon Daemon;
    ASSERT_TRUE(Daemon.start(Config));
    BatchResult Batch;
    bool Ok = false;
    runClientOrdered(SocketPath, "warm", Requests,
                     shuffledOrder(Requests.size(), 2), 1, Batch, Ok);
    ASSERT_TRUE(Ok);
    EXPECT_EQ(verdictFingerprint(Batch), Reference)
        << "cache-served verdicts diverged from analyzed verdicts";
    DaemonStats Stats = Daemon.daemon().stats();
    EXPECT_EQ(Stats.Analyses, 0u)
        << "warm restart re-analyzed cached programs";
    EXPECT_EQ(Stats.Verdicts, Requests.size());
    EXPECT_EQ(Stats.cacheHits(), Requests.size());
    EXPECT_GT(Stats.CacheDiskHits, 0u);

    // Cover the client-driven graceful stop on the second instance.
    std::string Error;
    std::optional<DaemonClient> Stopper = DaemonClient::connectUnixSocket(
        SocketPath, "stopper", 5000, Error);
    ASSERT_TRUE(Stopper) << Error;
    EXPECT_TRUE(Stopper->shutdownServer(Error)) << Error;
    Daemon.join();
  }
}

//===----------------------------------------------------------------------===//
// Protocol edges
//===----------------------------------------------------------------------===//

/// Reads one reply frame from a raw socket (header + payload).
bool readRawFrame(int Fd, Frame &Out, std::string &Error) {
  unsigned char Header[FrameHeaderBytes];
  if (!readAll(Fd, Header, sizeof(Header), Error))
    return false;
  uint32_t PayloadLen = 0;
  for (unsigned Byte = 0; Byte != 4; ++Byte)
    PayloadLen |= static_cast<uint32_t>(Header[16 + Byte]) << (8 * Byte);
  Out.Type = static_cast<MsgType>(Header[5]);
  Out.RequestId = 0;
  for (unsigned Byte = 0; Byte != 8; ++Byte)
    Out.RequestId |= static_cast<uint64_t>(Header[8 + Byte]) << (8 * Byte);
  Out.Payload.resize(PayloadLen);
  return PayloadLen == 0 ||
         readAll(Fd, Out.Payload.data(), PayloadLen, Error);
}

TEST(Daemon, SubmitBeforeHelloIsRefusedAndClosed) {
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));

  std::string Error;
  std::optional<OwnedFd> Fd =
      connectUnixRetry(Config.SocketPath, 5000, Error);
  ASSERT_TRUE(Fd) << Error;

  SubmitMsg Submit;
  Submit.Request = makeStream(5, 1).front();
  std::string Bytes = encodeFrame(MsgType::Submit, 77, encodeSubmit(Submit));
  ASSERT_TRUE(writeAll(Fd->get(), Bytes.data(), Bytes.size(), Error)) << Error;

  Frame Reply;
  ASSERT_TRUE(readRawFrame(Fd->get(), Reply, Error)) << Error;
  EXPECT_EQ(Reply.Type, MsgType::Error);
  EXPECT_EQ(Reply.RequestId, 77u);
  std::optional<ErrorMsg> Msg = decodeError(Reply.Payload, Error);
  ASSERT_TRUE(Msg) << Error;
  EXPECT_EQ(Msg->Code, WireError::HelloRequired);

  // The daemon then closes: the next read sees orderly EOF.
  Error.clear();
  EXPECT_FALSE(readRawFrame(Fd->get(), Reply, Error));
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Daemon.daemon().stats().ProtocolErrors, 1u);
  Daemon.stop();
}

TEST(Daemon, GarbageStreamGetsErrorReplyAndClose) {
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));

  std::string Error;
  std::optional<OwnedFd> Fd =
      connectUnixRetry(Config.SocketPath, 5000, Error);
  ASSERT_TRUE(Fd) << Error;

  std::string Garbage = "this is definitely not a TNU1 frame header......";
  ASSERT_TRUE(writeAll(Fd->get(), Garbage.data(), Garbage.size(), Error));

  Frame Reply;
  ASSERT_TRUE(readRawFrame(Fd->get(), Reply, Error)) << Error;
  EXPECT_EQ(Reply.Type, MsgType::Error);
  std::optional<ErrorMsg> Msg = decodeError(Reply.Payload, Error);
  ASSERT_TRUE(Msg) << Error;
  EXPECT_EQ(Msg->Code, WireError::BadMagic);

  Error.clear();
  EXPECT_FALSE(readRawFrame(Fd->get(), Reply, Error));
  EXPECT_TRUE(Error.empty()) << Error;
  Daemon.stop();
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(Daemon, PoolSaturationRepliesBusyAndRetrySucceeds) {
  // One worker, admission window of one: while the worker analyzes the
  // first slow program, every pipelined Submit behind it must bounce with
  // Busy(pool) -- explicit backpressure, never silent queue growth.
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  Config.NumThreads = 1;
  Config.MaxPendingRequests = 1;
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));

  std::string Error;
  std::optional<DaemonClient> Client = DaemonClient::connectUnixSocket(
      Config.SocketPath, "pusher", 5000, Error);
  ASSERT_TRUE(Client) << Error;

  constexpr unsigned Pipelined = 24;
  std::vector<VerifyRequest> Requests;
  for (unsigned Index = 0; Index != Pipelined; ++Index)
    Requests.push_back(slowRequest(Index));

  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    uint64_t RequestId = 0;
    ASSERT_TRUE(Client->submitAsync(Requests[Index], 0, RequestId, Error))
        << Error;
  }
  unsigned Verdicts = 0, Busys = 0;
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    ClientReply Reply;
    ASSERT_TRUE(Client->readReply(Reply, Error)) << Error;
    if (Reply.Type == MsgType::Verdict) {
      ++Verdicts;
      EXPECT_TRUE(Reply.Verdict.Accepted);
    } else {
      ASSERT_EQ(Reply.Type, MsgType::Busy);
      EXPECT_EQ(Reply.Busy.Reason, 0) << "expected pool-saturation reason";
      ++Busys;
    }
  }
  EXPECT_GE(Verdicts, 1u);
  EXPECT_GE(Busys, 1u) << "admission control never pushed back";
  EXPECT_EQ(Daemon.daemon().stats().BusyPool, Busys);

  // A retrying client rides the backpressure out and loses nothing.
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    VerdictMsg Verdict;
    ASSERT_TRUE(Client->submitWithRetry(Requests[Index], 0, 120000, Verdict,
                                        Error))
        << Error;
    EXPECT_TRUE(Verdict.Accepted);
  }
  Daemon.stop();
}

TEST(Daemon, TenantQuotaRepliesBusyQuota) {
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  Config.NumThreads = 2;
  Config.MaxPendingRequests = 100; // Pool never saturates here...
  Config.TenantMaxInFlight = 1;    // ...the tenant quota does.
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));

  std::string Error;
  std::optional<DaemonClient> Client = DaemonClient::connectUnixSocket(
      Config.SocketPath, "greedy", 5000, Error);
  ASSERT_TRUE(Client) << Error;

  constexpr unsigned Pipelined = 16;
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    uint64_t RequestId = 0;
    ASSERT_TRUE(
        Client->submitAsync(slowRequest(Index), 0, RequestId, Error))
        << Error;
  }
  unsigned Busys = 0;
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    ClientReply Reply;
    ASSERT_TRUE(Client->readReply(Reply, Error)) << Error;
    if (Reply.Type == MsgType::Busy) {
      EXPECT_EQ(Reply.Busy.Reason, 1) << "expected tenant-quota reason";
      ++Busys;
    }
  }
  EXPECT_GE(Busys, 1u) << "tenant quota never pushed back";
  EXPECT_EQ(Daemon.daemon().stats().BusyQuota, Busys);
  Daemon.stop();
}

//===----------------------------------------------------------------------===//
// Observability: lifecycle event log, exposition file, MetricsQuery
//===----------------------------------------------------------------------===//

/// Extracts one top-level field from a line the daemon's own
/// JsonLineBuilder wrote. Known writer, known escaping -- a targeted
/// substring scan, not a JSON parser.
std::string jsonField(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  size_t End;
  if (At < Line.size() && Line[At] == '"') {
    ++At;
    End = Line.find('"', At);
  } else {
    End = Line.find_first_of(",}", At);
  }
  return End == std::string::npos ? "" : Line.substr(At, End - At);
}

/// Counter value by full exposed name ("name" or "name{labels}"), 0 when
/// absent. Summed across label variants is deliberately NOT done: the
/// caller names the exact series it wants.
uint64_t findCounter(const std::vector<MetricValue> &Metrics,
                     const std::string &FullName) {
  for (const MetricValue &Metric : Metrics)
    if (Metric.fullName() == FullName)
      return Metric.Count;
  return 0;
}

TEST(Daemon, EventLogAccountsForEveryRequestLifecycle) {
  // Saturate a one-worker, one-slot daemon so the log must record BOTH
  // outcomes -- fully analyzed lifecycles and Busy rejections -- then
  // audit the JSONL: every received (conn,req) reaches exactly one
  // terminal event, replied requests march through every phase in
  // order, rejected ones are never admitted, and the wire MetricsReply
  // and the exposition file agree with the log's totals. Metrics are
  // process-global, so the received counter is checked as a delta.
  const uint64_t ReceivedBefore =
      findCounter(MetricsRegistry::instance().snapshot().Metrics,
                  "tnumsd_requests_received_total");

  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath();
  Config.NumThreads = 1;
  Config.MaxPendingRequests = 1;
  Config.EventLogPath = testing::TempDir() + "tnumsd-events-" +
                        std::to_string(getpid()) + ".jsonl";
  Config.MetricsTextPath = testing::TempDir() + "tnumsd-metrics-" +
                           std::to_string(getpid()) + ".prom";
  ::unlink(Config.EventLogPath.c_str()); // Append-mode sink: start clean.
  RunningDaemon Daemon;
  ASSERT_TRUE(Daemon.start(Config));

  std::string Error;
  std::optional<DaemonClient> Client = DaemonClient::connectUnixSocket(
      Config.SocketPath, "audited", 5000, Error);
  ASSERT_TRUE(Client) << Error;
  EXPECT_NE(Client->serverHello().BuildInfo.find("compiler"),
            std::string::npos)
      << "HelloAck should carry buildInfoJson(): "
      << Client->serverHello().BuildInfo;

  constexpr unsigned Pipelined = 24;
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    uint64_t RequestId = 0;
    ASSERT_TRUE(Client->submitAsync(slowRequest(Index), 0, RequestId, Error))
        << Error;
  }
  unsigned Verdicts = 0, Busys = 0;
  for (unsigned Index = 0; Index != Pipelined; ++Index) {
    ClientReply Reply;
    ASSERT_TRUE(Client->readReply(Reply, Error)) << Error;
    if (Reply.Type == MsgType::Verdict) {
      ++Verdicts;
    } else {
      ASSERT_EQ(Reply.Type, MsgType::Busy);
      ++Busys;
    }
  }
  ASSERT_GE(Verdicts, 1u);
  ASSERT_GE(Busys, 1u)
      << "no Busy rejection: the completeness claim needs both outcomes";

  // The wire snapshot must account for exactly this test's traffic and
  // restate the same build identity the Hello carried.
  MetricsReplyMsg Wire;
  ASSERT_TRUE(Client->queryMetrics(Wire, Error)) << Error;
  EXPECT_EQ(Wire.BuildInfo, Client->serverHello().BuildInfo);
  EXPECT_EQ(findCounter(Wire.Metrics, "tnumsd_requests_received_total") -
                ReceivedBefore,
            Pipelined);

  Daemon.stop(); // Writes the final exposition and closes the log.

  // Audit the event log: group by correlation key, then demand one
  // terminal per received request and the exact phase sequence.
  std::ifstream Log(Config.EventLogPath);
  ASSERT_TRUE(Log.is_open()) << Config.EventLogPath;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<std::string>>
      Lifecycles;
  std::string Line;
  while (std::getline(Log, Line)) {
    if (Line.empty())
      continue;
    ASSERT_EQ(Line.front(), '{') << Line;
    ASSERT_EQ(Line.back(), '}') << Line;
    std::string Event = jsonField(Line, "event");
    std::string Conn = jsonField(Line, "conn");
    std::string Req = jsonField(Line, "req");
    ASSERT_FALSE(Event.empty()) << Line;
    ASSERT_FALSE(Conn.empty()) << Line;
    ASSERT_FALSE(Req.empty()) << Line;
    EXPECT_FALSE(jsonField(Line, "ts_ms").empty()) << Line;
    Lifecycles[{std::stoull(Conn), std::stoull(Req)}].push_back(Event);
  }

  unsigned Replied = 0, Rejected = 0;
  for (const auto &Entry : Lifecycles) {
    const std::vector<std::string> &Events = Entry.second;
    SCOPED_TRACE(testing::Message() << "conn " << Entry.first.first << " req "
                                    << Entry.first.second);
    ASSERT_FALSE(Events.empty());
    EXPECT_EQ(Events.front(), "received");
    if (Events.back() == "replied") {
      ++Replied;
      const char *Phases[] = {"received", "admitted", "queued", "analyzing",
                              "replied"};
      ASSERT_EQ(Events.size(), 5u);
      for (size_t Phase = 0; Phase != 5; ++Phase)
        EXPECT_EQ(Events[Phase], Phases[Phase]);
    } else {
      ASSERT_EQ(Events.back(), "busy") << "request left without a terminal";
      ++Rejected;
      ASSERT_EQ(Events.size(), 2u)
          << "a rejected request must not be admitted or analyzed";
    }
  }
  EXPECT_EQ(Replied, Verdicts);
  EXPECT_EQ(Rejected, Busys);

  // stop() refreshed the exposition one last time: the text format must
  // carry this daemon's series.
  std::ifstream Prom(Config.MetricsTextPath);
  ASSERT_TRUE(Prom.is_open()) << Config.MetricsTextPath;
  std::stringstream Text;
  Text << Prom.rdbuf();
  EXPECT_NE(Text.str().find("tnumsd_requests_received_total"),
            std::string::npos);
  EXPECT_NE(Text.str().find("tnumsd_busy_total"), std::string::npos);
}

} // namespace
