//===- tests/MetricsTest.cpp - Metrics/trace core battery -----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability core's contract (support/Metrics.h): log2 histogram
/// buckets split exactly at powers of two, merged snapshots are exact and
/// deterministic under multi-threaded recording, the disabled recorder
/// touches nothing (no shards ever materialize), gauges track peaks, and
/// the Prometheus/JSON renderings round-trip the counts. The analyzer's
/// deterministic work counters are pinned exactly on a fixed program set.
///
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "bpf/Analyzer.h"
#include "bpf/Builder.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace tnums;

namespace {

/// Every test runs with the recorder off afterwards so ordering between
/// tests (or single-process runs of the whole suite) cannot leak state.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    disableProcessMetrics();
    MetricsRegistry::instance().resetForTest();
  }
  void TearDown() override {
    disableProcessMetrics();
    MetricsRegistry::instance().resetForTest();
  }
};

TEST_F(MetricsTest, BucketIndexSplitsAtPowersOfTwo) {
  EXPECT_EQ(MetricsRegistry::bucketIndex(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucketIndex(1), 1u);
  // Each power of two opens a new bucket; value 2^k - 1 stays in the
  // previous one.
  for (unsigned K = 1; K < 64; ++K) {
    uint64_t Pow = uint64_t(1) << K;
    EXPECT_EQ(MetricsRegistry::bucketIndex(Pow), K + 1) << "2^" << K;
    EXPECT_EQ(MetricsRegistry::bucketIndex(Pow - 1), K) << "2^" << K << "-1";
  }
  EXPECT_EQ(MetricsRegistry::bucketIndex(UINT64_MAX), 64u);
  // Inclusive upper bounds are 2^i - 1.
  EXPECT_EQ(MetricsRegistry::bucketUpperBound(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucketUpperBound(1), 1u);
  EXPECT_EQ(MetricsRegistry::bucketUpperBound(4), 15u);
  EXPECT_EQ(MetricsRegistry::bucketUpperBound(64), UINT64_MAX);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  enableProcessMetrics();
  Histogram H("test_bucket_boundaries_ns");
  for (uint64_t Sample : {0ull, 1ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull,
                          1023ull, 1024ull})
    H.record(Sample);

  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *V = Snap.find("test_bucket_boundaries_ns");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Kind, MetricKind::Histogram);
  EXPECT_EQ(V->Count, 10u);
  EXPECT_EQ(V->Sum, 0u + 1 + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
  ASSERT_EQ(V->Buckets.size(), MetricsHistogramBuckets);
  EXPECT_EQ(V->Buckets[0], 1u);  // {0}
  EXPECT_EQ(V->Buckets[1], 2u);  // {1, 1}
  EXPECT_EQ(V->Buckets[2], 2u);  // {2, 3}
  EXPECT_EQ(V->Buckets[3], 2u);  // {4, 7}
  EXPECT_EQ(V->Buckets[4], 1u);  // {8}
  EXPECT_EQ(V->Buckets[10], 1u); // {1023}
  EXPECT_EQ(V->Buckets[11], 1u); // {1024}
  for (unsigned I = 12; I < MetricsHistogramBuckets; ++I)
    EXPECT_EQ(V->Buckets[I], 0u) << "bucket " << I;
}

TEST_F(MetricsTest, MultiThreadMergeIsExactAndDeterministic) {
  enableProcessMetrics();
  Counter C("test_merge_total");
  Histogram H("test_merge_ns");

  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  for (unsigned Round = 0; Round < 2; ++Round) {
    MetricsRegistry::instance().resetForTest();
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&C, &H] {
        for (uint64_t I = 0; I < PerThread; ++I) {
          C.add(3);
          H.record(I & 1023);
        }
      });
    for (std::thread &T : Pool)
      T.join();

    MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
    const MetricValue *CV = Snap.find("test_merge_total");
    ASSERT_NE(CV, nullptr);
    EXPECT_EQ(CV->Count, 3 * Threads * PerThread) << "round " << Round;
    const MetricValue *HV = Snap.find("test_merge_ns");
    ASSERT_NE(HV, nullptr);
    EXPECT_EQ(HV->Count, Threads * PerThread) << "round " << Round;
    uint64_t SumPerThread = 0;
    for (uint64_t I = 0; I < PerThread; ++I)
      SumPerThread += I & 1023;
    EXPECT_EQ(HV->Sum, Threads * SumPerThread) << "round " << Round;
    uint64_t BucketTotal = 0;
    for (uint64_t B : HV->Buckets)
      BucketTotal += B;
    EXPECT_EQ(BucketTotal, HV->Count) << "round " << Round;
  }
}

TEST_F(MetricsTest, DisabledRecorderNeverCreatesShards) {
  ASSERT_FALSE(metricsEnabled());
  size_t ShardsBefore = MetricsRegistry::instance().debugShardCount();

  Counter C("test_disabled_total");
  Histogram H("test_disabled_ns");
  Gauge G("test_disabled_depth");
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < 1000; ++I) {
        C.add();
        H.record(I);
        G.set(static_cast<int64_t>(I));
        ScopedTimer Timer(H);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  // No recording thread materialized a shard, and nothing was counted.
  EXPECT_EQ(MetricsRegistry::instance().debugShardCount(), ShardsBefore);
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *CV = Snap.find("test_disabled_total");
  ASSERT_NE(CV, nullptr);
  EXPECT_EQ(CV->Count, 0u);
  const MetricValue *HV = Snap.find("test_disabled_ns");
  ASSERT_NE(HV, nullptr);
  EXPECT_EQ(HV->Count, 0u);
  const MetricValue *GV = Snap.find("test_disabled_depth");
  ASSERT_NE(GV, nullptr);
  EXPECT_EQ(GV->Value, 0);
  EXPECT_EQ(GV->Peak, 0);
}

TEST_F(MetricsTest, GaugeTracksValueAndPeak) {
  enableProcessMetrics();
  Gauge G("test_gauge_depth");
  G.set(5);
  G.add(3); // 8 -- the high-water mark.
  G.add(-6);
  G.set(1);

  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *V = Snap.find("test_gauge_depth");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Kind, MetricKind::Gauge);
  EXPECT_EQ(V->Value, 1);
  EXPECT_EQ(V->Peak, 8);
}

TEST_F(MetricsTest, LabelsDistinguishSeries) {
  enableProcessMetrics();
  Counter Add("test_labeled_total", "op=\"add\"");
  Counter Mul("test_labeled_total", "op=\"mul\"");
  Add.add(2);
  Mul.add(5);

  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *AV = Snap.find("test_labeled_total{op=\"add\"}");
  const MetricValue *MV = Snap.find("test_labeled_total{op=\"mul\"}");
  ASSERT_NE(AV, nullptr);
  ASSERT_NE(MV, nullptr);
  EXPECT_EQ(AV->Count, 2u);
  EXPECT_EQ(MV->Count, 5u);
  // Same name+labels+kind resolves to the same series, not a duplicate.
  Counter AddAgain("test_labeled_total", "op=\"add\"");
  EXPECT_EQ(AddAgain.id(), Add.id());
}

TEST_F(MetricsTest, PrometheusTextRendersEverySeries) {
  enableProcessMetrics();
  Counter C("test_promtext_total");
  Gauge G("test_promtext_depth");
  Histogram H("test_promtext_ns");
  C.add(7);
  G.set(3);
  H.record(5); // bucket 3, le="7".

  std::string Text = MetricsRegistry::instance().snapshot().toPrometheusText();
  EXPECT_NE(Text.find("# TYPE test_promtext_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\ntest_promtext_total 7\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE test_promtext_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\ntest_promtext_depth 3\n"), std::string::npos);
  EXPECT_NE(Text.find("\ntest_promtext_depth_peak 3\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE test_promtext_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_promtext_ns_bucket{le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_promtext_ns_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\ntest_promtext_ns_sum 5\n"), std::string::npos);
  EXPECT_NE(Text.find("\ntest_promtext_ns_count 1\n"), std::string::npos);
  EXPECT_NE(Text.find("# build_info {"), std::string::npos);
}

TEST_F(MetricsTest, SnapshotJsonEmbedsCounts) {
  enableProcessMetrics();
  Counter C("test_json_total");
  C.add(11);
  std::string Json = MetricsRegistry::instance().snapshot().toJson();
  EXPECT_NE(Json.find("\"test_json_total\":11"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\":{"), std::string::npos);
}

TEST_F(MetricsTest, ScopedTimerRecordsOnlyWhenEnabled) {
  enableProcessMetrics();
  Histogram H("test_scoped_ns");
  { ScopedTimer T(H); }
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricValue *V = Snap.find("test_scoped_ns");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Count, 1u);

  disableProcessMetrics();
  { ScopedTimer T(H); }
  Snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(Snap.find("test_scoped_ns")->Count, 1u);
}

TEST_F(MetricsTest, BuildInfoIsPopulated) {
  const BuildInfo &B = buildInfo();
  EXPECT_FALSE(B.Compiler.empty());
  EXPECT_TRUE(B.BuildType == "release" || B.BuildType == "debug");
  EXPECT_FALSE(B.SimdDispatch.empty());

  std::string Json = buildInfoJson();
  EXPECT_NE(Json.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(Json.find("\"build_type\":\""), std::string::npos);
  EXPECT_NE(Json.find("\"simd_dispatch\":\""), std::string::npos);
  EXPECT_NE(Json.find("\"computed_goto\":"), std::string::npos);
  EXPECT_FALSE(buildInfoString().empty());
}

TEST_F(MetricsTest, JsonLineBuilderEscapes) {
  JsonLineBuilder B;
  B.field("event", "reply\"quoted\"")
      .field("req", uint64_t(42))
      .field("ok", true)
      .field("secs", 1.5);
  std::string Line = B.str();
  EXPECT_EQ(Line.find("{\"event\":\"reply\\\"quoted\\\"\",\"req\":42,"
                      "\"ok\":true,\"secs\":1.500000}"),
            0u);
  EXPECT_EQ(jsonEscape("a\nb\\c"), "a\\nb\\\\c");
}

/// The analyzer's deterministic work counters on a fixed program set: a
/// straight-line program, a guarded access whose branches merge, and two
/// counting loops, one of which runs past the widening threshold. The
/// values are exact: any change to them is a change in fixpoint work.
TEST_F(MetricsTest, AnalyzerJoinAndWideningCountsAreExact) {
  using namespace tnums::bpf;
  std::vector<Program> Programs{
      ProgramBuilder().movImm(R0, 0).aluImm(AluOp::Add, R0, 1).exit().build(),
      ProgramBuilder()
          .load(R3, R1, 0, 1)
          .movImm(R0, 0)
          .jmpImm(CompareOp::Gt, R3, 8, "done")
          .alu(AluOp::Add, R3, R1)
          .load(R0, R3, 0, 8)
          .label("done")
          .exit()
          .build(),
      ProgramBuilder()
          .movImm(R0, 0)
          .label("head")
          .aluImm(AluOp::Add, R0, 1)
          .jmpImm(CompareOp::Lt, R0, 3, "head")
          .exit()
          .build(),
      ProgramBuilder()
          .movImm(R0, 0)
          .label("head")
          .aluImm(AluOp::Add, R0, 1)
          .jmpImm(CompareOp::Lt, R0, 100, "head")
          .exit()
          .build()};

  enableProcessMetrics();
  uint64_t Visits = 0;
  for (const Program &P : Programs) {
    Analyzer Engine(P, Analyzer::Options{16, 8, 1 << 20});
    Visits += Engine.analyze().InsnVisits;
  }
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  auto Count = [&Snap](const char *Name) {
    const MetricValue *V = Snap.find(Name);
    return V ? V->Count : ~uint64_t(0);
  };
  EXPECT_EQ(Count("tnums_analyzer_analyses_total"), 4u);
  EXPECT_EQ(Count("tnums_analyzer_insn_visits_total"), Visits);
  EXPECT_EQ(Visits, 37u);
  EXPECT_EQ(Count("tnums_analyzer_joins_total"), 34u);
  EXPECT_EQ(Count("tnums_analyzer_widenings_total"), 2u);
}

} // namespace
