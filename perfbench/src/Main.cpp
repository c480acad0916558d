//===- perfbench/src/Main.cpp - The repository benchmark ------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One command for every user-facing path of the repository:
///
///   perfbench --workload W --seed S --seconds T --trace {0,1}
///             [--work-dir DIR]
///
/// W is verify-batch, daemon-cache, campaign or exec. Inputs are generated
/// from S only. With --trace 0 the run measures the end-to-end metrics with
/// tracing off; with --trace 1 it splits T between the untraced and the
/// traced run and reports the per-layer metrics (a metric of a layer the
/// workload does not run reads 0). Every
/// metric is printed by name with its unit, followed by build info and the
/// workload's result fingerprint; the last line is one JSON object with
/// the keys correct, attempted, failed and metrics. The exit code is 1 on
/// any oracle mismatch and 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bpf/Decoded.h"
#include "support/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

struct MetricName {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every workload reports with --trace 0. This list
/// and the next one are the metric sets BENCHMARK.json records.
const MetricName EndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};

/// The per-layer metrics every workload reports with --trace 1.
const MetricName PerLayer[] = {
    // Each workload's headline numbers under their own names.
    {"failed_frac", "ratio"},
    {"programs_per_s", "1/s"},
    {"cold.verdicts_per_s", "1/s"},
    {"cold.latency_ms.p50", "ms"},
    {"cold.latency_ms.p99", "ms"},
    {"cold.latency_ms.samples", "count"},
    {"warm.verdicts_per_s", "1/s"},
    {"warm.latency_ms.p50", "ms"},
    {"warm.latency_ms.p99", "ms"},
    {"warm.latency_ms.samples", "count"},
    {"mevals_per_s", "Mevals/s"},
    {"memories_per_s", "1/s"},
    // service
    {"service.gen.s", "s"},
    {"service.batch.dedup_hits", "count"},
    {"service.batch.dedup_frac", "ratio"},
    {"service.batch.self_s", "s"},
    {"service.wire.encode_us", "us"},
    {"service.transport_us", "us"},
    {"service.cache.store_ms.p50", "ms"},
    {"service.cache.store_ms.p99", "ms"},
    {"service.cache.hit_frac.cold", "ratio"},
    {"service.cache.lookup_us.p50", "us"},
    {"service.cache.lookup_us.p99", "us"},
    {"service.cache.hit_frac.warm", "ratio"},
    {"service.daemon.analyses", "count"},
    {"service.daemon.busy", "count"},
    // bpf: analyzer
    {"bpf.validate.s", "s"},
    {"bpf.analyze.s", "s"},
    {"bpf.analyze.us.p50", "us"},
    {"bpf.analyze.us.p99", "us"},
    {"bpf.analyze.alu.s", "s"},
    {"bpf.analyze.bounds.s", "s"},
    {"bpf.analyze.packet.s", "s"},
    {"bpf.analyze.loops.s", "s"},
    {"bpf.analyze.maskidx.s", "s"},
    {"bpf.analyze.scaled.s", "s"},
    {"bpf.analyze.insn_visits", "count"},
    {"bpf.analyze.ns_per_visit", "ns"},
    {"bpf.analyze.accept_frac", "ratio"},
    // bpf state and domain product
    {"bpf.state.join_ns", "ns"},
    {"bpf.state.subset_ns", "ns"},
    {"domain.make_bottom_ns", "ns"},
    {"domain.apply_binary_ns", "ns"},
    {"domain.refine_ns", "ns"},
    // verify
    {"verify.grid.setup_s", "s"},
    {"verify.mul.kern_mul.mevals_per_s", "Mevals/s"},
    {"verify.mul.bitwise_mul_naive.mevals_per_s", "Mevals/s"},
    {"verify.mul.bitwise_mul_opt.mevals_per_s", "Mevals/s"},
    {"verify.mul.our_mul_simplified.mevals_per_s", "Mevals/s"},
    {"verify.mul.our_mul.mevals_per_s", "Mevals/s"},
    {"verify.mul.our_mul_full_loop.mevals_per_s", "Mevals/s"},
    {"verify.sound.s", "s"},
    {"verify.opt.s", "s"},
    {"verify.pairs", "count"},
    {"verify.evals", "count"},
    // tnum
    {"tnum.mul.kern_mul.ns", "ns"},
    {"tnum.mul.bitwise_mul_naive.ns", "ns"},
    {"tnum.mul.bitwise_mul_opt.ns", "ns"},
    {"tnum.mul.our_mul_simplified.ns", "ns"},
    {"tnum.mul.our_mul.ns", "ns"},
    {"tnum.mul.our_mul_full_loop.ns", "ns"},
    {"tnum.ops.ns", "ns"},
    // bpf: executor
    {"bpf.decode.s", "s"},
    {"bpf.exec.steps", "count"},
    {"bpf.exec.ns_per_step", "ns"},
    {"bpf.exec.alu.memories_per_s", "1/s"},
    {"bpf.exec.bounds.memories_per_s", "1/s"},
    {"bpf.exec.packet.memories_per_s", "1/s"},
    {"bpf.exec.loops.memories_per_s", "1/s"},
    {"bpf.exec.maskidx.memories_per_s", "1/s"},
    {"bpf.exec.scaled.memories_per_s", "1/s"},
    {"bpf.exec.switch.memories_per_s", "1/s"},
    {"bpf.interp.memories_per_s", "1/s"},
    // The benchmark's own health.
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

struct Workload {
  const char *Name;
  Outcome (*Run)(const Options &);
};

const Workload Workloads[] = {
    {"verify-batch", runVerifyBatch},
    {"daemon-cache", runDaemonCache},
    {"campaign", runCampaign},
    {"exec", runExec},
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {verify-batch,daemon-cache,campaign,"
               "exec} --seed N --seconds T "
               "--trace {0,1} [--work-dir DIR]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.WorkDir = ".";
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 == Argc)
      return usage(Argv[0]);
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value && !*End;
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
      if (*End || !(Opts.Seconds > 0))
        return usage(Argv[0]);
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return usage(Argv[0]);
      Opts.Trace = Value[0] == '1';
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Value;
    } else {
      return usage(Argv[0]);
    }
  }
  const Workload *Selected = nullptr;
  for (const Workload &W : Workloads)
    if (Opts.Workload == W.Name)
      Selected = &W;
  if (!Selected || !HaveSeed)
    return usage(Argv[0]);
  if (!makeDir(Opts.WorkDir)) {
    std::fprintf(stderr, "error: cannot create %s\n", Opts.WorkDir.c_str());
    return 2;
  }

  Outcome Out = Selected->Run(Opts);
  double FailedFrac = Out.Attempted
                          ? static_cast<double>(Out.Failed) /
                                static_cast<double>(Out.Attempted)
                          : 1.0;
  bool Correct = Out.OracleOk && Out.Failed == 0 && Out.Attempted > 0;

  const tnums::BuildInfo &Build = tnums::buildInfo();
  std::printf("workload %s seed %llu seconds %g trace %d\n", Selected->Name,
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  std::printf("info build.compiler %s\n", Build.Compiler.c_str());
  std::printf("info build.type %s\n", Build.BuildType.c_str());
  std::printf("info build.simd_auto %s\n", Build.SimdDispatch.c_str());
  std::printf("info build.computed_goto %s\n",
              tnums::bpf::threadedDispatchAvailable() ? "yes" : "no");
  std::printf("info workdir.filesystem %s\n",
              filesystemType(Opts.WorkDir).c_str());
  for (const auto &[Key, Value] : Out.Info)
    std::printf("info %s %s\n", Key.c_str(), Value.c_str());
  std::printf("info attempted %llu failed %llu failed_frac %.17g\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), FailedFrac);

  // The metric set of this run, printed by name and then as the JSON line.
  std::vector<std::pair<const MetricName *, double>> Report;
  if (Opts.Trace) {
    Out.layer("failed_frac", FailedFrac, "ratio");
    for (const MetricName &M : PerLayer) {
      auto It = Out.Layer.find(M.Name);
      Report.emplace_back(&M, It == Out.Layer.end() ? 0.0 : It->second.Value);
      if (It != Out.Layer.end() && It->second.Unit != M.Unit) {
        std::fprintf(stderr, "error: metric %s reported in %s, listed in %s\n",
                     M.Name, It->second.Unit.c_str(), M.Unit);
        return 2;
      }
    }
    for (const auto &[Name, Value] : Out.Layer) {
      bool Listed = false;
      for (const MetricName &M : PerLayer)
        Listed |= Name == M.Name;
      if (!Listed) {
        std::fprintf(stderr, "error: unlisted metric %s\n", Name.c_str());
        return 2;
      }
    }
  } else {
    const double Values[] = {Out.SetupS, peakRssMb(), Out.ThroughputPerS};
    for (size_t I = 0; I != std::size(EndToEnd); ++I)
      Report.emplace_back(&EndToEnd[I], Values[I]);
  }
  for (const auto &[M, Value] : Report)
    std::printf("metric %s %.17g %s\n", M->Name, Value, M->Unit);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (size_t I = 0; I != Report.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Report[I].first->Name, Report[I].second,
                Report[I].first->Unit);
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
