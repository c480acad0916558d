//===- perfbench/src/Programs.cpp - Seeded program streams ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "bpf/Analyzer.h"
#include "service/WireProtocol.h"
#include "support/Random.h"

#include <unordered_set>

using namespace tnums;
using namespace tnums::service;

namespace perfbench {

const GenProfile Families[NumFamilies] = {
    GenProfile::AluMix, GenProfile::BoundsCheck, GenProfile::PacketFilter,
    GenProfile::Loops,  GenProfile::MaskIdx,     GenProfile::Scaled};

const char *familyName(unsigned Family) {
  return genProfileName(Families[Family]);
}

ProgramStream makeLoaderStream(uint64_t Seed, uint64_t Draws) {
  // Family draw in tenths: the four mixed shapes 2/10 each, the
  // tnum-stressing maskidx/scaled shapes 1/10 each.
  static const unsigned FamilyOfTenth[10] = {0, 0, 1, 1, 2, 2, 3, 3, 4, 5};
  Xoshiro256 Pick(Seed ^ 0x10ADE2ull);
  std::vector<ProgramGen> Gens;
  for (unsigned F = 0; F != NumFamilies; ++F)
    Gens.emplace_back(Seed * 0x9E3779B97F4A7C15ull + F,
                      GenOptions{Families[F], RegionBytes});

  ProgramStream Stream;
  auto Push = [&Stream](bpf::Program Prog, unsigned F) {
    VerifyRequest Request;
    Request.Prog = std::move(Prog);
    Request.MemSize = RegionBytes;
    Stream.Requests.push_back(std::move(Request));
    Stream.Family.push_back(static_cast<uint8_t>(F));
  };
  for (uint64_t Draw = 0; Draw != Draws; ++Draw) {
    unsigned F = FamilyOfTenth[Pick.nextBelow(10)];
    bpf::Program Prog = Gens[F].next();
    bool Mutate = Pick.nextChance(1, 8);
    bpf::Program Mutant = Mutate ? Gens[F].mutate(Prog) : bpf::Program();
    Push(std::move(Prog), F);
    if (Mutate)
      Push(std::move(Mutant), F);
  }
  return Stream;
}

std::vector<uint8_t> seededMemory(uint64_t Seed, uint64_t Index,
                                  unsigned Run) {
  Xoshiro256 Rng(Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1) + Run));
  std::vector<uint8_t> Mem(RegionBytes);
  for (uint8_t &Byte : Mem)
    Byte = static_cast<uint8_t>(Rng.next());
  return Mem;
}

std::vector<size_t> uniqueRequests(const ProgramStream &Stream) {
  std::unordered_set<std::string> Seen;
  std::vector<size_t> Unique;
  for (size_t I = 0; I != Stream.Requests.size(); ++I)
    if (Seen.insert(encodeRequestCanonical(Stream.Requests[I])).second)
      Unique.push_back(I);
  return Unique;
}

double attributeAnalysis(const ProgramStream &Stream,
                         const std::vector<size_t> &Unique, SpanLog &Log,
                         int32_t Root, Outcome &Out) {
  bpf::Analyzer Engine;
  std::vector<double> AnalyzeUs;
  double FamilySeconds[NumFamilies] = {};
  double ValidateS = 0, AnalyzeS = 0;
  uint64_t Visits = 0;
  for (size_t Index : Unique) {
    const VerifyRequest &Request = Stream.Requests[Index];
    uint64_t V0 = nowNs();
    {
      ScopedSpan S(&Log, "bpf.validate", Root, Index + 1);
      if (Request.Prog.validate())
        continue; // Structurally invalid: the batch never analyzes it.
    }
    uint64_t A0 = nowNs();
    bpf::AnalysisResult Result;
    {
      ScopedSpan S(&Log, "bpf.analyze", Root, Index + 1);
      bpf::Analyzer::Options AOpts = Request.AnalyzerOpts;
      AOpts.MemSize = Request.MemSize;
      Result = Engine.analyze(Request.Prog, AOpts);
    }
    uint64_t A1 = nowNs();
    ValidateS += static_cast<double>(A0 - V0) * 1e-9;
    double Seconds = static_cast<double>(A1 - A0) * 1e-9;
    AnalyzeS += Seconds;
    FamilySeconds[Stream.Family[Index]] += Seconds;
    AnalyzeUs.push_back(Seconds * 1e6);
    Visits += Result.InsnVisits;
  }
  Out.layer("bpf.validate.s", ValidateS, "s");
  Out.layer("bpf.analyze.s", AnalyzeS, "s");
  Out.layer("bpf.analyze.us.p50", percentile(AnalyzeUs, 0.50), "us");
  Out.layer("bpf.analyze.us.p99", percentile(AnalyzeUs, 0.99), "us");
  for (unsigned F = 0; F != NumFamilies; ++F)
    Out.layer(std::string("bpf.analyze.") + familyName(F) + ".s",
              FamilySeconds[F], "s");
  Out.layer("bpf.analyze.insn_visits", static_cast<double>(Visits), "count");
  Out.layer("bpf.analyze.ns_per_visit",
            Visits ? AnalyzeS * 1e9 / static_cast<double>(Visits) : 0, "ns");
  return ValidateS + AnalyzeS;
}

} // namespace perfbench
