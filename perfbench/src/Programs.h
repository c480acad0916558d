//===- perfbench/src/Programs.h - Seeded program streams --------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program inputs the verifier and executor workloads share: a seeded
/// loader stream drawn over the six ProgramGen families, seeded input
/// memories, and the bpf-layer attribution pass (validate and analyze
/// timed per unique program) that the traced runs of verify-batch and
/// daemon-cache.cold both report.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_PERFBENCH_PROGRAMS_H
#define TNUMS_PERFBENCH_PROGRAMS_H

#include "Bench.h"

#include "service/ProgramGen.h"
#include "service/VerificationService.h"

#include <vector>

namespace perfbench {

/// The six generator families, in report order.
inline constexpr unsigned NumFamilies = 6;
extern const tnums::service::GenProfile Families[NumFamilies];

/// Short family name ("alu", "bounds", ...).
const char *familyName(unsigned Family);

/// Context-region size every generated program targets.
inline constexpr uint64_t RegionBytes = 32;

/// A request stream with the family each request was drawn from.
struct ProgramStream {
  std::vector<tnums::service::VerifyRequest> Requests;
  std::vector<uint8_t> Family;
};

/// A loader stream of \p Draws generated programs: each draw picks a
/// family (alu/bounds/packet/loops 20% each, maskidx/scaled 10% each) and
/// one draw in eight is followed by a ProgramGen::mutate of itself, so
/// rejects appear. Natural duplicates are kept. A pure function of
/// \p Seed and \p Draws.
ProgramStream makeLoaderStream(uint64_t Seed, uint64_t Draws);

/// The \p Run-th seeded input memory of program \p Index.
std::vector<uint8_t> seededMemory(uint64_t Seed, uint64_t Index, unsigned Run);

/// Indices of the first occurrence of each distinct request (by canonical
/// request bytes) -- the requests a deduplicating batch analyzes.
std::vector<size_t> uniqueRequests(const ProgramStream &Stream);

/// Times Program::validate and Analyzer::analyze for every request in
/// \p Unique under span \p Root of \p Log, and fills the bpf.validate.*,
/// bpf.analyze.* metrics of \p Out. Returns validate + analyze seconds.
double attributeAnalysis(const ProgramStream &Stream,
                         const std::vector<size_t> &Unique, SpanLog &Log,
                         int32_t Root, Outcome &Out);

} // namespace perfbench

#endif // TNUMS_PERFBENCH_PROGRAMS_H
