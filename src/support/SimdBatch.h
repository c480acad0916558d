//===- support/SimdBatch.h - Batched member-scan mode -----------*- C++ -*-===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The switch between the two member-scan paths of the exhaustive
/// verification sweeps. The hot loop of every sweep is the membership
/// predicate c in gamma(R), i.e. (c & ~R.m) == R.v (Eqn. 9), evaluated
/// billions of times per campaign, and the alpha reduction (Eqn. 5) over
/// the same member pairs. Two paths compute them:
///
///   * the batched member-pair loops (verify/MemberLoops.h): one portable
///     source written with GCC/Clang vector types, compiled once for the
///     build target -- no intrinsics, no runtime CPU probe;
///   * the scalar reference: forEachMember x Tnum::contains and the
///     abstractInsert fold, exactly the pre-batching code.
///
/// Every path produces bit-identical reports; the differential tests pin
/// the batched loops to the scalar reference.
///
/// Layering: this file knows nothing about tnums. The padded member lists
/// live in tnum/TnumMembers.h and the loops that consume them in verify/.
///
//===----------------------------------------------------------------------===//

#ifndef TNUMS_SUPPORT_SIMDBATCH_H
#define TNUMS_SUPPORT_SIMDBATCH_H

#include <cstdint>
#include <optional>
#include <string>

namespace tnums {

/// How a sweep selects its member-scan path.
///
///   * Auto -- the batched member-pair loops.
///   * Off  -- the scalar reference path: one member per callback through
///             forEachMember x Tnum::contains, exactly the pre-batching
///             code. This is the baseline the differential tests (and the
///             --simd A/B benchmark) pin the batched loops against.
enum class SimdMode {
  Auto,
  Off,
};

/// Parses "auto" / "off". Returns std::nullopt on anything else.
std::optional<SimdMode> parseSimdMode(const char *Text);

/// Stable lower-case name ("auto", "off").
const char *simdModeName(SimdMode Mode);

/// The "--simd=..." value list for usage strings and error messages.
inline constexpr char SimdModeUsage[] = "{auto,off}";

/// True when \p Mode routes sweeps through the batched loops.
inline bool simdModeBatches(SimdMode Mode) { return Mode != SimdMode::Off; }

/// Human-readable description of what \p Mode runs: "batched" or
/// "scalar reference".
std::string simdPathDescription(SimdMode Mode);

} // namespace tnums

#endif // TNUMS_SUPPORT_SIMDBATCH_H
