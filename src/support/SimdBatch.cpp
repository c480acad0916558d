//===- support/SimdBatch.cpp - Batched member-scan mode -------------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/SimdBatch.h"

#include <cstring>

using namespace tnums;

std::optional<SimdMode> tnums::parseSimdMode(const char *Text) {
  if (std::strcmp(Text, "auto") == 0)
    return SimdMode::Auto;
  if (std::strcmp(Text, "off") == 0)
    return SimdMode::Off;
  return std::nullopt;
}

const char *tnums::simdModeName(SimdMode Mode) {
  switch (Mode) {
  case SimdMode::Auto:
    return "auto";
  case SimdMode::Off:
    return "off";
  }
  return "unknown";
}

std::string tnums::simdPathDescription(SimdMode Mode) {
  return simdModeBatches(Mode) ? "batched" : "scalar reference";
}
