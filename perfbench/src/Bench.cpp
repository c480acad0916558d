//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the tnums project, reproducing "Sound, Precise, and Fast Abstract
// Interpretation with Tristate Numbers" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>

namespace perfbench {

void SpanLog::absorb(const SpanLog &Child, int32_t AttachTo) {
  const int32_t Offset = static_cast<int32_t>(Spans.size());
  for (Span S : Child.Spans) {
    S.Parent = S.Parent < 0 ? AttachTo : S.Parent + Offset;
    Spans.push_back(S);
  }
}

/// Children of every span, by parent index.
static std::vector<std::vector<int32_t>>
childrenOf(const std::vector<Span> &Spans) {
  std::vector<std::vector<int32_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(
          static_cast<int32_t>(I));
  return Children;
}

/// Nanoseconds of span \p Id covered by the union of its \p Children.
static uint64_t coveredNs(const std::vector<Span> &Spans,
                          const std::vector<int32_t> &Children, int32_t Id) {
  const Span &Parent = Spans[static_cast<size_t>(Id)];
  std::vector<std::pair<uint64_t, uint64_t>> Intervals;
  for (int32_t Child : Children) {
    const Span &S = Spans[static_cast<size_t>(Child)];
    Intervals.emplace_back(std::max(S.StartNs, Parent.StartNs),
                           std::min(S.EndNs, Parent.EndNs));
  }
  std::sort(Intervals.begin(), Intervals.end());
  uint64_t Covered = 0, Reach = Parent.StartNs;
  for (auto [Begin, End] : Intervals) {
    Begin = std::max(Begin, Reach);
    if (End > Begin) {
      Covered += End - Begin;
      Reach = End;
    }
  }
  return Covered;
}

double SpanLog::uncoveredFraction(int32_t Id) const {
  const Span &S = Spans[static_cast<size_t>(Id)];
  uint64_t Duration = S.EndNs - S.StartNs;
  if (Duration == 0)
    return 0;
  uint64_t Covered =
      coveredNs(Spans, childrenOf(Spans)[static_cast<size_t>(Id)], Id);
  return static_cast<double>(Duration - Covered) /
         static_cast<double>(Duration);
}

double SpanLog::uncoveredFraction(const char *Name) const {
  std::vector<std::vector<int32_t>> Children = childrenOf(Spans);
  uint64_t Duration = 0, Covered = 0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (std::strcmp(Spans[I].Name, Name) == 0) {
      Duration += Spans[I].EndNs - Spans[I].StartNs;
      Covered += coveredNs(Spans, Children[I], static_cast<int32_t>(I));
    }
  return Duration ? static_cast<double>(Duration - Covered) /
                        static_cast<double>(Duration)
                  : 0;
}

bool SpanLog::writeJsonLines(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::vector<std::vector<int32_t>> Children = childrenOf(Spans);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Self = S.EndNs - S.StartNs -
                    coveredNs(Spans, Children[I], static_cast<int32_t>(I));
    std::fprintf(Out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"self_ns\":%llu,\"parent\":%d,\"request\":%llu}\n",
                 S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<unsigned long long>(Self), S.Parent,
                 static_cast<unsigned long long>(S.RequestId));
  }
  return std::fclose(Out) == 0;
}

double percentile(std::vector<double> &Values, double Fraction) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(Fraction * static_cast<double>(Values.size()));
  return Values[std::min(Rank, Values.size() - 1)];
}

double median(std::vector<double> Values) {
  return percentile(Values, 0.5);
}

double peakRssMb() {
  struct rusage Usage = {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string filesystemType(const std::string &Path) {
  struct statfs Info = {};
  if (statfs(Path.c_str(), &Info) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Info.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  case 0x6969:
    return "nfs";
  case 0x2FC12FC1:
    return "zfs";
  case 0x65735546:
    return "fuse";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(Info.f_type));
    return Buf;
  }
  }
}

void removeTree(const std::string &Path) {
  std::error_code Ignored;
  std::filesystem::remove_all(Path, Ignored);
}

bool makeDir(const std::string &Path) {
  std::error_code Ignored;
  std::filesystem::create_directories(Path, Ignored);
  return std::filesystem::is_directory(Path, Ignored);
}

std::string hex64(uint64_t Value) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

} // namespace perfbench
