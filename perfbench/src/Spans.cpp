//===- perfbench/src/Spans.cpp --------------------------------------------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <fstream>
#include <string_view>

using namespace perfbench;

std::vector<double> SpanRecorder::selfMs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = double(Spans[I].EndNs - Spans[I].StartNs) / 1e6;
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      Self[S.Parent] -= double(S.EndNs - S.StartNs) / 1e6;
  return Self;
}

std::vector<std::map<std::string, double>>
SpanRecorder::selfByRoot(const std::string &Root) const {
  std::vector<double> Self = selfMs();
  std::vector<std::map<std::string, double>> Out;
  // Index of each root span's entry in Out, -1 for other spans.
  std::vector<int32_t> Slot(Spans.size(), -1);
  for (size_t I = 0; I < Spans.size(); ++I) {
    int32_t A = static_cast<int32_t>(I);
    while (A != NoParent && Spans[A].Name != std::string_view(Root))
      A = Spans[A].Parent;
    if (A == NoParent)
      continue;
    if (Slot[A] < 0) {
      Slot[A] = static_cast<int32_t>(Out.size());
      Out.emplace_back();
    }
    Out[Slot[A]][Spans[I].Name] += Self[I];
  }
  return Out;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << "}\n";
  }
  Out.flush();
  return static_cast<bool>(Out);
}
