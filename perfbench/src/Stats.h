//===- perfbench/src/Stats.h - Sample summaries -----------------*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Medians, quartiles and the tail percentile every perfbench timing is
/// reported with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median and quartiles of a sample set. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method), so
/// the spread printed here reads the same as the one computed over runs.
struct Spread {
  double Median = 0, Q1 = 0, Q3 = 0;
  size_t N = 0;
};

inline Spread spreadOf(std::vector<double> V) {
  Spread S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  S.Median = N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
  if (N < 2) {
    S.Q1 = S.Q3 = V[0];
    return S;
  }
  auto Quartile = [&](long I) {
    long M = static_cast<long>(N) + 1;
    // statistics.quantiles clamps j to [1, n-1] before interpolating.
    long J = std::clamp<long>(I * M / 4, 1, static_cast<long>(N) - 1);
    long Delta = I * M - J * 4;
    return (V[J - 1] * double(4 - Delta) + V[J] * double(Delta)) / 4;
  };
  S.Q1 = Quartile(1);
  S.Q3 = Quartile(3);
  return S;
}

/// A tail percentile and the sample at that rank.
struct Tail {
  double Percentile = 0;
  double Value = 0;
};

/// The sample at percentile \p Preferred when at least ten samples lie
/// beyond it; otherwise at the highest lower step of a fixed ladder that
/// has ten beyond it. Each workload fixes its preferred percentile, so the
/// definition does not change with the number of samples a run collects,
/// nor when a faster program yields more of them.
inline Tail tailOf(std::vector<double> V, double Preferred) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  static constexpr std::array<double, 6> Ladder = {99.9, 99, 95, 90, 75, 50};
  for (double P : Ladder) {
    if (P > Preferred)
      continue;
    // Nearest rank: the smallest sample with at least P% of all samples
    // at or below it.
    size_t Rank = static_cast<size_t>(P / 100 * double(V.size()) + 0.999999);
    Rank = std::clamp<size_t>(Rank, 1, V.size());
    if (V.size() - Rank >= 10 || P == Ladder.back()) {
      T.Percentile = P;
      T.Value = V[Rank - 1];
      return T;
    }
  }
  return T;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
