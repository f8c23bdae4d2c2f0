//===- Stats.h - Order statistics for the benchmark -------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Percentiles, geometric means and the tail-percentile rule the benchmark
/// reports latencies with.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_PERFBENCH_STATS_H
#define FUTHARKCC_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (0..100) of \p Xs; 0 when empty.
inline double percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = P / 100.0 * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * Frac;
}

inline double median(const std::vector<double> &Xs) {
  return percentile(Xs, 50);
}

/// Each operation's best (lowest) time over the passes of a run: \p Ms holds
/// whole passes of \p OpsPerPass operations each, the same operations in
/// the same order every pass.  Interference from other work on a shared
/// machine only ever adds time, and comes in bursts of seconds, so the best
/// of a few repetitions spread over the run is what the operation costs.
inline std::vector<double> bestPerOp(const std::vector<double> &Ms,
                                     size_t OpsPerPass) {
  std::vector<double> Best(Ms.begin(),
                           Ms.begin() + std::min(OpsPerPass, Ms.size()));
  for (size_t I = OpsPerPass; I < Ms.size(); ++I)
    Best[I % OpsPerPass] = std::min(Best[I % OpsPerPass], Ms[I]);
  return Best;
}

/// Geometric mean of the positive values of \p Xs (0 when there are none):
/// a run that never touched device memory has no size to average.
inline double geomean(const std::vector<double> &Xs) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : Xs)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

/// The tail percentile of a workload whose pass issues \p OpsPerPass
/// operations: the highest of p99.9/p99/p95/p90 with at least ten of one
/// pass's operations beyond it, and p90 when even that has fewer.  It
/// depends only on the pass size, never on how many passes a run made, so
/// a faster program is not reported at a different percentile.
inline double tailPercentile(size_t OpsPerPass) {
  for (double P : {99.9, 99.0, 95.0, 90.0})
    if ((1.0 - P / 100.0) * static_cast<double>(OpsPerPass) >= 10.0 - 1e-9)
      return P;
  return 90.0;
}

} // namespace perfbench

#endif // FUTHARKCC_PERFBENCH_STATS_H
