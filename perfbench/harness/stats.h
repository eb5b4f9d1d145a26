#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Timing summaries: a median plus the highest standard percentile that
// has at least kMinBeyond samples strictly after it in sorted order,
// reported together with the sample count; and the quiet quartile of
// repeated measurements.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr int64_t kMinBeyond = 10;

struct Summary {
  int64_t count = 0;
  double median = 0.0;
  double tail = 0.0;    // value at tail_q
  double tail_q = 0.0;  // e.g. 0.99; 1.0 (the maximum) when too few samples
  int64_t beyond = 0;   // samples after the tail rank
};

/// Nearest-rank index of quantile `q` in a sorted sample of size `n`.
inline int64_t RankIndex(int64_t n, double q) {
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

enum Direction { kLowerIsBetter, kHigherIsBetter };

/// The quiet quartile of repeated measurements of one quantity: the
/// nearest-rank 25th percentile when lower is better, the 75th when
/// higher is better (of 10 values the third best, of 3 the best).
/// Interference from other tenants of a host only ever slows a
/// measurement, while a change to the program moves every repetition,
/// so this keeps the program's effect and drops interference that
/// lasts up to three quarters of the repetitions.
inline double QuietQuartile(std::vector<double> values, Direction better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t k = RankIndex(n, 0.25);
  return values[static_cast<size_t>(better == kLowerIsBetter ? k : n - 1 - k)];
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  s.median = Median(values);
  std::sort(values.begin(), values.end());
  s.tail = values.back();
  s.tail_q = 1.0;
  for (double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}) {
    const int64_t index = RankIndex(s.count, q);
    const int64_t beyond = s.count - 1 - index;
    if (beyond >= kMinBeyond) {
      s.tail = values[static_cast<size_t>(index)];
      s.tail_q = q;
      s.beyond = beyond;
      break;
    }
  }
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
