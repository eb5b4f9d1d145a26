#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded, shape-driven input generation. Every input a workload feeds
// the program derives from (run seed, stream name, shape) alone, so one
// seed reproduces the city, the train seed, the hour and key sequences
// and the Poisson arrival schedule, and a row can be regenerated from
// its seed without rerunning the benchmark.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string_view>
#include <vector>

namespace perfbench {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent seed for one named input stream of a run.
inline uint64_t StreamSeed(uint64_t seed, std::string_view stream) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the stream name
  for (char c : stream) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ULL;
  }
  return SplitMix64(seed ^ SplitMix64(h));
}

/// `count` draws of `dist` from an engine seeded with `seed`.
template <class T, class Dist>
std::vector<T> GenerateData(int64_t count, uint64_t seed, Dist dist) {
  std::vector<T> result(static_cast<size_t>(count));
  std::mt19937_64 engine{seed};
  std::generate(result.begin(), result.end(),
                [&] { return static_cast<T>(dist(engine)); });
  return result;
}

/// Uniform integers in [lo, hi].
inline std::vector<int64_t> UniformInts(int64_t count, int64_t lo, int64_t hi,
                                        uint64_t seed) {
  return GenerateData<int64_t>(count, seed,
                               std::uniform_int_distribution<int64_t>(lo, hi));
}

/// Zipf(s)-distributed keys over [0, key_space): rank r is drawn with
/// probability proportional to 1 / (r + 1)^s, and ranks map to keys
/// through a seeded permutation so hot keys are scattered.
inline std::vector<int64_t> ZipfKeys(int64_t count, int64_t key_space,
                                     double s, uint64_t seed) {
  std::vector<double> cdf(static_cast<size_t>(key_space));
  double total = 0.0;
  for (int64_t r = 0; r < key_space; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int64_t> key_of_rank(static_cast<size_t>(key_space));
  std::iota(key_of_rank.begin(), key_of_rank.end(), 0);
  std::mt19937_64 engine{seed};
  std::shuffle(key_of_rank.begin(), key_of_rank.end(), engine);
  std::uniform_real_distribution<double> unit(0.0, total);
  std::vector<int64_t> keys(static_cast<size_t>(count));
  for (int64_t& key : keys) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), unit(engine));
    const auto rank = std::min<std::ptrdiff_t>(it - cdf.begin(), key_space - 1);
    key = key_of_rank[static_cast<size_t>(rank)];
  }
  return keys;
}

/// Due times (seconds from the start of the phase) of a Poisson
/// arrival process at `rate` per second over [0, duration_s).
inline std::vector<double> PoissonSchedule(double rate, double duration_s,
                                           uint64_t seed) {
  std::mt19937_64 engine{seed};
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(engine); t < duration_s; t += gap(engine)) {
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
