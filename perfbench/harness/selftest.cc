// Self-tests of the benchmark harness: the percentile rule, seeded
// input generation, open-loop lateness accounting, and the conv FLOP
// and byte formulas against hand counts. Exits non-zero on failure.
//
//   .bench_build/cmake/perfbench_selftest   (or: python3 perfbench/run.py --selftest)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "flops.h"
#include "inputs.h"
#include "loadgen.h"
#include "stats.h"
#include "util/http_server.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "FAILED %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                       \
      ++failures;                                                \
    }                                                            \
  } while (0)

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 1000 samples: p99 is rank 990, with exactly 10 samples beyond it.
  Summary s = Summarize(Ramp(1000));
  CHECK(s.count == 1000);
  CHECK(s.tail_q == 0.99 && s.tail == 990.0 && s.beyond == 10);
  CHECK(s.median == 500.5);
  // 999 samples: p99 would leave 9 beyond, so the rule falls to p98.
  s = Summarize(Ramp(999));
  CHECK(s.tail_q == 0.98 && s.beyond >= kMinBeyond);
  // 10000 samples support p99.9 (10 beyond).
  s = Summarize(Ramp(10000));
  CHECK(s.tail_q == 0.999 && s.beyond == 10);
  // Too few samples for any percentile: the maximum, labelled q = 1.
  s = Summarize(Ramp(7));
  CHECK(s.count == 7 && s.tail_q == 1.0 && s.tail == 7.0 && s.beyond == 0);
  // The single-connection segment of serve_predict: 200 requests give
  // p95 with exactly 10 beyond, on every run.
  s = Summarize(Ramp(200));
  CHECK(s.tail_q == 0.95 && s.tail == 190.0 && s.beyond == 10);
}

void TestQuietQuartile() {
  // Of ten rounds the third best, whichever direction is better.
  CHECK(QuietQuartile(Ramp(10), kLowerIsBetter) == 3.0);
  CHECK(QuietQuartile(Ramp(10), kHigherIsBetter) == 8.0);
  // Of three repetitions the best one.
  CHECK(QuietQuartile({3.2, 2.9, 3.0}, kLowerIsBetter) == 2.9);
  CHECK(QuietQuartile({3.2, 2.9, 3.0}, kHigherIsBetter) == 3.2);
  // Slowing the seven slowest of ten rounds, however much, moves nothing.
  std::vector<double> rounds = Ramp(10);
  for (double& v : rounds) {
    if (v > 3.0) v *= 10.0;
  }
  CHECK(QuietQuartile(rounds, kLowerIsBetter) == 3.0);
  CHECK(QuietQuartile({}, kLowerIsBetter) == 0.0);
}

void TestSeededInputs() {
  const auto a = PoissonSchedule(500.0, 2.0, StreamSeed(7, "poisson_0"));
  const auto b = PoissonSchedule(500.0, 2.0, StreamSeed(7, "poisson_0"));
  const auto c = PoissonSchedule(500.0, 2.0, StreamSeed(8, "poisson_0"));
  CHECK(a == b);
  CHECK(a != c);
  CHECK(std::fabs(static_cast<double>(a.size()) - 1000.0) < 150.0);
  for (size_t i = 1; i < a.size(); ++i) CHECK(a[i] > a[i - 1]);
  CHECK(StreamSeed(7, "hours") != StreamSeed(7, "cache_keys"));
  const auto k1 = ZipfKeys(5000, 300, 1.0, 11);
  CHECK(k1 == ZipfKeys(5000, 300, 1.0, 11));
  for (int64_t k : k1) CHECK(k >= 0 && k < 300);
  CHECK(UniformInts(100, 24, 238, 5) == UniformInts(100, 24, 238, 5));
}

void TestLatenessFromDueTime() {
  // One sender, five requests all due at once, a handler that takes
  // 20 ms: request j is sent ~20*j ms late and completes ~20*(j+1) ms
  // after its due time.
  equitensor::HttpServer::Options options;
  options.worker_threads = 2;
  equitensor::HttpServer server(options);
  server.Handle("/predict", {"POST"}, [](const equitensor::HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    equitensor::HttpResponse response;
    response.body = "{}";
    return response;
  });
  std::string error;
  CHECK(server.Start(0, &error));
  const std::vector<double> schedule(5, 0.0);
  const std::vector<Op> ops = {Op{Op::kPredict, 30}};
  const auto start = std::chrono::steady_clock::now();
  auto stats = OpenLoop(server.port(), 1, ops, schedule, start, nullptr);
  server.Stop();
  CHECK(stats.size() == 1);
  const ClientStats& s = stats[0];
  CHECK(s.attempted == 5 && s.failed == 0);
  CHECK(s.latency_ms.size() == 5 && s.late_ms.size() == 5);
  for (size_t j = 0; j < s.late_ms.size(); ++j) {
    CHECK(s.late_ms[j] >= 20.0 * j - 1.0);
    CHECK(s.latency_ms[j] >= 20.0 * (j + 1) - 1.0);
    CHECK(s.latency_ms[j] >= s.late_ms[j] + 19.0);
  }
}

/// Counts the multiply-adds of a stride-1 conv by visiting every
/// output position and kernel tap.
int64_t BruteForceFlops(const ConvGeometry& g) {
  int64_t out[3] = {1, 1, 1};
  for (int d = 0; d < g.rank; ++d) out[d] = OutExtent(g.extent[d], g.k, g.pad);
  const int64_t k1 = g.k, k2 = g.rank >= 2 ? g.k : 1, k3 = g.rank == 3 ? g.k : 1;
  int64_t macs = 0;
  for (int64_t n = 0; n < g.batch; ++n)
    for (int64_t co = 0; co < g.cout; ++co)
      for (int64_t a = 0; a < out[0]; ++a)
        for (int64_t b = 0; b < out[1]; ++b)
          for (int64_t c = 0; c < out[2]; ++c)
            for (int64_t ci = 0; ci < g.cin; ++ci)
              macs += k1 * k2 * k3;
  return 2 * macs;
}

void TestFlopFormulas() {
  ConvGeometry g1;  // 1D: batch 2, 3 -> 4 channels, t = 5, k 3, pad 1
  g1.rank = 1, g1.batch = 2, g1.cin = 3, g1.cout = 4, g1.extent[0] = 5;
  // 2 * (2*4*5 outputs) * (3*3 taps) = 720; bytes 4*(30 + 36 + 40).
  CHECK(ConvForwardFlops(g1) == 720);
  CHECK(ConvForwardBytes(g1) == 424);
  CHECK(ConvBackwardFlops(g1) == 1440);
  CHECK(ConvForwardFlops(g1) == BruteForceFlops(g1));

  ConvGeometry g2;  // 2D: batch 1, 2 -> 3 channels, 4x5, k 3, pad 1
  g2.rank = 2, g2.cin = 2, g2.cout = 3, g2.extent[0] = 4, g2.extent[1] = 5;
  // 2 * (3*20 outputs) * (2*9 taps) = 2160; bytes 4*(40 + 54 + 60).
  CHECK(ConvForwardFlops(g2) == 2160);
  CHECK(ConvForwardBytes(g2) == 616);
  CHECK(ConvBiasActForwardFlops(g2) == 2160 + 60);
  CHECK(ConvForwardFlops(g2) == BruteForceFlops(g2));

  ConvGeometry g3;  // 3D: 1 -> 2 channels, 4x4x4, k 3, pad 0 ("valid")
  g3.rank = 3, g3.cout = 2, g3.pad = 0;
  g3.extent[0] = g3.extent[1] = g3.extent[2] = 4;
  // Output 2x2x2: 2 * (2*8 outputs) * 27 taps = 864; bytes 4*(64+54+16).
  CHECK(ConvForwardFlops(g3) == 864);
  CHECK(ConvForwardBytes(g3) == 536);
  CHECK(ConvBackwardBytes(g3) == 4 * (2 * 64 + 2 * 54 + 16));
  CHECK(ConvForwardFlops(g3) == BruteForceFlops(g3));

  CHECK(MatMulFlops(2, 3, 4) == 48);
  CHECK(MatMulBytes(2, 3, 4) == 4 * (6 + 12 + 8));
}

}  // namespace

int main() {
  TestPercentileRule();
  TestQuietQuartile();
  TestSeededInputs();
  TestLatenessFromDueTime();
  TestFlopFormulas();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
