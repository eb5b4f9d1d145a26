#include "loadgen.h"

#include <atomic>
#include <thread>

#include "util/http_server.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

class Client {
 public:
  explicit Client(int port) : port_(port) {}

  /// Issues `op`; records the outcome into `stats`. Returns success.
  bool Issue(const Op& op, ClientStats* stats) {
    ++stats->attempted;
    std::string error;
    if (!http_.connected() && !http_.Connect(port_, &error)) {
      return Failed(stats, "connect: " + error);
    }
    int status = 0;
    std::string body;
    const bool ok =
        op.kind == Op::kPredict
            ? http_.Post("/predict", "{\"t\": " + std::to_string(op.t) + "}",
                         "application/json", &status, &body, &error)
            : http_.Get("/healthz", &status, &body, &error);
    if (!ok) return Failed(stats, error);
    if (status != 200) {
      return Failed(stats, "HTTP " + std::to_string(status) + ": " + body);
    }
    if (op.kind == Op::kHealthz) return true;
    Seen& seen = stats->seen[op.t];
    if (seen.count == 0) {
      seen.body = std::move(body);
    } else if (seen.body != body) {
      return Failed(stats, "two different bodies for one hour");
    }
    ++seen.count;
    return true;
  }

 private:
  bool Failed(ClientStats* stats, const std::string& why) {
    ++stats->failed;
    if (stats->first_error.empty()) stats->first_error = why;
    http_.Close();
    return false;
  }

  int port_;
  equitensor::HttpClient http_;
};

}  // namespace

std::vector<ClientStats> ClosedLoop(int port, int threads,
                                    const std::vector<Op>& ops, double seconds,
                                    SpanLog* spans, int64_t max_requests) {
  std::vector<ClientStats> stats(static_cast<size_t>(threads));
  std::atomic<int64_t> next{0};
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration<double>(seconds);
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      Client client(port);
      ClientStats& mine = stats[static_cast<size_t>(i)];
      for (int64_t j = next.fetch_add(1);
           j < max_requests && Clock::now() < end; j = next.fetch_add(1)) {
        const Op& op = ops[static_cast<size_t>(j) % ops.size()];
        const auto start = Clock::now();
        {
          ScopedSpan span(spans, "client.request",
                          spans != nullptr ? spans->NextId() : 0);
          client.Issue(op, &mine);
        }
        const auto done = Clock::now();
        mine.latency_ms.push_back(Seconds(done - start) * 1e3);
        mine.done_s.push_back(Seconds(done - begin));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return stats;
}

std::vector<ClientStats> OpenLoop(int port, int threads,
                                  const std::vector<Op>& ops,
                                  const std::vector<double>& schedule,
                                  std::chrono::steady_clock::time_point start,
                                  SpanLog* spans) {
  std::vector<ClientStats> stats(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      Client client(port);
      ClientStats& mine = stats[static_cast<size_t>(i)];
      for (size_t j = next.fetch_add(1); j < schedule.size();
           j = next.fetch_add(1)) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(schedule[j]));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        {
          ScopedSpan span(spans, "client.request",
                          spans != nullptr ? spans->NextId() : 0);
          client.Issue(ops[j % ops.size()], &mine);
        }
        mine.latency_ms.push_back(Seconds(Clock::now() - due) * 1e3);
        mine.late_ms.push_back(Seconds(sent - due) * 1e3);
        mine.due_s.push_back(schedule[j]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return stats;
}

}  // namespace perfbench
