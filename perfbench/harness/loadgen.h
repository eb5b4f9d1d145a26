#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The benchmark's HTTP load generator: a closed loop (each client
// sends its next request when the previous one answers) and an open
// loop (requests are due on a Poisson schedule and timed from when
// they were due). Every /predict body is kept per hour so the checks
// can compare it with the in-process reference.

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One request the clients can issue.
struct Op {
  enum Kind { kPredict, kHealthz } kind = kPredict;
  int64_t t = 0;  // the hour a /predict asks for
};

/// What the clients saw: the body per /predict hour, with how many
/// responses carried it.
struct Seen {
  std::string body;
  int64_t count = 0;
};

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;   // open loop: send time - due time
  std::vector<double> due_s;     // open loop: due offset in the phase
  std::vector<double> done_s;    // closed loop: completion offset
  int64_t attempted = 0;
  int64_t failed = 0;
  std::unordered_map<int64_t, Seen> seen;  // t -> /predict body
  std::string first_error;
};

/// Runs `threads` clients back to back over `ops` for `seconds`, or
/// until `max_requests` requests have been sent, whichever ends first.
std::vector<ClientStats> ClosedLoop(int port, int threads,
                                    const std::vector<Op>& ops, double seconds,
                                    SpanLog* spans,
                                    int64_t max_requests = INT64_MAX);

/// Open loop: request j is due `schedule[j]` seconds after `start`;
/// `threads` senders take them in order. Latency is measured from the
/// due time, so a stall also charges the requests queued behind it;
/// `late_ms` is how late each request was sent.
std::vector<ClientStats> OpenLoop(int port, int threads,
                                  const std::vector<Op>& ops,
                                  const std::vector<double>& schedule,
                                  std::chrono::steady_clock::time_point start,
                                  SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
