// serve_predict: POST /predict against the shipped equitensor_serve
// daemon with default flags, driven over HTTP by one client process.
// Each run has rounds of two closed loops (one keep-alive connection
// per client thread, next request on reply): nproc connections measure
// capacity, one connection the latency of a lone consumer. An open-loop
// Poisson ladder, whose requests are timed from when they were due,
// follows.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unordered_map>
#include <unistd.h>

#include "common.h"
#include "core/serving.h"
#include "inputs.h"
#include "loadgen.h"
#include "util/http_server.h"

extern char** environ;

namespace perfbench {

using equitensor::JsonValue;
using equitensor::Tensor;
namespace core = equitensor::core;

namespace {

using Clock = std::chrono::steady_clock;

// The workload's phases at a 15 s run. The gated metrics come from
// rounds of two closed loops: nproc connections (capacity), then one
// connection sending a fixed number of requests back to back (the
// latency a lone consumer sees). Each metric is the rounds' quiet
// quartile (stats.h), so interference from other tenants of the host
// that lasts up to three quarters of the run does not move it. The
// number of rounds scales with --seconds; every single-connection
// segment holds the same number of requests, so its tail is always
// the same percentile (p90 of 100).
//
// The open-loop Poisson ladder follows the rounds. Its latencies and
// the SLO rate are reported in the detail line but gate nothing: on a
// shared 4-vCPU host, open-loop latency at a few hundred rps mostly
// measures how fast idle vCPUs wake (in a busy period its p50 rose
// 52 % and its tail 106 %, against 10 % and 33 % for one connection).
// The ladder rates and the latency limit were fixed once from the
// capacity measured when the benchmark was written (about 500
// /predict rps closed-loop on 4 cores).
constexpr int kSetupSamples = 3;  // bundle trainings + daemon starts
constexpr double kNominalSeconds = 15.0;
constexpr double kWarmupS = 0.5;
constexpr int kRounds = 20;           // at a 15 s run
constexpr double kClosedS = 0.25;     // nproc connections, per round
constexpr int64_t kSingleRequests = 100;  // one connection, per round
constexpr double kLadderRps[] = {150.0, 300.0, 450.0};
constexpr double kLadderStepS = 1.0;
constexpr double kLimitMs = 50.0;  // tail limit of the SLO rate

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One equitensor_serve process with default flags (plus the bundle
/// path and an ephemeral port). Stopped and reaped on destruction.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Spawns the daemon and waits until /healthz answers 200. Returns
  /// the seconds from spawn to that answer, or a negative value.
  double Start(const std::string& bin, const std::string& checkpoint,
               const std::string& log_path, std::string* error) {
    const std::string checkpoint_flag = "--checkpoint=" + checkpoint;
    const std::string port_flag = "--port=0";
    char* argv[] = {const_cast<char*>(bin.c_str()),
                    const_cast<char*>(checkpoint_flag.c_str()),
                    const_cast<char*>(port_flag.c_str()), nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const auto spawned = Clock::now();
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *error = "posix_spawn " + bin + ": " + std::strerror(rc);
      return -1.0;
    }
    const auto deadline = spawned + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      if (port_ == 0) port_ = ReadPort(log_path);
      if (port_ != 0) {
        int status = 0;
        std::string body;
        if (equitensor::HttpGet(port_, "/healthz", &status, &body, nullptr,
                                1000) &&
            status == 200) {
          return Seconds(Clock::now() - spawned);
        }
      }
      int wstatus = 0;
      if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "daemon exited during start-up (log: " + log_path + ")";
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *error = "daemon not healthy after 60 s";
    return -1.0;
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGINT);
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

 private:
  static int ReadPort(const std::string& log_path) {
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
      if (line.rfind("Serving on port ", 0) == 0) {
        return std::atoi(line.c_str() + 16);
      }
    }
    return 0;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

bool GetJson(int port, const std::string& path, JsonValue* doc) {
  int status = 0;
  std::string body;
  return equitensor::HttpGet(port, path, &status, &body) && status == 200 &&
         JsonValue::Parse(body, doc);
}

int64_t IntField(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.Find(key);
  return v == nullptr ? -1 : v->int_value();
}

struct Merged {
  std::vector<double> latency_ms, late_ms, due_s, done_s;
  int64_t attempted = 0, failed = 0;
  std::string first_error;
};

Merged Merge(std::vector<ClientStats>& parts,
             std::unordered_map<int64_t, Seen>* seen, Result* r) {
  Merged m;
  for (ClientStats& s : parts) {
    m.latency_ms.insert(m.latency_ms.end(), s.latency_ms.begin(),
                        s.latency_ms.end());
    m.late_ms.insert(m.late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    m.due_s.insert(m.due_s.end(), s.due_s.begin(), s.due_s.end());
    m.done_s.insert(m.done_s.end(), s.done_s.begin(), s.done_s.end());
    m.attempted += s.attempted;
    m.failed += s.failed;
    if (m.first_error.empty()) m.first_error = s.first_error;
    for (auto& [key, value] : s.seen) {
      Seen& into = (*seen)[key];
      if (into.count == 0) {
        into = std::move(value);
      } else if (into.body != value.body) {
        m.failed += value.count;
        if (m.first_error.empty()) {
          m.first_error = "two different bodies for one hour";
        }
      } else {
        into.count += value.count;
      }
    }
  }
  if (m.failed > 0) r->Fail(m.first_error, m.failed);
  return m;
}

/// Closed-loop completions per second: those within the first
/// `seconds`, over the time the last of them finished.
double Rate(const std::vector<double>& done_s, double seconds) {
  int64_t count = 0;
  double last = 0.0;
  for (double t : done_s) {
    if (t < seconds) {
      ++count;
      last = std::max(last, t);
    }
  }
  return last > 0.0 ? static_cast<double>(count) / last : 0.0;
}

std::string PredictBody(const core::ServingModel& model, int64_t t,
                        int64_t generation) {
  const Tensor out = model.Predict({t});
  JsonValue doc = JsonValue::Object();
  doc.Set("type", JsonValue::Str("prediction"));
  doc.Set("generation", JsonValue::Int(generation));
  doc.Set("t", JsonValue::Int(t));
  doc.Set("w", JsonValue::Int(model.w()));
  doc.Set("h", JsonValue::Int(model.h()));
  JsonValue values = JsonValue::Array();
  for (int64_t i = 0; i < model.w() * model.h(); ++i) {
    values.Append(JsonValue::Number(static_cast<double>(out[i])));
  }
  doc.Set("prediction", std::move(values));
  return doc.Dump() + "\n";
}

JsonValue Counters(int port) {
  JsonValue status;
  JsonValue out = JsonValue::Object();
  if (!GetJson(port, "/status", &status)) return out;
  if (const JsonValue* batch = status.Find("batch")) {
    out.Set("batches", JsonValue::Int(IntField(*batch, "batches")));
    out.Set("batched_requests", JsonValue::Int(IntField(*batch, "requests")));
  }
  return out;
}

JsonValue Delta(const JsonValue& before, const JsonValue& after) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : after.members()) {
    const JsonValue* b = before.Find(key);
    out.Set(key, JsonValue::Int(value.int_value() -
                                (b == nullptr ? 0 : b->int_value())));
  }
  return out;
}

}  // namespace

void RunServeWorkload(const Options& o, SpanLog* spans, Result* r) {
  const int rounds =
      std::max(1, static_cast<int>(std::lround(kRounds * o.seconds /
                                               kNominalSeconds)));
  // Set-up samples: each trains the served bundle in-process from the
  // seed (time to Z) and starts a daemon on it (set-up). They are taken
  // before, between and after the rounds, so that they sample the host
  // across the run; time to Z is the fastest, set-up the median. The
  // first daemon serves the rounds, later ones stop once healthy.
  // Training is deterministic, so every sample must give the first
  // one's Z bit for bit. The traced run reports no end-to-end metric,
  // so it takes one sample, which keeps it within its time limit.
  const int samples = spans != nullptr ? 1 : kSetupSamples;
  Bundle bundle;
  std::string error;
  std::vector<double> time_to_z_s, setup_s;
  auto setup_sample = [&](std::unique_ptr<Daemon>* daemon) {
    const std::string name = "serving" + std::to_string(setup_s.size());
    Bundle again;
    {
      ScopedSpan span(spans, "bundle.train");
      if (!BuildBundle(o.seed, o.work_dir + "/" + name + ".etck", &again,
                       &error)) {
        r->Fail(error);
        return false;
      }
    }
    time_to_z_s.push_back(again.time_to_z_s);
    if (setup_s.empty()) {
      bundle = again;
    } else if (again.z.size() != bundle.z.size() ||
               std::memcmp(again.z.data(), bundle.z.data(),
                           sizeof(float) * bundle.z.size()) != 0) {
      r->Fail("bundle training is not deterministic: Z differs in " + name);
    }
    *daemon = std::make_unique<Daemon>();
    ScopedSpan span(spans, "daemon.start");
    const double s = (*daemon)->Start(o.serve_bin, again.path,
                                      o.work_dir + "/" + name + ".log", &error);
    if (s < 0) {
      r->Fail(error);
      return false;
    }
    setup_s.push_back(s);
    r->CountPhase("setup_" + name, 1, 0);
    return true;
  };
  std::unique_ptr<Daemon> daemon;
  if (!setup_sample(&daemon)) return;
  const int port = daemon->port();
  JsonValue status;
  if (!GetJson(port, "/status", &status)) {
    r->Fail("GET /status failed");
    return;
  }

  // The request sequence: hours uniform over the daemon's range.
  constexpr int64_t kOps = 1 << 18;
  const auto hours =
      UniformInts(kOps, IntField(status, "predict_t_min"),
                  IntField(status, "predict_t_max"), StreamSeed(o.seed, "hours"));
  std::vector<Op> ops(static_cast<size_t>(kOps));
  for (int64_t i = 0; i < kOps; ++i) ops[i] = Op{Op::kPredict, hours[i]};

  std::unordered_map<int64_t, Seen> seen;
  const int clients = std::max(1, o.nproc);
  int64_t stream = 0;  // one Poisson schedule per open-loop segment

  // One open-loop segment at `rate`: whether it meets the limit (no
  // failure, tail within the limit, and a generator that does not fall
  // further behind than the limit toward its end), recorded in `ladder`.
  JsonValue ladder = JsonValue::Array();
  std::vector<double> late_all;
  auto open_segment = [&](double rate, double duration, Merged* out) {
    const auto schedule = PoissonSchedule(
        rate, duration,
        StreamSeed(o.seed, "poisson_" + std::to_string(stream++)));
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<ClientStats> parts;
    {
      ScopedSpan span(spans, "phase.open_" + std::to_string(int(rate)));
      parts = OpenLoop(port, clients, ops, schedule, start, spans);
    }
    *out = Merge(parts, &seen, r);
    const Merged& m = *out;
    r->CountPhase("open_" + std::to_string(int(rate)) + "_" +
                      std::to_string(stream - 1),
                  m.attempted, m.failed);
    const Summary lat = Summarize(m.latency_ms);
    std::vector<double> tail_late;
    for (size_t i = 0; i < m.late_ms.size(); ++i) {
      if (m.due_s[i] >= 0.75 * duration) tail_late.push_back(m.late_ms[i]);
    }
    const double end_late = Summarize(tail_late).tail;
    const bool meets =
        m.failed == 0 && lat.tail <= kLimitMs && end_late <= kLimitMs;
    late_all.insert(late_all.end(), m.late_ms.begin(), m.late_ms.end());
    JsonValue rung = JsonValue::Object();
    rung.Set("rate", JsonValue::Number(rate));
    rung.Set("sent", JsonValue::Int(m.attempted));
    rung.Set("failed", JsonValue::Int(m.failed));
    rung.Set("latency_ms", SummaryJson(lat));
    rung.Set("end_late_ms", JsonValue::Number(end_late));
    rung.Set("meets_limit", JsonValue::Bool(meets));
    ladder.Append(std::move(rung));
    return meets;
  };

  // Warm-up of the fresh daemon, unmeasured.
  {
    auto warm = ClosedLoop(port, clients, ops, kWarmupS, nullptr);
    const Merged m = Merge(warm, &seen, r);
    r->CountPhase("warmup", m.attempted, m.failed);
  }

  // Rounds: nproc connections for capacity, then one connection for
  // latency. The traced run also measures an untraced nproc segment per
  // round; the two rates give the tracing overhead.
  const JsonValue before = Counters(port);
  std::vector<double> closed_rps, untraced_rps, single_p50, single_tail;
  std::vector<double> closed_lat, single_lat;
  for (int round = 0; round < rounds; ++round) {
    if (spans != nullptr) {
      auto plain = ClosedLoop(port, clients, ops, kClosedS, nullptr);
      const Merged m = Merge(plain, &seen, r);
      r->CountPhase("closed_untraced_" + std::to_string(round), m.attempted,
                    m.failed);
      untraced_rps.push_back(Rate(m.done_s, kClosedS));
    }
    Merged closed;
    {
      ScopedSpan span(spans, "phase.closed");
      auto parts = ClosedLoop(port, clients, ops, kClosedS, spans);
      closed = Merge(parts, &seen, r);
    }
    r->CountPhase("closed_" + std::to_string(round), closed.attempted,
                  closed.failed);
    closed_rps.push_back(Rate(closed.done_s, kClosedS));
    closed_lat.insert(closed_lat.end(), closed.latency_ms.begin(),
                      closed.latency_ms.end());

    Merged single;
    {
      ScopedSpan span(spans, "phase.single");
      auto parts = ClosedLoop(port, 1, ops, 60.0, spans, kSingleRequests);
      single = Merge(parts, &seen, r);
    }
    r->CountPhase("single_" + std::to_string(round), single.attempted,
                  single.failed);
    const Summary lat = Summarize(single.latency_ms);
    single_p50.push_back(lat.median);
    single_tail.push_back(lat.tail);
    single_lat.insert(single_lat.end(), single.latency_ms.begin(),
                      single.latency_ms.end());
    // The later set-up samples: after the middle round and the last.
    const int taken = static_cast<int>(setup_s.size());
    if (taken < samples && round + 1 == taken * rounds / (samples - 1)) {
      std::unique_ptr<Daemon> spare;
      if (!setup_sample(&spare)) return;
    }
  }
  r->detail.Set("round_batch_counters", Delta(before, Counters(port)));

  // The open-loop ladder, for the SLO rate.
  double slo_rps = 0.0;
  for (double rate : kLadderRps) {
    Merged m;
    if (open_segment(rate, kLadderStepS, &m)) slo_rps = rate;
  }
  const double daemon_rss = PeakRssMb(daemon->pid());
  daemon->Stop();

  // Check against the in-process reference: each response whose body
  // differs from an unbatched Predict counts as one failed operation.
  std::shared_ptr<const core::ServingModel> model;
  {
    ScopedSpan span(spans, "check.LoadServingModel");
    model = core::LoadServingModel(bundle.path, DefaultServeTask(), 1, &error);
  }
  if (!model) {
    r->Fail("in-process LoadServingModel: " + error);
    return;
  }
  for (const auto& [t, value] : seen) {
    if (value.body != PredictBody(*model, t, 1)) {
      r->Fail("/predict body differs from unbatched Predict at t=" +
                  std::to_string(t),
              value.count);
    }
  }

  auto series = [](const std::vector<double>& values) {
    JsonValue out = JsonValue::Array();
    for (double v : values) out.Append(JsonValue::Number(v));
    return out;
  };
  r->Set("setup_s", Median(setup_s), "s");
  r->Set("peak_rss_mb", daemon_rss, "MB");
  r->Set("throughput_per_s", QuietQuartile(closed_rps, kHigherIsBetter), "1/s");
  r->Set("latency_p50_ms", QuietQuartile(single_p50, kLowerIsBetter), "ms");
  r->Set("latency_tail_ms", QuietQuartile(single_tail, kLowerIsBetter), "ms");
  r->Set("time_to_z_s", QuietQuartile(time_to_z_s, kLowerIsBetter), "s");
  r->Set("quality.recon_mae", bundle.recon_mae, "mae");
  r->Set("quality.z_fairness_corr", bundle.fairness_corr, "abs_corr");

  r->detail.Set("closed_rps", series(closed_rps));
  if (!untraced_rps.empty()) {
    r->detail.Set("closed_untraced_rps", series(untraced_rps));
  }
  r->detail.Set("closed_latency_ms", SummaryJson(Summarize(closed_lat)));
  r->detail.Set("single_p50_ms", series(single_p50));
  r->detail.Set("single_tail_ms", series(single_tail));
  r->detail.Set("single_latency_ms", SummaryJson(Summarize(single_lat)));
  r->detail.Set("ladder", std::move(ladder));
  r->detail.Set("slo_rps", JsonValue::Number(slo_rps));
  r->detail.Set("generator_late_ms", SummaryJson(Summarize(late_all)));
  r->detail.Set("setup_s", series(setup_s));
  r->detail.Set("time_to_z_s", series(time_to_z_s));
  r->detail.Set("distinct_responses_checked",
                JsonValue::Int(static_cast<int64_t>(seen.size())));
}

}  // namespace perfbench
