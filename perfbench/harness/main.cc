// perfbench_harness: runs one benchmark workload in-process (training)
// or against a spawned equitensor_serve (serving) and prints one JSON
// result line: provenance, metrics with units, operation counts and
// check failures. perfbench/run.py builds this binary and turns the
// line into the benchmark's result. Each workload's parameters are
// constants of the harness; only the run length comes from outside.
//
//   perfbench_harness --workload=serve_predict --seed=3 --seconds=15
//       --serve_bin=.../equitensor_serve --work_dir=.bench_out/r

#include <iostream>
#include <thread>

#include "common.h"
#include "nn/backend_registry.h"
#include "util/flags.h"
#include "util/thread_pool.h"

using namespace perfbench;
using equitensor::JsonValue;

namespace {

JsonValue MetricsJson(const std::vector<Metric>& metrics) {
  JsonValue doc = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    doc.Set(m.name, std::move(entry));
  }
  return doc;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return PERFBENCH_SANITIZE != 0;
}

double MedianOf(const JsonValue* series) {
  std::vector<double> values;
  if (series != nullptr) {
    for (const JsonValue& v : series->items()) values.push_back(v.number());
  }
  return values.empty() ? 0.0 : Median(values);
}

const Metric* Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  equitensor::FlagParser flags;
  flags.DefineString("workload", "", "train_paper_grid | serve_predict");
  flags.DefineInt("seed", 1, "input seed");
  flags.DefineBool("trace", false, "per-layer traced run");
  flags.DefineDouble("seconds", 15.0, "run length; serve phases scale with it");
  flags.DefineString("serve_bin", "", "equitensor_serve binary");
  flags.DefineString("work_dir", ".", "scratch directory for this run");
  flags.DefineString("commit", "unknown", "source revision, for provenance");
  if (!flags.Parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }

  Options o;
  o.workload = flags.GetString("workload");
  o.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  o.trace = flags.GetBool("trace");
  o.seconds = flags.GetDouble("seconds");
  o.serve_bin = flags.GetString("serve_bin");
  o.work_dir = flags.GetString("work_dir");
  o.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  const bool train = o.workload == "train_paper_grid";
  const bool serve = o.workload == "serve_predict";
  if (!train && !serve) {
    std::cerr << "unknown --workload=" << o.workload << "\n";
    return 2;
  }
  if (!(o.seconds > 0.0)) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  if (serve && o.serve_bin.empty()) {
    std::cerr << "--serve_bin is required for " << o.workload << "\n";
    return 2;
  }

  JsonValue provenance = JsonValue::Object();
  provenance.Set("workload", JsonValue::Str(o.workload));
  provenance.Set("seed", JsonValue::Int(static_cast<int64_t>(o.seed)));
  provenance.Set("trace", JsonValue::Bool(o.trace));
  provenance.Set("seconds", JsonValue::Number(o.seconds));
  provenance.Set("nproc", JsonValue::Int(o.nproc));
  provenance.Set("threads", JsonValue::Int(equitensor::NumThreads()));
  provenance.Set("backend", JsonValue::Str(equitensor::backend::BackendName(
                                equitensor::backend::CurrentBackend())));
  provenance.Set("simd_accelerator",
                 JsonValue::Bool(equitensor::backend::SimdAcceleratorActive()));
  provenance.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  provenance.Set("sanitizer", JsonValue::Bool(SanitizerBuild()));
  provenance.Set("commit", JsonValue::Str(flags.GetString("commit")));

  Result result;
  SpanLog spans;
  if (!o.trace) {
    if (train) {
      RunTrainWorkload(o, nullptr, &result);
    } else {
      RunServeWorkload(o, nullptr, &result);
    }
  } else {
    // The traced run: the workload with spans on (plus an untraced
    // reference for the overhead), then the per-layer suite.
    double overhead_pct = 0.0;
    if (train) {
      // Traced, then untraced; the overhead compares the two passes.
      // One pair of ~20 s passes resolves it only to the host's
      // pass-to-pass noise (about 15 %); more passes would not fit the
      // run's time limit on a slowed host.
      Result plain;
      RunTrainWorkload(o, &spans, &result);
      RunTrainWorkload(o, nullptr, &plain);
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      const JsonValue* a = plain.detail.Find("train");
      const JsonValue* b = result.detail.Find("train");
      if (a == nullptr || b == nullptr ||
          a->Find("loss_digest")->str() != b->Find("loss_digest")->str()) {
        result.Fail("traced and untraced loss trajectories differ");
      }
      const Metric* before = Find(plain.metrics, "time_to_z_s");
      const Metric* after = Find(result.metrics, "time_to_z_s");
      if (before != nullptr && after != nullptr) {
        overhead_pct = (after->value / before->value - 1.0) * 100.0;
      }
    } else {
      RunServeWorkload(o, &spans, &result);
      const double plain = MedianOf(result.detail.Find("closed_untraced_rps"));
      const double traced = MedianOf(result.detail.Find("closed_rps"));
      if (traced > 0) overhead_pct = (plain / traced - 1.0) * 100.0;
    }
    result.detail.Set("end_to_end_traced", MetricsJson(result.metrics));
    const std::vector<Metric> traced = std::move(result.metrics);
    result.metrics.clear();
    RunLayerSuite(o, &spans, &result);
    for (const char* name : {"quality.recon_mae", "quality.z_fairness_corr"}) {
      if (const Metric* m = Find(traced, name)) result.Set(name, m->value, m->unit);
    }
    result.Set("trace.overhead_pct", overhead_pct, "%");
    const std::string path = o.work_dir + "/spans.jsonl";
    spans.WriteJsonl(path);
    result.detail.Set("spans", JsonValue::Int(static_cast<int64_t>(spans.size())));
    result.detail.Set("spans_file", JsonValue::Str(path));
  }

  JsonValue failures = JsonValue::Array();
  for (const std::string& f : result.failures) failures.Append(JsonValue::Str(f));
  JsonValue out = JsonValue::Object();
  out.Set("provenance", std::move(provenance));
  out.Set("attempted", JsonValue::Int(result.attempted));
  out.Set("failed", JsonValue::Int(result.failed));
  out.Set("failures", std::move(failures));
  out.Set("metrics", MetricsJson(result.metrics));
  out.Set("detail", std::move(result.detail));
  std::cout << out.Dump() << "\n";
  return 0;
}
