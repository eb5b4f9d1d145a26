#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The traced run's span log. Spans are recorded by the benchmark's own
// code around each call into a layer's public functions: name, start,
// end, parent span, and a request id shared by every span of one
// request. They stay in memory until WriteJsonl at the end of the run.
// A null SpanLog* turns every ScopedSpan into a no-op, which is how the
// untraced run measures.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // 0 = not part of a request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans go to per-thread buffers, so recording takes no shared lock;
/// read them (size, WriteJsonl) only after every recording thread has
/// been joined. A thread's buffer is keyed by the log's address, so a
/// process keeps one SpanLog for its whole run.
class SpanLog {
 public:
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Add(Span span) { Buffer().push_back(std::move(span)); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& buffer : buffers_) n += buffer->size();
    return n;
  }

  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    for (const auto& buffer : buffers_) {
      for (const Span& s : *buffer) {
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span>& Buffer() {
    thread_local const SpanLog* owner = nullptr;
    thread_local std::vector<Span>* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      owner = this;
    }
    return *buffer;
  }

  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span. Nests through a per-thread stack of open span ids, so a
/// span opened inside another on the same thread records it as parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t request = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = std::move(name);
    span_.id = log_->NextId();
    span_.parent = open_ids().empty() ? 0 : open_ids().back();
    span_.request = request;
    open_ids().push_back(span_.id);
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    open_ids().pop_back();
    log_->Add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::vector<int64_t>& open_ids() {
    thread_local std::vector<int64_t> ids;
    return ids;
  }
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
