#include "util/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/trace.h"

namespace equitensor {
namespace {

// One parallel region. Shared (via shared_ptr) between the submitting
// thread and every worker that touches it, so the region outlives any
// straggler still holding a reference after the last chunk completes.
struct ParallelJob {
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};       // Next chunk index to claim.
  std::atomic<int64_t> completed{0};  // Chunks fully processed.
  std::mutex error_mu;
  std::exception_ptr error;  // First exception thrown by the body.
};

// Set while a thread (worker or submitter) executes inside a parallel
// region; nested ParallelFor calls from such a thread run serially.
thread_local bool tls_in_parallel_region = false;

class Pool {
 public:
  ~Pool() { Stop(); }

  // Claims and runs chunks of `job` until none remain.
  static void Work(ParallelJob* job) {
    tls_in_parallel_region = true;
    for (;;) {
      const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job->num_chunks) break;
      const int64_t b = job->begin + c * job->chunk;
      const int64_t e = std::min(job->end, b + job->chunk);
      try {
        (*job->body)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> guard(job->error_mu);
        if (!job->error) job->error = std::current_exception();
      }
      job->completed.fetch_add(1, std::memory_order_acq_rel);
    }
    tls_in_parallel_region = false;
  }

  // Runs `job` with up to `workers` helper threads plus the caller.
  // Only one region runs at a time (mu_ is held by the submitter).
  void Run(const std::shared_ptr<ParallelJob>& job, int workers) {
    Resize(workers);
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      job_ = job;
      ++generation_;
    }
    wake_cv_.notify_all();
    Work(job.get());
    {
      std::unique_lock<std::mutex> lock(job_mu_);
      done_cv_.wait(lock, [&] {
        return job->completed.load(std::memory_order_acquire) ==
               job->num_chunks;
      });
      job_.reset();
    }
  }

  std::mutex mu_;  // Serializes submitters; held across Run().

 private:
  void Resize(int workers) {
    if (static_cast<int>(threads_.size()) == workers) return;
    Stop();
    stop_ = false;
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] {
        SetTraceThreadName("pool.worker" + std::to_string(i));
        WorkerLoop();
      });
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      stop_ = true;
      ++generation_;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<ParallelJob> job;
      {
        std::unique_lock<std::mutex> lock(job_mu_);
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (!job) continue;
      Work(job.get());
      // Waking the submitter needs the lock so the notify cannot slip
      // between its predicate check and its wait.
      if (job->completed.load(std::memory_order_acquire) == job->num_chunks) {
        std::lock_guard<std::mutex> lock(job_mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex job_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<ParallelJob> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Pool& GlobalPool() {
  static Pool* pool = new Pool();  // Leaked: workers may outlive main.
  return *pool;
}

int DefaultNumThreads() {
  if (const char* env = std::getenv("ET_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

// 0 = automatic (ET_THREADS env var, then hardware concurrency).
std::atomic<int> g_requested_threads{0};

constexpr int kMaxThreads = 256;

}  // namespace

void SetNumThreads(int n) {
  if (n < 0) n = 0;
  g_requested_threads.store(n, std::memory_order_relaxed);
}

int NumThreads() {
  int n = g_requested_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    static const int auto_threads = DefaultNumThreads();
    n = auto_threads;
  }
  return n > kMaxThreads ? kMaxThreads : n;
}

int ParallelWidth() { return tls_in_parallel_region ? 1 : NumThreads(); }

TaskPool::TaskPool(int threads, size_t queue_capacity)
    : capacity_(queue_capacity) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      SetTraceThreadName("task.worker" + std::to_string(i));
      WorkerLoop();
    });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    queue_.clear();  // Unstarted tasks are dropped on destruction.
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

bool TaskPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void TaskPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;  // Queued tasks still run; WorkerLoop drains.
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void TaskPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Exceptions are the task's own problem: handlers catch.
  }
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t range = end - begin;
  const int threads = NumThreads();
  if (threads <= 1 || range <= grain || tls_in_parallel_region) {
    fn(begin, end);
    return;
  }
  Pool& pool = GlobalPool();
  // A second thread submitting concurrently just runs its region
  // inline; the pool is a throughput optimization, not a scheduler.
  std::unique_lock<std::mutex> submit(pool.mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    fn(begin, end);
    return;
  }
  auto job = std::make_shared<ParallelJob>();
  job->body = &fn;
  job->begin = begin;
  job->end = end;
  // Oversubscribe chunks 4x relative to threads for load balance, but
  // never below the requested grain. Chunk geometry affects only the
  // schedule, never the per-index arithmetic (see header contract).
  const int64_t target_chunks = static_cast<int64_t>(threads) * 4;
  int64_t chunk = (range + target_chunks - 1) / target_chunks;
  if (chunk < grain) chunk = grain;
  job->chunk = chunk;
  job->num_chunks = (range + chunk - 1) / chunk;
  if (job->num_chunks <= 1) {
    submit.unlock();
    fn(begin, end);
    return;
  }
  pool.Run(job, threads - 1);
  submit.unlock();
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace equitensor
