#ifndef EQUITENSOR_UTIL_THREAD_POOL_H_
#define EQUITENSOR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace equitensor {

/// Parallel execution layer: a lazily-initialized global worker pool
/// with a chunked parallel-for entry point. This is the substrate the
/// hot kernels (conv forward/backward, matmul, large elementwise loops)
/// are routed through.
///
/// Determinism contract: `ParallelFor` only partitions the *index
/// space*; it never changes what is computed for a given index. Every
/// kernel built on top assigns each output element to exactly one index
/// (owner-computes) and performs any reduction for that element inside
/// the owning chunk, iterating in the same order as the serial code.
/// Results are therefore bitwise-identical for 1, 2, or N threads and
/// identical to the serial reference — gradients included. See
/// DESIGN.md §8.
///
/// Thread-count selection, in priority order:
///   1. `SetNumThreads(n)` (e.g. from the `--threads` CLI flag);
///   2. the `ET_THREADS` environment variable, read once at startup;
///   3. `std::thread::hardware_concurrency()`.
/// `n <= 1` selects the serial fallback: `ParallelFor` runs the body
/// inline on the calling thread and the pool is never materialized.
/// `SetNumThreads(0)` restores automatic selection (env var / cores).

/// Sets the number of threads parallel regions may use (including the
/// calling thread, which always participates). 0 = automatic.
void SetNumThreads(int n);

/// Effective thread count the next parallel region will use (>= 1).
int NumThreads();

/// Most bodies a `ParallelFor` issued from the calling thread can run
/// at once: 1 inside a parallel region (nested regions run inline),
/// else NumThreads(). Kernels size per-worker scratch by it before the
/// region starts (see WorkerScratch in util/arena.h).
int ParallelWidth();

/// Runs `fn(chunk_begin, chunk_end)` over a partition of [begin, end)
/// into contiguous chunks of at least `grain` indices (grain < 1 is
/// treated as 1). Chunks execute concurrently on the global pool; the
/// calling thread participates. Falls back to a single inline
/// `fn(begin, end)` call when the range is at most one grain, the
/// effective thread count is 1, or the caller is already inside a
/// parallel region (nested parallelism runs serially).
///
/// The body must treat chunks as independent: it may write only to
/// locations owned by indices in its chunk. An exception thrown by the
/// body is captured and rethrown on the calling thread after all chunks
/// finish; the pool remains usable afterwards.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Small bounded task pool for background work that may *block* (the
/// telemetry server's socket I/O, log shipping). Deliberately separate
/// from the global compute pool above: a handler stuck in a slow
/// `write(2)` must never stall a ParallelFor worker mid-kernel. The
/// queue is bounded so a flood of work degrades by rejection
/// (TrySubmit returns false) instead of by unbounded memory growth —
/// the HTTP layer turns a rejection into `503 Service Unavailable`.
class TaskPool {
 public:
  /// Starts `threads` workers (min 1) with room for `queue_capacity`
  /// pending tasks beyond the ones currently executing.
  TaskPool(int threads, size_t queue_capacity);

  /// Drains nothing: pending tasks not yet started are dropped, the
  /// workers finish their current task and exit.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task` unless the queue is full or the pool is shutting
  /// down; returns whether the task was accepted.
  bool TrySubmit(std::function<void()> task);

  /// Stops accepting work, waits for started *and queued* tasks to
  /// complete, joins the workers. Idempotent.
  void Shutdown();

  size_t queue_capacity() const { return capacity_; }

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

/// Suggested `grain` for a loop whose per-index cost is roughly
/// `cost_per_item` scalar operations: enough indices per chunk that a
/// chunk amortizes scheduling overhead (~`target_cost` ops). Small
/// problems therefore stay on the serial fast path automatically.
inline int64_t GrainForCost(int64_t cost_per_item,
                            int64_t target_cost = 32768) {
  if (cost_per_item < 1) cost_per_item = 1;
  const int64_t grain = target_cost / cost_per_item;
  return grain < 1 ? 1 : grain;
}

}  // namespace equitensor

#endif  // EQUITENSOR_UTIL_THREAD_POOL_H_
