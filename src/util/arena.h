#ifndef EQUITENSOR_UTIL_ARENA_H_
#define EQUITENSOR_UTIL_ARENA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace equitensor {

/// Reusable scratch-buffer arena for the kernel hot paths (DESIGN.md
/// §13). im2col lowering and GEMM packing need large per-call scratch
/// whose size depends only on the op's shapes; shapes repeat every
/// training step, so the arena plans each size once and then recycles:
/// steady-state conv/GEMM execution performs zero heap allocations.
///
/// Model: buffers are keyed by their element count rounded up to a
/// size class (powers of two above a small floor). `Acquire` pops a
/// recycled buffer of the right class or mallocs a fresh one;
/// releasing (via ArenaBuffer's destructor) pushes it back on the
/// class free list. Contents are NOT cleared on either side — callers
/// that need zeroed scratch must clear the span they use.
///
/// Thread safety: all operations take the arena mutex. Kernels
/// acquire scratch once per op invocation, never inside ParallelFor
/// bodies: per-worker scratch is one WorkerScratch lease taken before
/// the region starts, so the lock is far off the inner-loop path and
/// the acquire count does not depend on how the pool overlaps bodies.
///
/// Alignment: every buffer starts on a 64-byte (cache line) boundary,
/// so vector kernels may use aligned and non-temporal stores on any
/// offset that is a multiple of 16 floats.
///
/// Observability: fresh mallocs and recycled hits are counted; the
/// allocation-count probe (tests/arena_test.cc, ctest label `unit`)
/// asserts the steady-state training loop stops allocating after
/// warm-up, and the counters are exported through util/metrics as
/// `arena.allocations` / `arena.reuses` / `arena.bytes_reserved`.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Process-wide arena used by the kernel backends.
  static Arena& Global();

  struct Stats {
    uint64_t allocations = 0;    // fresh heap allocations
    uint64_t reuses = 0;         // acquires served from a free list
    uint64_t bytes_reserved = 0; // total bytes ever allocated and kept
    uint64_t outstanding = 0;    // buffers currently acquired
  };

  Stats stats() const;

  /// Heat stats for one size class (DESIGN.md §17): how hot each
  /// scratch shape runs, how well recycling works for it, and the
  /// most buffers of that class ever leased at once (the class's
  /// steady-state memory footprint).
  struct ClassStats {
    int64_t size_class = 0;       // element count of this class
    uint64_t refills = 0;         // fresh mallocs (free list was empty)
    uint64_t reuses = 0;          // acquires served from the free list
    uint64_t outstanding = 0;     // currently leased
    uint64_t high_watermark = 0;  // max simultaneously leased
    uint64_t bytes_reserved = 0;  // refills * class bytes

    /// Fraction of acquires served without a malloc (0 when unused).
    double ReuseRate() const {
      const uint64_t acquires = refills + reuses;
      return acquires == 0
                 ? 0.0
                 : static_cast<double>(reuses) / static_cast<double>(acquires);
    }
  };

  /// Per-class snapshot, sorted by size_class ascending.
  std::vector<ClassStats> class_stats() const;

  /// Drops every cached buffer (outstanding ones are unaffected and
  /// still return to the — now empty — free lists) and zeroes the
  /// counters. Test hook; never called on the training path.
  void ResetForTesting();

  /// Deleter for the aligned allocations backing arena buffers.
  struct AlignedFree {
    void operator()(float* p) const;
  };
  using Buf = std::unique_ptr<float[], AlignedFree>;

 private:
  friend class ArenaBuffer;

  Buf AcquireRaw(int64_t count, int64_t* size_class);
  void Release(Buf buf, int64_t size_class);

  mutable std::mutex mu_;
  // size class (element count) -> idle buffers of exactly that class.
  // The leased buffer itself travels inside ArenaBuffer, so acquire
  // and release are free-list pops/pushes with no bookkeeping allocs.
  std::unordered_map<int64_t, std::vector<Buf>> free_;
  Stats stats_;
  // Per-class accounting, updated under mu_ on the same acquire/release
  // edges as stats_ (one map probe per op — off the inner-loop path,
  // see the thread-safety note above).
  std::unordered_map<int64_t, ClassStats> class_stats_;
};

/// RAII lease of arena scratch: acquires `count` floats on
/// construction, returns them to the free list on destruction.
/// Movable, not copyable. The span is uninitialized.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  ArenaBuffer(Arena& arena, int64_t count);
  ~ArenaBuffer();
  ArenaBuffer(ArenaBuffer&& other) noexcept;
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept;
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  float* data() { return buf_.get(); }
  const float* data() const { return buf_.get(); }
  int64_t count() const { return count_; }

  /// Sets the leased span (not the whole size class) to zero.
  void Zero();

 private:
  Arena* arena_ = nullptr;
  Arena::Buf buf_;
  int64_t count_ = 0;
  int64_t size_class_ = 0;
};

/// Per-worker scratch for one parallel region: a single arena lease of
/// `slots` spans of `per_worker` floats, taken before the region
/// starts; each running ParallelFor body claims a free span for its
/// duration. A lease per body instead would make the allocation count
/// depend on the schedule — the first step in which two bodies happen
/// to overlap would malloc a second buffer, long after warm-up.
/// `slots` must cover the bodies that can run at once: ParallelWidth()
/// (util/thread_pool.h), capped by the number of work items. Every
/// span starts on a 64-byte boundary.
class WorkerScratch {
 public:
  WorkerScratch(Arena& arena, int64_t slots, int64_t per_worker);
  WorkerScratch(const WorkerScratch&) = delete;
  WorkerScratch& operator=(const WorkerScratch&) = delete;

  /// RAII claim of one span; hands it back on destruction.
  class Slot {
   public:
    ~Slot();
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    float* data() const { return data_; }

   private:
    friend class WorkerScratch;
    Slot(WorkerScratch* owner, int64_t index, float* data)
        : owner_(owner), index_(index), data_(data) {}
    WorkerScratch* owner_;
    int64_t index_;
    float* data_;
  };

  /// Claims a free span; aborts if every slot is taken (more
  /// concurrent bodies than `slots`).
  Slot Claim();

 private:
  ArenaBuffer buf_;
  int64_t stride_;
  std::mutex mu_;
  std::vector<bool> busy_;
};

}  // namespace equitensor

#endif  // EQUITENSOR_UTIL_ARENA_H_
