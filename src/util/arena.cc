#include "util/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/check.h"
#include "util/metrics.h"

namespace equitensor {
namespace {

// Smallest size class: below this every request shares one class so a
// spray of tiny scratch requests cannot fragment the free lists.
constexpr int64_t kMinClass = 256;

int64_t SizeClassFor(int64_t count) {
  int64_t c = kMinClass;
  while (c < count) c <<= 1;
  return c;
}

}  // namespace

Arena& Arena::Global() {
  static Arena* arena = new Arena();  // never destroyed
  return *arena;
}

void Arena::AlignedFree::operator()(float* p) const { std::free(p); }

Arena::Buf Arena::AcquireRaw(int64_t count, int64_t* size_class) {
  ET_CHECK_GT(count, 0) << "arena acquire of empty buffer";
  const int64_t cls = SizeClassFor(count);
  *size_class = cls;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.outstanding;
  ClassStats& heat = class_stats_[cls];
  heat.size_class = cls;
  ++heat.outstanding;
  heat.high_watermark = std::max(heat.high_watermark, heat.outstanding);
  auto it = free_.find(cls);
  if (it != free_.end() && !it->second.empty()) {
    Buf buf = std::move(it->second.back());
    it->second.pop_back();
    ++stats_.reuses;
    ++heat.reuses;
    ET_METRIC_COUNTER_ADD("arena.reuses", 1);
    return buf;
  }
  ++stats_.allocations;
  stats_.bytes_reserved += static_cast<uint64_t>(cls) * sizeof(float);
  ++heat.refills;
  heat.bytes_reserved += static_cast<uint64_t>(cls) * sizeof(float);
  ET_METRIC_COUNTER_ADD("arena.allocations", 1);
  ET_METRIC_GAUGE_SET("arena.bytes_reserved",
                      static_cast<double>(stats_.bytes_reserved));
  // Size classes are powers of two >= 256 floats, so the byte count is
  // a multiple of the 64-byte alignment as aligned_alloc requires.
  float* raw = static_cast<float*>(
      std::aligned_alloc(64, static_cast<size_t>(cls) * sizeof(float)));
  ET_CHECK(raw != nullptr) << "arena allocation failed";
  return Buf(raw);
}

void Arena::Release(Buf buf, int64_t size_class) {
  std::lock_guard<std::mutex> lock(mu_);
  // The free-list vector keeps its capacity across pop/push, so a
  // steady-state release is pointer moves only — no heap traffic.
  free_[size_class].push_back(std::move(buf));
  ET_CHECK_GT(stats_.outstanding, 0u);
  --stats_.outstanding;
  ClassStats& heat = class_stats_[size_class];
  if (heat.outstanding > 0) --heat.outstanding;
}

Arena::Stats Arena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<Arena::ClassStats> Arena::class_stats() const {
  std::vector<ClassStats> classes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    classes.reserve(class_stats_.size());
    for (const auto& [cls, heat] : class_stats_) {
      (void)cls;
      classes.push_back(heat);
    }
  }
  std::sort(classes.begin(), classes.end(),
            [](const ClassStats& a, const ClassStats& b) {
              return a.size_class < b.size_class;
            });
  return classes;
}

void Arena::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  free_.clear();
  const uint64_t outstanding = stats_.outstanding;
  stats_ = Stats{};
  stats_.outstanding = outstanding;
  class_stats_.clear();
}

ArenaBuffer::ArenaBuffer(Arena& arena, int64_t count)
    : arena_(&arena), count_(count) {
  buf_ = arena.AcquireRaw(count, &size_class_);
}

ArenaBuffer::~ArenaBuffer() {
  if (arena_ != nullptr && buf_ != nullptr) {
    arena_->Release(std::move(buf_), size_class_);
  }
}

ArenaBuffer::ArenaBuffer(ArenaBuffer&& other) noexcept
    : arena_(other.arena_),
      buf_(std::move(other.buf_)),
      count_(other.count_),
      size_class_(other.size_class_) {
  other.arena_ = nullptr;
  other.count_ = 0;
  other.size_class_ = 0;
}

ArenaBuffer& ArenaBuffer::operator=(ArenaBuffer&& other) noexcept {
  if (this != &other) {
    if (arena_ != nullptr && buf_ != nullptr) {
      arena_->Release(std::move(buf_), size_class_);
    }
    arena_ = other.arena_;
    buf_ = std::move(other.buf_);
    count_ = other.count_;
    size_class_ = other.size_class_;
    other.arena_ = nullptr;
    other.count_ = 0;
    other.size_class_ = 0;
  }
  return *this;
}

void ArenaBuffer::Zero() {
  if (buf_ != nullptr) {
    std::memset(buf_.get(), 0, static_cast<size_t>(count_) * sizeof(float));
  }
}

namespace {

// Span stride: whole 64-byte lines, so every slot stays aligned.
int64_t SlotStride(int64_t per_worker) {
  constexpr int64_t kLineFloats = 64 / sizeof(float);
  return (per_worker + kLineFloats - 1) / kLineFloats * kLineFloats;
}

}  // namespace

WorkerScratch::WorkerScratch(Arena& arena, int64_t slots, int64_t per_worker)
    : buf_(arena, std::max<int64_t>(1, slots) * SlotStride(per_worker)),
      stride_(SlotStride(per_worker)),
      busy_(static_cast<size_t>(std::max<int64_t>(1, slots)), false) {
  ET_CHECK_GT(per_worker, 0) << "worker scratch of empty spans";
}

WorkerScratch::Slot WorkerScratch::Claim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < busy_.size(); ++i) {
    if (!busy_[i]) {
      busy_[i] = true;
      const int64_t index = static_cast<int64_t>(i);
      return Slot(this, index, buf_.data() + index * stride_);
    }
  }
  ET_CHECK(false) << "more concurrent bodies than worker scratch slots ("
                  << busy_.size() << ")";
  return Slot(this, -1, nullptr);
}

WorkerScratch::Slot::~Slot() {
  if (index_ < 0) return;
  std::lock_guard<std::mutex> lock(owner_->mu_);
  owner_->busy_[static_cast<size_t>(index_)] = false;
}

}  // namespace equitensor
