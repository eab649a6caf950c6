#include "sim/frame_pool.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define GEMSD_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define GEMSD_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define GEMSD_POISON(p, n) ((void)(p), (void)(n))
#define GEMSD_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace gemsd::sim::detail {

namespace {

constexpr std::size_t kGranule = 32;  ///< size-class width (bytes)
constexpr std::size_t kClasses = 64;  ///< pooled frames up to 2 KiB

constexpr std::size_t block_bytes(std::size_t c) {
  return (c + 1) * kGranule;
}

struct FreeBlock {
  FreeBlock* next;
};

/// Set once this thread's lists are destroyed: frames that outlive them
/// (objects with static storage duration torn down after thread-local
/// ones) go back to the global heap.
constinit thread_local bool t_lists_gone = false;

struct FreeLists {
  FreeBlock* head[kClasses] = {};

  ~FreeLists() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = head[c]) {
        GEMSD_UNPOISON(b, block_bytes(c));
        head[c] = b->next;
        ::operator delete(b);
      }
    }
    t_lists_gone = true;
  }
};

thread_local FreeLists t_lists;

constinit thread_local std::uint64_t t_frames = 0;

}  // namespace

void* FramePool::allocate(std::size_t n) {
  ++t_frames;
  const std::size_t c = (n - 1) / kGranule;  // frames are never empty
  if (c >= kClasses || t_lists_gone) return ::operator new(n);
  FreeBlock*& head = t_lists.head[c];
  if (FreeBlock* b = head) {
    GEMSD_UNPOISON(b, block_bytes(c));
    head = b->next;
    return b;
  }
  return ::operator new(block_bytes(c));
}

void FramePool::deallocate(void* p, std::size_t n) noexcept {
  const std::size_t c = (n - 1) / kGranule;
  if (c >= kClasses || t_lists_gone) {
    ::operator delete(p);
    return;
  }
  auto* b = static_cast<FreeBlock*>(p);
  b->next = t_lists.head[c];
  t_lists.head[c] = b;
  GEMSD_POISON(b, block_bytes(c));
}

std::uint64_t FramePool::frames_allocated() { return t_frames; }

}  // namespace gemsd::sim::detail
