#pragma once

#include <cstddef>
#include <cstdint>

namespace gemsd::sim::detail {

/// Storage for coroutine frames: free lists of 32-byte size classes (frames
/// up to 2 KiB) instead of the global heap. Every `Task` promise allocates
/// through here, so a model in steady state recycles the frames of finished
/// coroutines instead of calling malloc/free several hundred times per
/// transaction.
///
/// The lists are thread-local. A run and all its frames live on one thread
/// (DESIGN.md §5a, invariant 1), so a frame is created and destroyed on the
/// same thread and no list is ever touched by two threads. Blocks are plain
/// `::operator new` allocations, one per block, so a block released on
/// another thread is still valid memory; it just joins that thread's list.
/// The lists free their blocks when the thread exits. Frames larger than the
/// largest class go straight to the global heap.
///
/// Under AddressSanitizer a parked block is poisoned until it is handed out
/// again, so a use-after-free of a destroyed frame still reports.
///
/// The pool also counts the frames it hands out on the calling thread: for
/// a given binary the count is exact, so tests can gate coroutine frames per
/// commit the way they gate heap allocations.
class FramePool {
 public:
  static void* allocate(std::size_t n);
  static void deallocate(void* p, std::size_t n) noexcept;
  /// Frames handed out on this thread so far (pooled or not).
  static std::uint64_t frames_allocated();
};

}  // namespace gemsd::sim::detail
