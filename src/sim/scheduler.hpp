#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/ring_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gemsd::sim {

/// Discrete-event scheduler. All model activity runs as coroutine processes
/// resumed from the central event queue; every cross-process wakeup goes
/// through schedule(), never by resuming a handle inline. That single rule
/// makes the simulation reentrancy-free and teardown safe.
///
/// The event lane is allocation-free in the common case: an event is a
/// trivially copyable 24-byte entry tagged as either a coroutine resume
/// (the payload is the handle address) or a callback (the payload indexes a
/// side slab of std::function slots, recycled through a free list). The heap
/// vector, the same-instant FIFO and the slab persist and are reused across
/// run_until() calls, so a steady-state simulation schedules millions of
/// events without touching the allocator.
///
/// Events for a later instant go into a 4-ary min-heap; events for the
/// current instant (`t == now()`: resource hand-offs, spawns, joins) go into
/// a FIFO ring instead, which costs no sift. Dispatch order is exactly
/// `(t, seq)` either way (DESIGN.md §5a).
///
/// A Scheduler is strictly single-threaded: no two threads may touch it at
/// the same time. Parallelism is across Scheduler instances, one per
/// simulation run (core/sweep.hpp); a run itself is one sequential event
/// stream (DESIGN.md §5c).
class Scheduler {
 public:
  Scheduler() {
    heap_.reserve(kInitialHeapCapacity + kPad);
    heap_.assign(kPad, kSentinel);
  }
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Resume `h` at absolute time `t` (>= now). Fast path: no allocation.
  void schedule(SimTime t, std::coroutine_handle<> h) {
    enqueue(t, seq_++ << 1, reinterpret_cast<std::uintptr_t>(h.address()));
  }
  /// Run `fn` at absolute time `t` (timers, arrival generators hooks). The
  /// callable lives in the side slab until it fires; its slot is recycled.
  void schedule_call(SimTime t, std::function<void()> fn);

  /// Start a root process. The scheduler owns the frame; it is destroyed
  /// when the process finishes or when the scheduler is destroyed.
  void spawn(Task<void> t);

  /// Process events with timestamp <= end (>= now); then advance now to
  /// end. Returns the number of events processed.
  std::uint64_t run_until(SimTime end) {
    assert(end >= now_);
    const std::uint64_t n = drain(end);
    now_ = end;
    return n;
  }
  /// Process all remaining events. Returns the number processed.
  std::uint64_t run_all();

  bool empty() const { return size_ == 0 && lane_.empty(); }
  std::size_t queued_events() const { return size_ + lane_.size(); }
  /// Event-queue high-water mark (lifetime; not reset between runs).
  std::size_t max_queued() const { return max_queued_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t live_processes() const { return roots_.size(); }

  /// Awaitable: suspend the calling process for `d` simulated time.
  auto delay(SimTime d) {
    struct Awaiter {
      Scheduler& s;
      SimTime d;
      bool await_ready() const noexcept { return d <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        s.schedule(s.now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: suspend the calling process and hand its handle to `fn`,
  /// which must arrange resumption later via schedule(). Used by lock
  /// managers and futures to park processes on their own wait queues.
  template <typename Fn>
  auto suspend(Fn fn) {
    struct Awaiter {
      Fn fn;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { fn(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{std::move(fn)};
  }

  /// Internal: called from a finished root task's final suspend.
  void reap(std::coroutine_handle<> h);

  /// Invoke `cb` after every `every` processed events (0 disables). The hook
  /// is observation-only plumbing for the --progress heartbeat: it costs one
  /// predictable branch on the event loop when disabled and must not mutate
  /// simulation state (it runs between events, so any mutation would change
  /// results). `cb` must outlive the scheduler or be cleared first.
  void set_progress_hook(std::function<void()> cb, std::uint64_t every) {
    progress_cb_ = std::move(cb);
    progress_every_ = progress_cb_ ? every : 0;
    progress_left_ = progress_every_;
  }

 private:
  /// Event entry. `t` is the IEEE-754 bit pattern of the event time: for
  /// every time >= +0.0 it orders as an unsigned integer exactly as the
  /// double does, and the heap only ever holds times > now() >= +0.0 (the
  /// same-instant lane takes `t == now`, -0.0 included). `key` is
  /// (seq << 1) | is_callback: the sequence number gives FIFO order among
  /// same-timestamp events, and the low tag bit selects the payload
  /// interpretation without widening the entry. Heap order is therefore one
  /// unsigned 128-bit comparison of (t, key).
  struct Ev {
    std::uint64_t t;
    std::uint64_t key;
    std::uintptr_t payload;  ///< handle address, or callback slab index
  };
  using Rank = unsigned __int128;
  static Rank rank(const Ev& e) { return Rank{e.t} << 64 | e.key; }
  static SimTime time_of(const Ev& e) { return std::bit_cast<SimTime>(e.t); }

  static constexpr std::size_t kInitialHeapCapacity = 1024;
  /// Sentinel slots kept past the last heap entry, so every sift-down step
  /// reads four children without a bounds branch; a sentinel outranks
  /// every real entry.
  static constexpr std::size_t kPad = 3;
  static constexpr Ev kSentinel{~std::uint64_t{0}, ~std::uint64_t{0}, 0};

  void enqueue(SimTime t, std::uint64_t key, std::uintptr_t payload) {
    assert(t >= now_);
    const Ev ev{std::bit_cast<std::uint64_t>(t), key, payload};
    if (t == now_) {
      lane_.push_back(ev);
    } else {
      push(ev);
    }
    const std::size_t q = size_ + lane_.size();
    if (q > max_queued_) max_queued_ = q;
  }
  void push(Ev ev);
  Ev pop_top();
  std::uint64_t drain(SimTime end);
  void dispatch(const Ev& ev);
  void drain_dead() {
    if (!dead_.empty()) drain_dead_slow();
  }
  void drain_dead_slow();

  /// 4-ary min-heap over [0, size_) ordered by (t, key), then kPad
  /// sentinels.
  std::vector<Ev> heap_;
  std::size_t size_ = 0;
  /// Events at t == now in schedule order. Every heap event at t == now was
  /// scheduled before the clock reached t, so it precedes the whole lane.
  RingQueue<Ev> lane_;
  std::vector<std::function<void()>> slab_;  ///< callback side slab
  std::vector<std::uint32_t> free_slots_;    ///< recycled slab indices
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t max_queued_ = 0;
  std::uint64_t processed_ = 0;
  FlatSet<void*> roots_;  ///< frames of live root processes
  std::vector<std::coroutine_handle<>> dead_;
  std::function<void()> progress_cb_;
  std::uint64_t progress_every_ = 0;  ///< 0 = hook disabled
  std::uint64_t progress_left_ = 0;
};

namespace detail {

template <typename Promise>
std::coroutine_handle<> PromiseBase::FinalAwaiter::await_suspend(
    std::coroutine_handle<Promise> h) noexcept {
  auto& pb = h.promise();
  if (pb.continuation) return pb.continuation;
  if (pb.reaper != nullptr) pb.reaper->reap(h);
  return std::noop_coroutine();
}

}  // namespace detail

}  // namespace gemsd::sim
