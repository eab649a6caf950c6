#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
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
/// a FIFO ring instead, which costs no sift. A delay that would be the next
/// event anyway skips both (try_advance). Dispatch order is exactly
/// `(t, seq)` every way (DESIGN.md §5a).
///
/// Every event time is checked in every build: a NaN, infinite or past time
/// prints the time and the clock to stderr and aborts the process.
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

  /// Resume `h` at absolute time `t` (finite, >= now). Fast path: no
  /// allocation.
  void schedule(SimTime t, std::coroutine_handle<> h) {
    enqueue(t, seq_++ << 1, reinterpret_cast<std::uintptr_t>(h.address()));
  }
  /// Run `fn` at absolute time `t` (finite, >= now; timers, arrival
  /// generators hooks). The callable lives in the side slab until it fires;
  /// its slot is recycled.
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
  /// Cost counters since construction: events pushed on the heap, put in
  /// the same-instant lane, and fast-forwarded (try_advance). Each
  /// scheduled event takes exactly one of the three ways.
  std::uint64_t heap_pushes() const { return heap_pushes_; }
  std::uint64_t lane_events() const { return lane_events_; }
  std::uint64_t fast_forwards() const { return fast_forwards_; }

  /// Fast-forward: the calling coroutine's next event at `t` (>= now) would
  /// be the very next event dispatched, so take it at once. Called from an
  /// await_ready that would otherwise schedule the caller at `t` and
  /// suspend. It fires only inside a coroutine resume (suspending would hand
  /// control straight back to the event loop), with the same-instant lane
  /// empty, `t` strictly before the heap top and `t` at or before the end
  /// of the current run_until; then nothing else can be due before `t`. It
  /// takes a sequence number, counts the event as queued and processed
  /// (queue high-water mark, --progress countdown) and moves the clock to
  /// `t`, so order and every count are those of the schedule it replaces.
  bool try_advance(SimTime t) {
    check_time(t);
    // Bit patterns order as the times do (t >= now >= +0.0), and an empty
    // heap's top is the sentinel, which every time precedes.
    if (!resuming_ || !lane_.empty() ||
        std::bit_cast<std::uint64_t>(t) >= heap_[0].t || t > end_) {
      return false;
    }
    ++seq_;
    ++fast_forwards_;
    note_queued(size_ + 1);
    count_event();
    now_ = t;
    return true;
  }

  /// Awaitable: suspend the calling process for `d` simulated time.
  auto delay(SimTime d) {
    struct Awaiter {
      Scheduler& s;
      SimTime d;
      bool await_ready() const {
        return d <= 0.0 || s.try_advance(s.now_ + d);
      }
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

  /// One branch in every build: `t` must be finite and not before now.
  void check_time(SimTime t) const {
    const bool ok =
        (t >= now_) & (t <= std::numeric_limits<SimTime>::max());
    if (!ok) [[unlikely]] bad_time(t);
  }
  [[noreturn]] void bad_time(SimTime t) const;
  void enqueue(SimTime t, std::uint64_t key, std::uintptr_t payload) {
    check_time(t);
    const Ev ev{std::bit_cast<std::uint64_t>(t), key, payload};
    if (t == now_) {
      lane_.push_back(ev);
      ++lane_events_;
    } else {
      push(ev);
      ++heap_pushes_;
    }
    note_queued(size_ + lane_.size());
  }
  void note_queued(std::size_t q) {
    if (q > max_queued_) max_queued_ = q;
  }
  /// Counts one processed event and runs the --progress countdown.
  void count_event() {
    ++processed_;
    if (progress_every_ != 0 && --progress_left_ == 0) {
      progress_left_ = progress_every_;
      progress_cb_();
    }
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
  SimTime end_ = 0.0;       ///< end of the current (or last) drain
  bool resuming_ = false;   ///< dispatching a coroutine resume
  std::uint64_t seq_ = 0;
  std::size_t max_queued_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t heap_pushes_ = 0;
  std::uint64_t lane_events_ = 0;
  std::uint64_t fast_forwards_ = 0;
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
