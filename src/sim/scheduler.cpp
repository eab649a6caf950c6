#include "sim/scheduler.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace gemsd::sim {

Scheduler::~Scheduler() {
  drain_dead();
  // Destroy still-suspended root processes; nested frames are owned by their
  // parents' Task locals and cascade automatically.
  roots_.for_each([](void* p, FlatUnit&) {
    std::coroutine_handle<>::from_address(p).destroy();
  });
}

// The heap is 4-ary: half the tree height of a binary heap, and the four
// children of a node sit in one 96-byte span of the flat Ev array, so the
// extra comparisons per level are nearly free while the sift paths — the
// part deep queues pay for — shrink by 2x. Because (t, key) is a strict
// total order (key embeds the unique schedule sequence number), pop order is
// independent of heap arity.
void Scheduler::push(Ev ev) {
  if (heap_.size() == size_ + kPad) heap_.push_back(kSentinel);
  // Sift up: hole-based (move the parent down instead of swapping).
  const Rank r = rank(ev);
  std::size_t i = size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (r >= rank(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

Scheduler::Ev Scheduler::pop_top() {
  const Ev top = heap_[0];
  const Ev last = heap_[--size_];
  heap_[size_] = kSentinel;
  if (size_ == 0) return top;
  const Rank r = rank(last);
  // Sift down. The smallest of the four children (sentinels past the end
  // never win) is picked with conditional moves: which child is smallest is
  // data-dependent and a branch on it mispredicts about half the time.
  std::size_t i = 0;
  for (std::size_t first = 1; first < size_; first = 4 * i + 1) {
    const Ev* c = &heap_[first];
    const Rank r0 = rank(c[0]), r1 = rank(c[1]);
    const Rank r2 = rank(c[2]), r3 = rank(c[3]);
    const bool b01 = r1 < r0, b23 = r3 < r2;
    const Rank m01 = b01 ? r1 : r0, m23 = b23 ? r3 : r2;
    const bool b = m23 < m01;
    const Rank m = b ? m23 : m01;
    const std::size_t k01 = b01, k23 = 2 + std::size_t{b23};
    const std::size_t k = k01 ^ ((k01 ^ k23) & -std::size_t{b});
    if (m >= r) break;
    heap_[i] = c[k];
    i = first + k;
  }
  heap_[i] = last;
  return top;
}

void Scheduler::schedule_call(SimTime t, std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  }
  enqueue(t, (seq_++ << 1) | 1u, slot);
}

void Scheduler::bad_time(SimTime t) const {
  std::fprintf(stderr,
               "gemsd: event scheduled at t=%.17g with the clock at %.17g\n",
               t, now_);
  std::abort();
}

void Scheduler::dispatch(const Ev& ev) {
  if (ev.key & 1u) {
    // Move the callable out and recycle its slot before invoking: the
    // callback may itself schedule_call(), which must be free to reuse it.
    auto fn = std::move(slab_[ev.payload]);
    slab_[ev.payload] = nullptr;
    free_slots_.push_back(static_cast<std::uint32_t>(ev.payload));
    fn();
  } else {
    resuming_ = true;
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
    resuming_ = false;
  }
}

void Scheduler::spawn(Task<void> t) {
  auto h = t.release();
  h.promise().reaper = this;
  roots_.try_emplace(h.address());
  schedule(now_, h);
}

void Scheduler::reap(std::coroutine_handle<> h) {
  roots_.erase(h.address());
  dead_.push_back(h);
}

void Scheduler::drain_dead_slow() {
  for (auto h : dead_) h.destroy();
  dead_.clear();
}

// Pop rule: the heap top if it is due now, else the lane front, else the
// heap top if it is due by `end`. Lane events all carry t == now and were
// scheduled at now, after every heap event due now was scheduled, so this
// merge is exactly (t, seq) order. The clock only moves when the lane is
// empty, which keeps every lane event at t == now. A fast-forward
// (try_advance) is the event this loop would pop next, taken inside the
// resume instead; it counts as processed there.
std::uint64_t Scheduler::drain(SimTime end) {
  const std::uint64_t before = processed_;
  end_ = end;
  for (;;) {
    Ev ev{};
    if (size_ != 0 && time_of(heap_[0]) == now_) {
      ev = pop_top();
    } else if (!lane_.empty()) {
      ev = lane_.front();
      lane_.pop_front();
    } else if (size_ != 0 && time_of(heap_[0]) <= end) {
      ev = pop_top();
      now_ = time_of(ev);
    } else {
      break;
    }
    dispatch(ev);
    drain_dead();
    // Kept live per event (not folded in at loop exit) so the progress
    // heartbeat sees a moving count mid-segment.
    count_event();
  }
  return processed_ - before;
}

std::uint64_t Scheduler::run_all() {
  return drain(std::numeric_limits<SimTime>::infinity());
}

}  // namespace gemsd::sim
