#pragma once

#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "sim/frame_pool.hpp"

namespace gemsd::sim {

class Scheduler;

namespace detail {

/// Shared part of every task promise: the continuation to resume when the
/// coroutine finishes, or (for root processes) the scheduler that reaps the
/// finished frame.
class PromiseBase {
 public:
  std::coroutine_handle<> continuation;
  Scheduler* reaper = nullptr;  // set only on root (spawned) tasks

  /// Frames come from the thread's size-class free lists, not the heap.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept;
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  /// Simulation model code must not leak exceptions across scheduling
  /// boundaries; an escaping exception is a programming error.
  [[noreturn]] void unhandled_exception() noexcept {
    std::fputs("gemsd: unhandled exception escaped a simulation task\n",
               stderr);
    std::abort();
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. `co_await` on a Task starts it and
/// suspends the awaiter until the task completes; the result is moved out.
/// The Task object owns the coroutine frame (destroyed with the Task), so a
/// frame that awaits child tasks transitively owns them — destroying a
/// suspended root frame cascades cleanly at simulation teardown.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Transfer ownership of the frame (used by Scheduler::spawn).
  handle_type release() { return std::exchange(h_, {}); }

  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the child coroutine
      }
      T await_resume() { return std::move(*h.promise().value); }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  handle_type release() { return std::exchange(h_, {}); }
  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() noexcept {}
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

}  // namespace gemsd::sim
