#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gemsd::sim {

/// FIFO over a power-of-two ring that only grows: once it has held its
/// longest queue, pushes and pops never touch the allocator (a std::deque
/// frees and reallocates a block each time the queue drains through one).
template <typename T>
class RingQueue {
 public:
  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  T& front() { return buf_[head_]; }
  /// The i-th element from the front.
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (n_ == buf_.size()) grow();
    buf_[(head_ + n_) & (buf_.size() - 1)] = std::move(v);
    ++n_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --n_;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < n_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t n_ = 0;
};

}  // namespace gemsd::sim
