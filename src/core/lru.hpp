#pragma once

#include <cassert>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/flat_map.hpp"

namespace gemsd {

/// LRU-ordered page map used by main-memory buffers and disk caches.
/// O(1) lookup/touch/insert/erase. Most-recently-used at the front.
///
/// Entries live in a slot vector and are chained MRU -> LRU by 32-bit
/// indices; a flat open-addressing index maps a page to its slot. Erased
/// slots are recycled through a free list, so a map that has reached its
/// working size neither allocates nor frees.
template <typename V>
class LruMap {
 public:
  using Entry = std::pair<PageId, V>;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    Entry entry;
    std::uint32_t prev;  ///< towards MRU
    std::uint32_t next;  ///< towards LRU; free-list link when erased
  };

 public:
  explicit LruMap(std::size_t capacity) : cap_(capacity) {}

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return cap_; }
  bool full() const { return size() >= cap_; }

  /// Find and promote to MRU. Returns nullptr if absent.
  V* touch(PageId p) {
    const std::uint32_t* i = index_.find(p);
    if (i == nullptr) return nullptr;
    const std::uint32_t n = *i;
    if (n != head_) {
      unlink(n);
      link_front(n);
    }
    return &nodes_[n].entry.second;
  }

  /// Find without promoting.
  V* peek(PageId p) {
    const std::uint32_t* i = index_.find(p);
    return i == nullptr ? nullptr : &nodes_[*i].entry.second;
  }
  const V* peek(PageId p) const {
    const std::uint32_t* i = index_.find(p);
    return i == nullptr ? nullptr : &nodes_[*i].entry.second;
  }

  bool contains(PageId p) const { return index_.contains(p); }

  /// Insert as MRU (must not already be present; capacity not enforced here —
  /// call evict_candidate()/erase() first when full).
  V* insert(PageId p, V v) {
    const auto [slot, inserted] = index_.try_emplace(p);
    assert(inserted && "LruMap::insert of a present page");
    (void)inserted;
    std::uint32_t n;
    if (free_ != kNil) {
      n = free_;
      free_ = nodes_[n].next;
      nodes_[n].entry = Entry{p, std::move(v)};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{Entry{p, std::move(v)}, kNil, kNil});
    }
    *slot = n;
    link_front(n);
    return &nodes_[n].entry.second;
  }

  /// The LRU entry (eviction candidate), or nullopt when empty.
  std::optional<Entry> lru() const {
    if (tail_ == kNil) return std::nullopt;
    return nodes_[tail_].entry;
  }

  /// LRU entry matching pred (scanning backwards from LRU end, at most
  /// `scan_limit` entries), for "evict the oldest clean page" policies.
  template <typename Pred>
  std::optional<PageId> find_lru_if(Pred pred, std::size_t scan_limit) const {
    std::size_t scanned = 0;
    for (std::uint32_t n = tail_; n != kNil && scanned < scan_limit;
         n = nodes_[n].prev, ++scanned) {
      if (pred(nodes_[n].entry.second)) return nodes_[n].entry.first;
    }
    return std::nullopt;
  }

  bool erase(PageId p) {
    const std::uint32_t* i = index_.find(p);
    if (i == nullptr) return false;
    const std::uint32_t n = *i;
    index_.erase(p);
    unlink(n);
    nodes_[n].entry = Entry{};
    nodes_[n].next = free_;
    free_ = n;
    return true;
  }

  void clear() {
    index_.clear();
    nodes_.clear();
    head_ = tail_ = free_ = kNil;
  }

  /// Iterates MRU -> LRU over `const Entry&`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    reference operator*() const { return (*nodes_)[n_].entry; }
    pointer operator->() const { return &(*nodes_)[n_].entry; }
    const_iterator& operator++() {
      n_ = (*nodes_)[n_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.n_ == b.n_;
    }

   private:
    friend class LruMap;
    const_iterator(const std::vector<Node>* nodes, std::uint32_t n)
        : nodes_(nodes), n_(n) {}
    const std::vector<Node>* nodes_ = nullptr;
    std::uint32_t n_ = kNil;
  };

  const_iterator begin() const { return const_iterator(&nodes_, head_); }
  const_iterator end() const { return const_iterator(&nodes_, kNil); }

 private:
  void unlink(std::uint32_t n) {
    Node& x = nodes_[n];
    if (x.prev != kNil) {
      nodes_[x.prev].next = x.next;
    } else {
      head_ = x.next;
    }
    if (x.next != kNil) {
      nodes_[x.next].prev = x.prev;
    } else {
      tail_ = x.prev;
    }
  }

  void link_front(std::uint32_t n) {
    Node& x = nodes_[n];
    x.prev = kNil;
    x.next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
  }

  std::size_t cap_;
  std::vector<Node> nodes_;
  sim::FlatMap<PageId, std::uint32_t> index_;
  std::uint32_t head_ = kNil;  ///< MRU
  std::uint32_t tail_ = kNil;  ///< LRU
  std::uint32_t free_ = kNil;  ///< recycled node slots
};

}  // namespace gemsd
