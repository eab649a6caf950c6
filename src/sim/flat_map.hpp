#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace gemsd::sim {

/// splitmix64 finalizer: every input bit moves every output bit, so the low
/// bits a power-of-two table keeps are well mixed even for strided keys
/// (transaction ids at node << 40, pointers aligned to 16 bytes).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FlatMap's default hash: integers and pointers go through mix64; other
/// keys use their std::hash, which must already mix (std::hash<PageId> is
/// the same splitmix64 finalizer).
template <typename K>
struct FlatHash {
  std::uint64_t operator()(const K& k) const {
    if constexpr (std::is_pointer_v<K>) {
      return mix64(reinterpret_cast<std::uintptr_t>(k));
    } else if constexpr (std::is_integral_v<K>) {
      return mix64(static_cast<std::uint64_t>(k));
    } else {
      return std::hash<K>{}(k);
    }
  }
};

/// Open-addressing hash map for the simulator's hot tables: one flat slot
/// array with power-of-two capacity, linear probing, and backward-shift
/// deletion (no tombstones, so probe runs stay as short as the load
/// allows). It allocates only when it grows: the slot array starts empty,
/// doubles when the load would pass one half, and never shrinks, so a
/// table that has reached its working size is allocation-free.
///
/// An insert may move every entry (growth) and an erase may move entries of
/// the same probe run (the backward shift): a pointer returned by find() or
/// try_emplace() is valid only until the next insert or erase. Iteration
/// (for_each) runs in slot order, a function of the keys' hashes; nothing
/// observable may depend on it.
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(const K& k) {
    const std::size_t i = index_of(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* find(const K& k) const {
    const std::size_t i = index_of(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  bool contains(const K& k) const { return index_of(k) != kNone; }

  /// The value of `k`, value-initialized and inserted when absent; the flag
  /// tells whether it was inserted.
  std::pair<V*, bool> try_emplace(const K& k) {
    if (const std::size_t i = index_of(k); i != kNone) {
      return {&slots_[i].value, false};
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(k);
    while (slots_[i].used) i = (i + 1) & mask_;
    Slot& s = slots_[i];
    s.used = true;
    s.key = k;
    ++size_;
    return {&s.value, true};
  }
  V& operator[](const K& k) { return *try_emplace(k).first; }

  bool erase(const K& k) {
    const std::size_t i = index_of(k);
    if (i == kNone) return false;
    erase_at(i);
    return true;
  }

  /// Drops every entry; keeps the slot array for reuse.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.used) s = Slot{};
    }
    size_ = 0;
  }

  /// fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  std::size_t home(const K& k) const {
    return static_cast<std::size_t>(Hash{}(k)) & mask_;
  }

  std::size_t index_of(const K& k) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (!s.used) return kNone;
      if (s.key == k) return i;
    }
  }

  /// Vacates slot i, then walks the rest of its probe run and pulls each
  /// entry back into the hole when the hole lies between the entry's home
  /// slot and its current slot, so every entry stays reachable.
  void erase_at(std::size_t i) {
    for (std::size_t j = (i + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
    slots_ = std::vector<Slot>(n);
    mask_ = n - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Value type of a FlatMap used as a set.
struct FlatUnit {};
template <typename K, typename Hash = FlatHash<K>>
using FlatSet = FlatMap<K, FlatUnit, Hash>;

}  // namespace gemsd::sim
