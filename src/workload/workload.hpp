#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/types.hpp"
#include "sim/random.hpp"

namespace gemsd::workload {

/// One database (record) access of a transaction. Record accesses map to
/// pages through the partition blocking factors; several consecutive refs may
/// hit the same page (clustering).
struct PageRef {
  PageId page;
  bool write = false;
  /// Read access that will later be written by the same transaction: lock in
  /// Update mode to avoid read->write upgrade deadlocks.
  bool update_intent = false;
};

class Trace;

/// A transaction's page reference string, read by position. A generator that
/// builds its references owns them (push_back, reserve, = {...}); a trace
/// transaction views its references in the packed Trace store (Trace::txn),
/// decoded on each read, so handing it out neither allocates nor copies.
/// Reads yield PageRef values.
class RefList {
 public:
  RefList() = default;
  RefList(std::initializer_list<PageRef> refs) : owned_(refs) {}

  std::size_t size() const { return trace_ ? count_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  PageRef operator[](std::size_t k) const {
    return trace_ ? view_ref(k) : owned_[k];
  }
  /// Owned lists only.
  void reserve(std::size_t n) { owned_.reserve(n); }
  void push_back(const PageRef& r) { owned_.push_back(r); }

  class iterator {
   public:
    PageRef operator*() const { return (*list_)[k_]; }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class RefList;
    iterator(const RefList* list, std::size_t k) : list_(list), k_(k) {}
    const RefList* list_;
    std::size_t k_;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  friend class Trace;
  /// View of references [first, first + count) of `trace`.
  RefList(const Trace& trace, std::uint64_t first, std::uint32_t count)
      : trace_(&trace), first_(first), count_(count) {}
  /// Reference k of a view, decoded by Trace::ref.
  PageRef view_ref(std::size_t k) const;

  std::vector<PageRef> owned_;
  const Trace* trace_ = nullptr;  ///< the viewed trace; null when owned
  std::uint64_t first_ = 0;
  std::uint32_t count_ = 0;
};

/// A transaction as generated by the SOURCE: its type, its record/page
/// reference string, and an affinity key used by affinity-based routers
/// (the branch for debit-credit, the transaction type for traces).
struct TxnSpec {
  int type = 0;
  std::int64_t affinity_key = 0;
  RefList refs;
};

/// Workload generator interface (the SOURCE draws transactions from it).
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;
  virtual TxnSpec next(sim::Rng& rng) = 0;
  virtual int num_types() const = 0;
};

/// Transaction routing (workload allocation) policy.
class Router {
 public:
  virtual ~Router() = default;
  virtual NodeId route(const TxnSpec& txn, sim::Rng& rng) = 0;
};

/// Global lock authority assignment for primary copy locking: which node is
/// responsible for synchronizing a given page.
class GlaMap {
 public:
  virtual ~GlaMap() = default;
  virtual NodeId gla(PageId page) const = 0;
};

/// Random routing: pure load balancing ("every node is assigned about the
/// same number of transactions") — round robin.
class RandomRouter : public Router {
 public:
  explicit RandomRouter(int nodes) : nodes_(nodes) {}
  NodeId route(const TxnSpec&, sim::Rng&) override {
    return next_++ % nodes_;
  }

 private:
  int nodes_;
  NodeId next_ = 0;
};

/// Affinity routing keyed by a contiguous-block partitioning of the affinity
/// key space: node = key / block. Used for debit-credit (branch blocks).
class BlockAffinityRouter : public Router {
 public:
  BlockAffinityRouter(std::int64_t keys_per_node)
      : keys_per_node_(keys_per_node) {}
  NodeId route(const TxnSpec& t, sim::Rng&) override {
    return static_cast<NodeId>(t.affinity_key / keys_per_node_);
  }

 private:
  std::int64_t keys_per_node_;
};

/// Routing table for trace workloads: per transaction type, a distribution
/// over nodes (fractional assignments from the allocation heuristic).
class TableRouter : public Router {
 public:
  /// share[type][node] — rows must sum to 1.
  explicit TableRouter(std::vector<std::vector<double>> share)
      : share_(std::move(share)) {}
  NodeId route(const TxnSpec& t, sim::Rng& rng) override;

 private:
  std::vector<std::vector<double>> share_;
};

}  // namespace gemsd::workload
