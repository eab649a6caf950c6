#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/flat_map.hpp"
#include "sim/stats.hpp"

namespace gemsd::cc {

/// Logical lock table implementing strict two-phase page locking with
/// read/write modes, FIFO waiting, and read->write upgrades. Both protocols
/// share this table for *correctness*; they differ in the timing/messaging
/// they model around each logical operation (GLT entry accesses in GEM vs
/// request/grant messages to the GLA node).
///
/// Waiting requests carry an on_grant callback, invoked (synchronously,
/// during the releasing operation) when the request becomes granted; the
/// callback must hand control back through the event queue, and it must not
/// call back into the table (neither may the trace hooks): the table's
/// storage is flat, so a nested mutation would move the queue being worked
/// on. A transaction waits for at most one request at a time.
///
/// A page's queue holds its granted requests first, then its waiters in
/// FIFO order (an upgrade waits at the head of the waiters). The page keeps
/// the length of that granted prefix and its granted count per mode, so
/// compatibility, "a waiter is ahead" and promotion read counts; `holds`,
/// `release` and upgrade detection scan only the granted prefix. A request
/// is 16 bytes: the callback of a waiting request lives in the waiter map,
/// so granted requests, most of the table, carry none.
///
/// At steady state the table allocates nothing: pages and waiters live in
/// flat open-addressing maps, and a page's request queue is recycled, with
/// a buffer of up to two requests, when the page's last lock goes.
class LockTable {
 public:
  enum class Outcome { Granted, Waiting };
  using GrantFn = std::function<void()>;

  /// Observability hooks, fired synchronously at every wait-queue mutation.
  /// `granted(page, txn, node)` fires at the logical grant of a *waiting*
  /// request (before its on_grant callback); `queue_changed(page, exclude)`
  /// fires after any mutation that can change the blocker set of a waiting
  /// request — the trace layer re-emits a fresh blocker snapshot for every
  /// waiter still queued on the page (minus `exclude`, the request whose own
  /// enqueue the protocol instruments itself). Hooks must not mutate the
  /// table.
  struct TraceHooks {
    std::function<void(PageId, TxnId, NodeId)> granted;
    std::function<void(PageId, TxnId)> queue_changed;
  };
  void set_trace_hooks(TraceHooks hooks) { hooks_ = std::move(hooks); }

  struct Request {
    TxnId txn;
    NodeId node;
    LockMode mode;
    bool granted = false;
    bool upgrade = false;  ///< waiting to convert to a stronger mode
  };

  /// A page's granted prefix: its length and its requests per mode
  /// (indexed by LockMode). All zero for an unlocked page.
  struct GrantedCounts {
    std::uint32_t granted = 0;
    std::array<std::uint32_t, kLockModes> by_mode{};
  };

  /// Request a lock. Must not be called when the transaction already holds a
  /// lock of `mode` or stronger on the page (callers track held locks).
  /// Holding Read and requesting Write is an upgrade; `upgrade`, when given,
  /// is set to whether this request is one (the transaction already holds
  /// the page, so its held list has it).
  Outcome acquire(PageId page, TxnId txn, NodeId node, LockMode mode,
                  GrantFn on_grant, bool* upgrade = nullptr);

  /// Release this transaction's lock on `page`; grants newly compatible
  /// waiters (firing their callbacks).
  void release(PageId page, TxnId txn);

  /// Remove a *waiting* request (deadlock-victim cleanup). Grants whatever
  /// becomes compatible. Returns true if a waiter was removed.
  bool cancel_wait(PageId page, TxnId txn);

  bool holds(PageId page, TxnId txn, LockMode at_least) const;

  /// The page a transaction currently waits for, if any.
  std::optional<PageId> waiting_on(TxnId txn) const;

  /// Transactions that block a waiting request of `txn` on `page`:
  /// incompatible granted holders plus incompatible earlier waiters.
  std::vector<TxnId> blockers(PageId page, TxnId txn) const;
  /// fn(blocker) for each of blockers(page, txn), in the same order,
  /// without building the vector.
  template <typename Fn>
  void for_each_blocker(PageId page, TxnId txn, Fn&& fn) const;

  /// All waiting (non-granted) requests on `page`, in queue order, as
  /// (txn, node) pairs.
  std::vector<std::pair<TxnId, NodeId>> waiters(PageId page) const;

  /// The granted prefix of `page`'s queue.
  GrantedCounts granted_counts(PageId page) const;

  std::size_t locked_pages() const { return pages_.size(); }
  /// Queue entries read by every scan since construction (a cost counter,
  /// not reset by reset_stats).
  std::uint64_t entries_examined() const { return examined_; }
  std::uint64_t requests() const { return requests_.value(); }
  std::uint64_t conflicts() const { return conflicts_.value(); }
  void reset_stats() {
    requests_.reset();
    conflicts_.reset();
  }

 private:
  struct PageState {
    std::vector<Request> q;  ///< [0, counts.granted) granted, then waiters
    GrantedCounts counts;
  };
  /// A waiting request's page and grant callback.
  struct Waiter {
    PageId page;
    GrantFn on_grant;
  };

  /// Index of `txn`'s granted request in the page's queue, or the length of
  /// the granted prefix when it holds none.
  std::size_t find_granted(const PageState& st, TxnId txn) const;
  /// Grant whatever is now grantable at the head of the wait queue.
  void promote(PageId page, PageState& st);
  /// After a removal from page's queue (slot `s`): recycle an emptied queue,
  /// else report the mutation to the trace hook.
  void settle(PageId page, std::uint32_t s, TxnId txn);

  sim::FlatMap<PageId, std::uint32_t> pages_;  ///< page -> slot in states_
  std::vector<PageState> states_;  ///< queues; emptied ones keep capacity
  std::vector<std::uint32_t> free_states_;  ///< recycled slots of states_
  sim::FlatMap<TxnId, Waiter> waiting_;
  mutable std::uint64_t examined_ = 0;
  sim::Counter requests_, conflicts_;
  TraceHooks hooks_;
};

template <typename Fn>
void LockTable::for_each_blocker(PageId page, TxnId txn, Fn&& fn) const {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return;
  const PageState& st = states_[*slot];
  const auto& q = st.q;
  // Find our waiting request; everything ahead of it that blocks it counts.
  std::size_t self = st.counts.granted;
  while (self < q.size() && q[self].txn != txn) ++self;
  examined_ += self - st.counts.granted;
  if (self == q.size()) return;
  examined_ += 1 + self;
  for (std::size_t i = 0; i < self; ++i) {
    const Request& r = q[i];
    if (r.txn == txn) continue;
    // An earlier waiter is conservatively assumed to be ahead of us.
    if (!r.granted || !lock_compatible(r.mode, q[self].mode)) fn(r.txn);
  }
}

/// Deadlock detection over the logical lock table: does txn (which just
/// started waiting) close a cycle in the wait-for graph? Conservative FIFO
/// semantics: a waiter waits for every incompatible request ahead of it.
bool creates_deadlock(const LockTable& lt, TxnId txn);

}  // namespace gemsd::cc
