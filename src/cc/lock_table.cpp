#include "cc/lock_table.hpp"

#include <algorithm>
#include <cassert>

namespace gemsd::cc {

namespace {

/// Largest request-queue capacity a recycled page slot keeps.
constexpr std::size_t kKeptQueueCapacity = 2;

bool compatible_with_granted(const std::vector<LockTable::Request>& q,
                             TxnId txn, LockMode mode) {
  for (const auto& r : q) {
    if (!r.granted || r.txn == txn) continue;
    if (!lock_compatible(r.mode, mode)) return false;
  }
  return true;
}

bool any_waiter_ahead(const std::vector<LockTable::Request>& q, TxnId txn) {
  // FIFO fairness: a new request must queue behind existing waiters
  // (upgrades are exempt — they jump the queue, see acquire()).
  for (const auto& r : q) {
    if (!r.granted && r.txn != txn) return true;
  }
  return false;
}

}  // namespace

LockTable::Outcome LockTable::acquire(PageId page, TxnId txn, NodeId node,
                                      LockMode mode, GrantFn on_grant,
                                      bool* upgrade) {
  requests_.inc();
  const auto [slot, fresh] = pages_.try_emplace(page);
  if (fresh) {
    if (free_states_.empty()) {
      *slot = static_cast<std::uint32_t>(states_.size());
      states_.emplace_back();
    } else {
      *slot = free_states_.back();
      free_states_.pop_back();
    }
  }
  PageState& st = states_[*slot];

  // Upgrade detection: the txn already holds a weaker lock on the page
  // (Read -> Update, Read -> Write, or Update -> Write).
  bool is_upgrade = false;
  for (auto& r : st.q) {
    if (r.txn == txn && r.granted) {
      assert(lock_strength(mode) > lock_strength(r.mode) &&
             "re-acquiring a held lock (callers must track held locks)");
      is_upgrade = true;
      break;
    }
  }
  if (upgrade != nullptr) *upgrade = is_upgrade;

  if (is_upgrade) {
    // Grant in place iff the target mode is compatible with every OTHER
    // granted holder (e.g. U->W needs the readers to drain; R->U only
    // another updater blocks).
    bool clear = true;
    for (const auto& r : st.q) {
      if (r.granted && r.txn != txn && !lock_compatible(r.mode, mode)) {
        clear = false;
        break;
      }
    }
    if (clear) {
      for (auto& r : st.q) {
        if (r.txn == txn && r.granted) r.mode = mode;
      }
      // The granted entry got stronger: waiters compatible with the old mode
      // may now be blocked by it.
      if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
      return Outcome::Granted;
    }
    conflicts_.inc();
    // Upgrades wait at the head of the queue (before ordinary waiters).
    Request req{txn, node, mode, false, true, std::move(on_grant)};
    auto it = std::find_if(st.q.begin(), st.q.end(),
                           [](const Request& r) { return !r.granted; });
    st.q.insert(it, std::move(req));
    waiting_[txn] = page;
    // The upgrade jumped the queue: every waiter behind it just gained a
    // blocker. (The upgrader's own edges are the caller's to emit.)
    if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
    return Outcome::Waiting;
  }

  if (compatible_with_granted(st.q, txn, mode) &&
      !any_waiter_ahead(st.q, txn)) {
    st.q.push_back(Request{txn, node, mode, true, false, {}});
    return Outcome::Granted;
  }
  conflicts_.inc();
  st.q.push_back(Request{txn, node, mode, false, false, std::move(on_grant)});
  waiting_[txn] = page;
  return Outcome::Waiting;
}

void LockTable::promote(PageId page, PageState& st) {
  // Repeatedly grant the first waiter while compatible. Upgrades sit at the
  // front and are granted when their holder is the sole remaining one.
  for (;;) {
    auto it = std::find_if(st.q.begin(), st.q.end(),
                           [](const Request& r) { return !r.granted; });
    if (it == st.q.end()) return;
    if (it->upgrade) {
      bool clear = true;
      for (const auto& r : st.q) {
        if (r.granted && r.txn != it->txn &&
            !lock_compatible(r.mode, it->mode)) {
          clear = false;
          break;
        }
      }
      if (!clear) return;
      // Convert the existing granted entry and drop the waiter.
      const LockMode target = it->mode;
      for (auto& r : st.q) {
        if (r.granted && r.txn == it->txn) r.mode = target;
      }
      auto fn = std::move(it->on_grant);
      const TxnId t = it->txn;
      const NodeId n = it->node;
      st.q.erase(it);
      waiting_.erase(t);
      if (hooks_.granted) hooks_.granted(page, t, n);
      if (fn) fn();
      continue;
    }
    if (!compatible_with_granted(st.q, it->txn, it->mode)) return;
    it->granted = true;
    auto fn = std::move(it->on_grant);
    waiting_.erase(it->txn);
    if (hooks_.granted) hooks_.granted(page, it->txn, it->node);
    if (fn) fn();
  }
}

void LockTable::settle(PageId page, std::uint32_t s, TxnId txn) {
  auto& q = states_[s].q;
  if (q.empty()) {
    // Recycled with its buffer, unless a hot page grew it: passed on from
    // slot to slot, long queues' capacity would end up in every slot.
    if (q.capacity() > kKeptQueueCapacity) q = std::vector<Request>();
    pages_.erase(page);
    free_states_.push_back(s);
  } else if (hooks_.queue_changed) {
    hooks_.queue_changed(page, txn);
  }
}

void LockTable::release(PageId page, TxnId txn) {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return;
  const std::uint32_t s = *slot;
  auto& st = states_[s];
  st.q.erase(std::remove_if(st.q.begin(), st.q.end(),
                            [&](const Request& r) {
                              return r.txn == txn && r.granted;
                            }),
             st.q.end());
  promote(page, st);
  settle(page, s, txn);
}

bool LockTable::cancel_wait(PageId page, TxnId txn) {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return false;
  const std::uint32_t s = *slot;
  auto& st = states_[s];
  const auto before = st.q.size();
  st.q.erase(std::remove_if(st.q.begin(), st.q.end(),
                            [&](const Request& r) {
                              return r.txn == txn && !r.granted;
                            }),
             st.q.end());
  const bool removed = st.q.size() != before;
  if (removed) waiting_.erase(txn);
  promote(page, st);
  settle(page, s, txn);
  return removed;
}

bool LockTable::holds(PageId page, TxnId txn, LockMode at_least) const {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return false;
  for (const auto& r : states_[*slot].q) {
    if (r.txn == txn && r.granted) return lock_covers(r.mode, at_least);
  }
  return false;
}

std::optional<PageId> LockTable::waiting_on(TxnId txn) const {
  const PageId* p = waiting_.find(txn);
  if (p == nullptr) return std::nullopt;
  return *p;
}

std::vector<TxnId> LockTable::blockers(PageId page, TxnId txn) const {
  std::vector<TxnId> out;
  for_each_blocker(page, txn, [&](TxnId b) { out.push_back(b); });
  return out;
}

std::vector<std::pair<TxnId, NodeId>> LockTable::waiters(PageId page) const {
  std::vector<std::pair<TxnId, NodeId>> out;
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return out;
  for (const auto& r : states_[*slot].q) {
    if (!r.granted) out.emplace_back(r.txn, r.node);
  }
  return out;
}

bool creates_deadlock(const LockTable& lt, TxnId start) {
  // DFS through the wait-for relation starting from `start`. The scratch is
  // reused across checks and, like the table, confined to the run's thread.
  thread_local std::vector<TxnId> stack;
  thread_local sim::FlatSet<TxnId> visited;
  stack.assign(1, start);
  visited.clear();
  bool first = true;
  while (!stack.empty()) {
    const TxnId t = stack.back();
    stack.pop_back();
    if (!first) {
      if (t == start) return true;
      if (!visited.try_emplace(t).second) continue;
    }
    first = false;
    const auto page = lt.waiting_on(t);
    if (!page) continue;
    lt.for_each_blocker(*page, t, [](TxnId b) { stack.push_back(b); });
  }
  return false;
}

}  // namespace gemsd::cc
