#include "cc/lock_table.hpp"

#include <algorithm>
#include <cassert>

namespace gemsd::cc {

namespace {

/// Largest request-queue capacity a recycled page slot keeps.
constexpr std::size_t kKeptQueueCapacity = 2;

std::size_t idx(LockMode m) { return static_cast<std::size_t>(m); }

/// Whether a request of `mode` is compatible with granted requests counted
/// per mode in `by_mode`.
bool compatible(const std::array<std::uint32_t, kLockModes>& by_mode,
                LockMode mode) {
  for (std::size_t m = 0; m < kLockModes; ++m) {
    if (by_mode[m] != 0 && !lock_compatible(static_cast<LockMode>(m), mode)) {
      return false;
    }
  }
  return true;
}

/// `by_mode` without one granted request of `own` (an upgrader's own lock).
std::array<std::uint32_t, kLockModes> others(
    std::array<std::uint32_t, kLockModes> by_mode, LockMode own) {
  --by_mode[idx(own)];
  return by_mode;
}

}  // namespace

std::size_t LockTable::find_granted(const PageState& st, TxnId txn) const {
  const std::size_t n = st.counts.granted;
  std::size_t i = 0;
  while (i < n && st.q[i].txn != txn) ++i;
  examined_ += i < n ? i + 1 : n;
  return i;
}

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
  GrantedCounts& c = st.counts;

  // Upgrade detection: the txn already holds a weaker lock on the page
  // (Read -> Update, Read -> Write, or Update -> Write).
  const std::size_t h = find_granted(st, txn);
  const bool is_upgrade = h < c.granted;
  if (upgrade != nullptr) *upgrade = is_upgrade;

  if (is_upgrade) {
    Request& held = st.q[h];
    assert(lock_strength(mode) > lock_strength(held.mode) &&
           "re-acquiring a held lock (callers must track held locks)");
    // Grant in place iff the target mode is compatible with every OTHER
    // granted holder (e.g. U->W needs the readers to drain; R->U only
    // another updater blocks).
    if (compatible(others(c.by_mode, held.mode), mode)) {
      --c.by_mode[idx(held.mode)];
      ++c.by_mode[idx(mode)];
      held.mode = mode;
      // The granted entry got stronger: waiters compatible with the old mode
      // may now be blocked by it.
      if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
      return Outcome::Granted;
    }
    conflicts_.inc();
    // Upgrades wait at the head of the queue (before ordinary waiters).
    st.q.insert(st.q.begin() + c.granted,
                Request{txn, node, mode, false, true});
    waiting_[txn] = Waiter{page, std::move(on_grant)};
    // The upgrade jumped the queue: every waiter behind it just gained a
    // blocker. (The upgrader's own edges are the caller's to emit.)
    if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
    return Outcome::Waiting;
  }

  // FIFO fairness: a new request queues behind existing waiters (upgrades
  // are exempt — they jump the queue, above).
  if (st.q.size() == c.granted && compatible(c.by_mode, mode)) {
    st.q.push_back(Request{txn, node, mode, true, false});
    ++c.granted;
    ++c.by_mode[idx(mode)];
    return Outcome::Granted;
  }
  conflicts_.inc();
  st.q.push_back(Request{txn, node, mode, false, false});
  waiting_[txn] = Waiter{page, std::move(on_grant)};
  return Outcome::Waiting;
}

void LockTable::promote(PageId page, PageState& st) {
  // Repeatedly grant the first waiter while compatible. Upgrades sit at the
  // front and are granted when their holder is the sole remaining one.
  GrantedCounts& c = st.counts;
  while (c.granted < st.q.size()) {
    Request& w = st.q[c.granted];
    const TxnId t = w.txn;
    const NodeId n = w.node;
    const LockMode mode = w.mode;
    if (w.upgrade) {
      // Convert the existing granted entry (if its holder still has it) and
      // drop the waiter.
      const std::size_t h = find_granted(st, t);
      const bool holds = h < c.granted;
      if (!compatible(holds ? others(c.by_mode, st.q[h].mode) : c.by_mode,
                      mode)) {
        return;
      }
      if (holds) {
        --c.by_mode[idx(st.q[h].mode)];
        ++c.by_mode[idx(mode)];
        st.q[h].mode = mode;
      }
      st.q.erase(st.q.begin() + c.granted);
    } else {
      if (!compatible(c.by_mode, mode)) return;
      w.granted = true;
      ++c.granted;
      ++c.by_mode[idx(mode)];
    }
    GrantFn fn;
    if (Waiter* wt = waiting_.find(t)) fn = std::move(wt->on_grant);
    waiting_.erase(t);
    if (hooks_.granted) hooks_.granted(page, t, n);
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
  PageState& st = states_[s];
  if (const std::size_t h = find_granted(st, txn); h < st.counts.granted) {
    --st.counts.granted;
    --st.counts.by_mode[idx(st.q[h].mode)];
    st.q.erase(st.q.begin() + static_cast<std::ptrdiff_t>(h));
  }
  promote(page, st);
  settle(page, s, txn);
}

bool LockTable::cancel_wait(PageId page, TxnId txn) {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return false;
  const std::uint32_t s = *slot;
  PageState& st = states_[s];
  std::size_t i = st.counts.granted;
  while (i < st.q.size() && st.q[i].txn != txn) ++i;
  examined_ += std::min(i + 1, st.q.size()) - st.counts.granted;
  const bool removed = i < st.q.size();
  if (removed) {
    st.q.erase(st.q.begin() + static_cast<std::ptrdiff_t>(i));
    waiting_.erase(txn);
  }
  promote(page, st);
  settle(page, s, txn);
  return removed;
}

bool LockTable::holds(PageId page, TxnId txn, LockMode at_least) const {
  const std::uint32_t* slot = pages_.find(page);
  if (slot == nullptr) return false;
  const PageState& st = states_[*slot];
  const std::size_t h = find_granted(st, txn);
  return h < st.counts.granted && lock_covers(st.q[h].mode, at_least);
}

std::optional<PageId> LockTable::waiting_on(TxnId txn) const {
  const Waiter* w = waiting_.find(txn);
  if (w == nullptr) return std::nullopt;
  return w->page;
}

LockTable::GrantedCounts LockTable::granted_counts(PageId page) const {
  const std::uint32_t* slot = pages_.find(page);
  return slot == nullptr ? GrantedCounts{} : states_[*slot].counts;
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
  const PageState& st = states_[*slot];
  examined_ += st.q.size() - st.counts.granted;
  for (std::size_t i = st.counts.granted; i < st.q.size(); ++i) {
    out.emplace_back(st.q[i].txn, st.q[i].node);
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
