#include "cc/protocol.hpp"

#include <type_traits>

#include "obs/audit.hpp"

namespace gemsd::cc {

Protocol::Protocol(Env env) : env_(std::move(env)) {
  if (!metrics().trace) return;
  // Keep the trace's wait-for graph exact: enqueue-time snapshots go stale
  // whenever a page's queue mutates (an upgrade jumps ahead of FIFO waiters,
  // a waiter ahead gets granted in a compatible mode), so the table re-emits
  // every still-waiting request's blocker set at each mutation — the
  // analyzer treats a batch as a full replacement. The grant instant marks
  // the moment a waiter stops waiting; the kLockWait span alone records too
  // late for remote waiters (their coroutine resumes after a message delay).
  LockTable::TraceHooks hooks;
  hooks.granted = [this](PageId p, TxnId t, NodeId n) {
    metrics().trace->instant(obs::TraceName::kLockGrant,
                             static_cast<std::int16_t>(n), t, sched().now(),
                             static_cast<double>(p.page),
                             static_cast<std::int32_t>(p.partition));
  };
  hooks.queue_changed = [this](PageId p, TxnId exclude) {
    for (const auto& [w, wn] : table_.waiters(p)) {
      if (w == exclude) continue;
      for (TxnId b : table_.blockers(p, w)) {
        metrics().trace->instant(obs::TraceName::kWaitEdge,
                                 static_cast<std::int16_t>(wn), w,
                                 sched().now(), static_cast<double>(b));
      }
    }
  };
  table_.set_trace_hooks(std::move(hooks));
}

void Protocol::audit_commit_state(const node::Txn& txn,
                                  const std::vector<PageId>& dirty,
                                  obs::Auditor& audit, sim::SimTime now) {
  for (PageId p : dirty) {
    if (lock_release_is_synchronous(p, txn.node)) {
      audit.check(!table_.holds(p, txn.id, LockMode::Read), "commit-release",
                  now, txn.id, txn.node,
                  "lock on page %lld/%d still held after commit_release",
                  static_cast<long long>(p.page), p.partition);
    }
    const SeqNo s = dir_.seqno(p);
    audit.check(s > 0, "commit-version", now, txn.id, txn.node,
                "committed page %lld/%d still at version 0",
                static_cast<long long>(p.page), p.partition);
    // The committing node's copy was stamped with the new version by
    // commit_dirty; a surviving stale copy would serve wrong data on the
    // next local hit.
    const auto local = buf(txn.node).cached_seqno(p);
    audit.check(!local || *local == s, "local-coherency", now, txn.id,
                txn.node,
                "page %lld/%d cached at seqno %llu after committing %llu",
                static_cast<long long>(p.page), p.partition,
                static_cast<unsigned long long>(local ? *local : 0),
                static_cast<unsigned long long>(s));
    // Ownership (NOFORCE): when the directory names this node as holding
    // the only current copy, the buffer must actually hold it (frame or
    // in-flight write-back) at exactly that version.
    if (dir_.owner(p) == txn.node) {
      audit.check(local.has_value() && *local == s, "owner-coherency", now,
                  txn.id, txn.node,
                  "directory names node %d owner of page %lld/%d at seqno "
                  "%llu but the buffer %s",
                  txn.node, static_cast<long long>(p.page), p.partition,
                  static_cast<unsigned long long>(s),
                  local ? "holds a different version" : "has no copy");
    }
  }
}

sim::Task<void> Protocol::fulfill_bool(sim::OneShot<bool>* o, bool v) {
  o->set(v);
  co_return;
}

sim::Task<void> Protocol::noop_handler() { co_return; }

void Protocol::revoke_auths_from(NodeId sender, PageId p, NodeId except) {
  for (NodeId a : dir_.revoke_read_auths(p, except)) {
    metrics().revocations.inc();
    if (a == sender) continue;
    sched().spawn(env_.comm->send(sender, a, /*long_msg=*/false,
                                  noop_handler()));
  }
}

sim::Task<Protocol::Logical> Protocol::lock_logical(node::Txn& txn, PageId p,
                                                    LockMode mode) {
  LockWaiter waiter{sim::OneShot<bool>(sched()), txn.node};
  // Fired during someone's release processing. A waiter on another node
  // than the releasing context learns of the grant through a short
  // notification message; a local waiter is resumed directly.
  auto on_grant = [this, w = &waiter] {
    if (releasing_node_ == kNoNode || releasing_node_ == w->node) {
      w->granted.set(true);
    } else {
      sched().spawn(env_.comm->send(releasing_node_, w->node,
                                    /*long_msg=*/false,
                                    fulfill_bool(&w->granted, true)));
    }
  };
  // libstdc++'s std::function keeps a trivially copyable callable of up to
  // two pointers inline: a lock request then allocates nothing.
  static_assert(sizeof(on_grant) <= 2 * sizeof(void*) &&
                std::is_trivially_copyable_v<decltype(on_grant)>);
  // An upgrade's page is already on the held list (acquisition order).
  bool upgrade = false;
  const auto res =
      table_.acquire(p, txn.id, txn.node, mode, on_grant, &upgrade);
  if (res == LockTable::Outcome::Granted) {
    if (!upgrade) txn.held.push_back(p);
    co_return Logical::Granted;
  }
  // Record the wait-for edges BEFORE the deadlock check so a trace shows the
  // edges that closed the cycle (the analyzer replays them; txn ids stay
  // exact as doubles — 11 bits of node + 40 bits of sequence < 2^53).
  if (metrics().trace) {
    // Our own batch comes after any hook-emitted refreshes from the enqueue
    // (an upgrade jumping the queue refreshes the waiters behind it): its
    // arrival is when the replay runs the cycle check, just like the
    // simulator checks right after enqueueing us.
    for (TxnId b : table_.blockers(p, txn.id)) {
      metrics().trace->instant(obs::TraceName::kWaitEdge,
                               static_cast<std::int16_t>(txn.node), txn.id,
                               sched().now(), static_cast<double>(b));
    }
  }
  // Would waiting close a cycle? Then this transaction is the victim.
  if (creates_deadlock(table_, txn.id)) {
    table_.cancel_wait(p, txn.id);
    metrics().deadlocks.inc();
    if (metrics().trace) {
      metrics().trace->instant(obs::TraceName::kDeadlock,
                               static_cast<std::int16_t>(txn.node), txn.id,
                               sched().now(), static_cast<double>(p.page),
                               static_cast<std::int32_t>(p.partition));
    }
    co_return Logical::Aborted;
  }
  metrics().lock_waits.inc();
  const sim::SimTime t0 = sched().now();
  co_await waiter.granted.wait();
  metrics().lock_wait_time.add(sched().now() - t0);
  if (metrics().trace) {
    metrics().trace->span(obs::TraceName::kLockWait,
                          static_cast<std::int16_t>(txn.node), txn.id, t0,
                          sched().now(), static_cast<double>(p.page),
                          static_cast<std::int32_t>(p.partition));
  }
  if (!upgrade) txn.held.push_back(p);
  co_return Logical::GrantedAfterWait;
}

sim::Task<void> Protocol::provision(node::Txn& txn, PageId p,
                                    const LockOutcome& lk) {
  auto& bm = buf(txn.node);
  switch (lk.source) {
    case PageSource::CacheValid:
      if (bm.has_copy(p)) {
        bm.hit(p);
      } else {
        // The copy was replaced while the request waited; re-decide from the
        // directory (rare).
        bm.count_miss(p, false);
        const NodeId ow = dir_.owner(p);
        if (ow != kNoNode && ow != txn.node) {
          co_await fetch_from_owner(txn, p, lk.seqno, ow,
                                    /*transfer_ownership=*/true);
        } else {
          co_await bm.read_from_storage(&txn, p, lk.seqno, /*count=*/false);
        }
      }
      break;
    case PageSource::Delivered:
      // Page arrived with the grant message (PCL); the GLA keeps ownership.
      bm.count_miss(p, lk.invalidation);
      bm.install(p, lk.seqno, /*dirty=*/false);
      break;
    case PageSource::OwnerTransfer:
      bm.count_miss(p, lk.invalidation);
      co_await fetch_from_owner(txn, p, lk.seqno, lk.owner,
                                /*transfer_ownership=*/true);
      break;
    case PageSource::Storage:
      bm.count_miss(p, lk.invalidation);
      co_await bm.read_from_storage(&txn, p, lk.seqno, /*count=*/false);
      break;
  }
}

sim::Task<void> Protocol::serve_page_request(PageId p, NodeId owner,
                                             NodeId requester,
                                             bool transfer_ownership,
                                             sim::OneShot<bool>* got) {
  (void)transfer_ownership;  // ownership migrates at requester install time
  auto& ob = buf(owner);
  if (ob.has_copy(p)) {
    co_await env_.comm->send(owner, requester, /*long_msg=*/true,
                             fulfill_bool(got, true));
  } else {
    // The owner wrote the page back concurrently: storage is current.
    metrics().page_request_misses.inc();
    co_await env_.comm->send(owner, requester, /*long_msg=*/false,
                             fulfill_bool(got, false));
  }
}

sim::Task<void> Protocol::fetch_from_owner(node::Txn& txn, PageId p,
                                           SeqNo seqno, NodeId owner,
                                           bool transfer_ownership) {
  metrics().page_requests.inc();
  const sim::SimTime t0 = sched().now();
  const NodeId me = txn.node;
  sim::OneShot<bool> got(sched());

  co_await env_.comm->send(
      me, owner, /*long_msg=*/false,
      serve_page_request(p, owner, me, transfer_ownership, &got));

  const bool have_page = co_await got.wait();
  metrics().page_request_delay.add(sched().now() - t0);
  txn.t_cc += sched().now() - t0;
  if (metrics().trace) {
    metrics().trace->span(obs::TraceName::kPageRequest,
                          static_cast<std::int16_t>(me), txn.id, t0,
                          sched().now(), static_cast<double>(p.page),
                          static_cast<std::int32_t>(p.partition));
  }
  if (have_page) {
    buf(me).install(p, seqno, /*dirty=*/transfer_ownership);
    if (transfer_ownership) {
      // Ownership migrates only NOW, when the requester actually holds the
      // copy. (Transferring at serve time opens a window in which the
      // directory names a node whose copy is still the stale one — other
      // readers on that node would then wrongly trust their cached pages.)
      // The previous owner's copy stays cached but becomes clean; it is no
      // longer that node's write-back responsibility.
      dir_.transfer_owner(p, me);
      buf(owner).shipped_copy(p);
    }
  } else {
    co_await buf(me).read_from_storage(&txn, p, seqno, /*count=*/false);
  }
}

}  // namespace gemsd::cc
