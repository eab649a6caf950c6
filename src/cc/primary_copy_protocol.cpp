#include "cc/primary_copy_protocol.hpp"

#include <algorithm>
#include <type_traits>

namespace gemsd::cc {

void PrimaryCopyProtocol::freeze_gla(NodeId n) { frozen_.insert(n); }

void PrimaryCopyProtocol::thaw_gla(NodeId n) {
  frozen_.erase(n);
  auto it = freeze_waiters_.find(n);
  if (it == freeze_waiters_.end()) return;
  for (auto h : it->second) sched().schedule(sched().now(), h);
  freeze_waiters_.erase(it);
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire(node::Txn& txn, PageId p,
                                                    LockMode mode) {
  metrics().lock_requests.inc();
  const sim::SimTime t0 = sched().now();
  const NodeId g = gla_->gla(p);
  while (frozen_.count(g) != 0) {
    co_await sched().suspend([this, g](std::coroutine_handle<> h) {
      freeze_waiters_[g].push_back(h);
    });
  }
  LockOutcome out;
  if (g == txn.node) {
    out = co_await acquire_local(txn, p, mode);
  } else if (read_opt_ && mode == LockMode::Read &&
             dir_.has_read_auth(p, txn.node)) {
    out = co_await acquire_auth_local(txn, p);
  } else {
    out = co_await acquire_remote(txn, p, mode, g);
  }
  txn.t_cc += sched().now() - t0;
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_local(node::Txn& txn,
                                                          PageId p,
                                                          LockMode mode) {
  metrics().lock_local.inc();
  const NodeId n = txn.node;
  co_await cpu(n).consume(cfg().lock_instr);
  if (mode == LockMode::Write) revoke_auths(p, n, n);
  const Logical res = co_await lock_logical(txn, p, mode);
  if (res == Logical::Aborted) co_return LockOutcome{.aborted = true};

  LockOutcome out;
  out.seqno = dir_.seqno(p);
  const auto cached = buf(n).cached_seqno(p);
  if (cached && *cached == out.seqno) {
    out.source = PageSource::CacheValid;
  } else {
    out.invalidation = cached.has_value();
    // As GLA we are the designated owner: either our copy is current (then
    // the sequence numbers matched above / the copy is in write-back), or
    // the permanent database is.
    out.source = PageSource::Storage;
  }
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_auth_local(node::Txn& txn,
                                                               PageId p) {
  metrics().lock_auth_local.inc();
  const NodeId n = txn.node;
  co_await cpu(n).consume(cfg().lock_instr);
  const Logical res = co_await lock_logical(txn, p, LockMode::Read);
  if (res == Logical::Aborted) co_return LockOutcome{.aborted = true};

  LockOutcome out;
  out.seqno = dir_.seqno(p);
  const auto cached = buf(n).cached_seqno(p);
  if (cached && *cached == out.seqno) {
    out.source = PageSource::CacheValid;
  } else {
    out.invalidation = cached.has_value();
    const NodeId ow = dir_.owner(p);
    if (ow != kNoNode && ow != n) {
      // Ask the GLA (the owner) for the page — an explicit request/transfer
      // round, since no lock message travels that could carry it.
      out.source = PageSource::OwnerTransfer;
      out.owner = ow;
    } else {
      out.source = PageSource::Storage;
    }
  }
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_remote(node::Txn& txn,
                                                           PageId p,
                                                           LockMode mode,
                                                           NodeId g) {
  metrics().lock_remote.inc();
  const NodeId n = txn.node;
  const auto cached = buf(n).cached_seqno(p);
  sim::OneShot<GrantMsg> resp(sched());

  co_await env_.comm->send(
      n, g, /*long_msg=*/false,
      gla_lock_request(txn.id, p, mode, cached, g, n, &resp));

  const GrantMsg m = co_await resp.wait();
  if (m.aborted) co_return LockOutcome{.aborted = true};
  if (!m.upgrade) txn.held.push_back(p);
  LockOutcome out;
  out.source = m.source;
  out.seqno = m.seqno;
  out.invalidation = m.invalidation;
  out.owner = g;
  co_return out;
}

PrimaryCopyProtocol::GrantMsg PrimaryCopyProtocol::make_grant(
    PageId p, NodeId requester, std::optional<SeqNo> cached, LockMode mode,
    NodeId g) {
  GrantMsg m;
  m.seqno = dir_.seqno(p);
  if (cached && *cached == m.seqno) {
    m.source = PageSource::CacheValid;
  } else {
    m.invalidation = cached.has_value();
    const NodeId ow = dir_.owner(p);
    if (ow == g && buf(g).has_copy(p)) {
      // Send the current page along with the grant (long message).
      m.source = PageSource::Delivered;
    } else {
      m.source = PageSource::Storage;
    }
  }
  if (read_opt_ && mode == LockMode::Read) dir_.grant_read_auth(p, requester);
  return m;
}

sim::Task<void> PrimaryCopyProtocol::gla_lock_request(
    TxnId txn, PageId p, LockMode mode, std::optional<SeqNo> cached, NodeId g,
    NodeId n, sim::OneShot<GrantMsg>* resp) {
  co_await cpu(g).consume(cfg().lock_instr);
  if (mode == LockMode::Write) revoke_auths(p, n, g);
  // Same trace instrumentation as Protocol::lock_logical — the analyzer's
  // wait-for replay needs every waiting path to emit its edges, the deadlock
  // verdict, and a lock.wait span at grant time (which retires the edges).
  const sim::SimTime t0 = sched().now();
  RemoteWaiter w{txn, p, mode, cached, g, n, t0,
                 sim::OneShot<GrantMsg>(sched())};
  // Two pointers: inline in std::function, so the request allocates nothing.
  auto on_grant = [this, wp = &w] { remote_granted(*wp); };
  static_assert(sizeof(on_grant) <= 2 * sizeof(void*) &&
                std::is_trivially_copyable_v<decltype(on_grant)>);
  bool upgrade = false;
  const auto res = table_.acquire(p, txn, n, mode, on_grant, &upgrade);
  if (res == LockTable::Outcome::Granted) {
    GrantMsg m = make_grant(p, n, cached, mode, g);
    m.upgrade = upgrade;
    co_await send_grant(g, n, m, resp);
    co_return;
  }
  if (metrics().trace) {
    for (TxnId b : table_.blockers(p, txn)) {
      metrics().trace->instant(obs::TraceName::kWaitEdge,
                               static_cast<std::int16_t>(n), txn, t0,
                               static_cast<double>(b));
    }
  }
  if (creates_deadlock(table_, txn)) {
    table_.cancel_wait(p, txn);
    metrics().deadlocks.inc();
    if (metrics().trace) {
      metrics().trace->instant(obs::TraceName::kDeadlock,
                               static_cast<std::int16_t>(n), txn, t0,
                               static_cast<double>(p.page),
                               static_cast<std::int32_t>(p.partition));
    }
    co_await send_grant(g, n, GrantMsg{.aborted = true}, resp);
    co_return;
  }
  metrics().lock_waits.inc();
  // remote_granted() decides the grant at the releasing instant (the
  // directory state it reads may change before this frame resumes) and
  // schedules this frame to send it.
  GrantMsg m = co_await w.grant.wait();
  m.upgrade = upgrade;
  co_await send_grant(g, n, m, resp);
}

void PrimaryCopyProtocol::remote_granted(RemoteWaiter& w) {
  if (metrics().trace) {
    metrics().trace->span(obs::TraceName::kLockWait,
                          static_cast<std::int16_t>(w.n), w.txn, w.t0,
                          sched().now(), static_cast<double>(w.p.page),
                          static_cast<std::int32_t>(w.p.partition));
  }
  w.grant.set(make_grant(w.p, w.n, w.cached, w.mode, w.g));
}

sim::Task<void> PrimaryCopyProtocol::fulfill_grant(
    sim::OneShot<GrantMsg>* resp, GrantMsg m) {
  resp->set(m);
  co_return;
}

sim::Task<void> PrimaryCopyProtocol::send_grant(NodeId g, NodeId n, GrantMsg m,
                                                sim::OneShot<GrantMsg>* resp) {
  co_await env_.comm->send(g, n, /*long_msg=*/m.source == PageSource::Delivered,
                           fulfill_grant(resp, m));
}

void PrimaryCopyProtocol::revoke_auths(PageId p, NodeId writer_node,
                                       NodeId gla_node) {
  revoke_auths_from(gla_node, p, writer_node);
}

sim::Task<void> PrimaryCopyProtocol::release_group(
    node::Txn& txn, NodeId g, std::vector<PageId> pages,
    std::vector<PageId> dirty_pages, bool propagate) {
  const NodeId n = txn.node;
  const bool noforce = cfg().update == UpdateStrategy::NoForce;

  if (propagate) {
    for (PageId p : dirty_pages) {
      const NodeId new_owner = noforce ? g : kNoNode;
      const SeqNo s = dir_.committed(p, new_owner);
      // The modifying node's copy stays cached and current; it is dirty only
      // if this node keeps ownership (it is the GLA itself under NOFORCE).
      buf(n).commit_dirty(p, s, noforce && g == n);
    }
  }

  if (g == n) {
    co_await cpu(n).consume(cfg().lock_instr *
                            static_cast<double>(pages.size()));
    releasing_node_ = n;
    for (PageId p : pages) table_.release(p, txn.id);
    releasing_node_ = kNoNode;
    co_return;
  }

  // One release message per remote GLA; long when it carries modified pages
  // back to their owner (NOFORCE update propagation).
  const bool carries_pages = propagate && noforce && !dirty_pages.empty();
  co_await env_.comm->send(
      n, g, carries_pages,
      gla_release(g, txn.id, std::move(pages), std::move(dirty_pages),
                  carries_pages));
}

sim::Task<void> PrimaryCopyProtocol::gla_release(NodeId g, TxnId txn,
                                                 std::vector<PageId> pages,
                                                 std::vector<PageId> dirty_pages,
                                                 bool carries_pages) {
  co_await cpu(g).consume(cfg().lock_instr *
                          static_cast<double>(pages.size()));
  if (carries_pages) {
    for (PageId p : dirty_pages) {
      buf(g).install(p, dir_.seqno(p), /*dirty=*/true);
    }
  }
  releasing_node_ = g;
  for (PageId p : pages) table_.release(p, txn);
  releasing_node_ = kNoNode;
}

sim::Task<void> PrimaryCopyProtocol::commit_release(node::Txn& txn) {
  // Group held pages by GLA node; one (possibly page-carrying) release
  // message per remote authority.
  std::vector<std::pair<NodeId, std::vector<PageId>>> groups;
  for (PageId p : txn.held) {
    const NodeId g = gla_->gla(p);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [g](const auto& e) { return e.first == g; });
    if (it == groups.end()) {
      groups.emplace_back(g, std::vector<PageId>{p});
    } else {
      it->second.push_back(p);
    }
  }
  for (auto& [g, pages] : groups) {
    std::vector<PageId> dirty;
    for (PageId p : txn.dirty) {
      if (std::find(pages.begin(), pages.end(), p) != pages.end()) {
        dirty.push_back(p);
      }
    }
    co_await release_group(txn, g, std::move(pages), std::move(dirty),
                           /*propagate=*/true);
  }
  txn.held.clear();
  txn.dirty.clear();
}

sim::Task<void> PrimaryCopyProtocol::abort_release(node::Txn& txn) {
  std::vector<std::pair<NodeId, std::vector<PageId>>> groups;
  for (PageId p : txn.held) {
    const NodeId g = gla_->gla(p);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [g](const auto& e) { return e.first == g; });
    if (it == groups.end()) {
      groups.emplace_back(g, std::vector<PageId>{p});
    } else {
      it->second.push_back(p);
    }
  }
  for (auto& [g, pages] : groups) {
    co_await release_group(txn, g, std::move(pages), {}, /*propagate=*/false);
  }
  txn.held.clear();
  txn.dirty.clear();
}

}  // namespace gemsd::cc
