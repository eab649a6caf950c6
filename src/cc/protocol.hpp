#pragma once

#include <memory>
#include <vector>

#include "cc/directory.hpp"
#include "cc/lock_table.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "net/comm.hpp"
#include "node/buffer_manager.hpp"
#include "node/cpu.hpp"
#include "node/txn.hpp"
#include "sim/oneshot.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "storage/storage_manager.hpp"

namespace gemsd::cc {

/// Where the current page version comes from after a lock grant.
enum class PageSource {
  CacheValid,     ///< local cached copy is current (sequence numbers match)
  Storage,        ///< permanent database (disk / disk cache / GEM file)
  OwnerTransfer,  ///< request the page from its current owner node
  Delivered,      ///< the page arrived with the grant message (PCL)
};

struct LockOutcome {
  bool aborted = false;       ///< deadlock victim
  PageSource source = PageSource::Storage;
  SeqNo seqno = 0;            ///< current version
  NodeId owner = kNoNode;     ///< for OwnerTransfer
  bool invalidation = false;  ///< a stale cached copy was detected
};

/// Concurrency/coherency control protocol interface. Both implementations
/// share the *logical* lock table and coherency directory (guaranteeing
/// identical serialization behaviour) and differ in the timing, CPU and
/// message costs they model around every logical operation — which is
/// exactly the comparison the paper makes.
class Protocol {
 public:
  struct Env {
    sim::Scheduler* sched;
    const SystemConfig* cfg;
    Metrics* metrics;
    net::Comm* comm;
    net::Network* net;
    /// Device layer hosting the sharded GEM authority (GLT entry ops route
    /// by page through storage->gem_for(p)).
    storage::StorageManager* storage;
    std::vector<node::CpuSet*> cpus;
    std::vector<node::BufferManager*> bufs;
  };

  /// Wires the lock table's trace hooks when the run records a trace (the
  /// recorder must already be installed in Env's Metrics): every wait-queue
  /// mutation re-emits fresh blocker snapshots so the analyzer's wait-for
  /// replay stays exact.
  explicit Protocol(Env env);
  virtual ~Protocol() = default;

  /// Strict-2PL lock acquisition for a page reference (the transaction must
  /// not already hold an equal-or-stronger lock — callers check held locks;
  /// read->write upgrades are allowed).
  virtual sim::Task<LockOutcome> acquire(node::Txn& txn, PageId p,
                                         LockMode mode) = 0;

  /// Post-grant page provisioning: make the current version available in the
  /// node's buffer, accounting hits/misses/invalidations and performing
  /// storage reads or page transfers as dictated by the outcome.
  sim::Task<void> provision(node::Txn& txn, PageId p, const LockOutcome& lk);

  /// Commit phase 2: propagate version/ownership updates for the
  /// transaction's dirty pages and release all its locks.
  virtual sim::Task<void> commit_release(node::Txn& txn) = 0;

  /// Abort: release all locks without propagating modifications.
  virtual sim::Task<void> abort_release(node::Txn& txn) = 0;

  /// Write-back hook (dirty LRU victim reached storage).
  void on_writeback(NodeId n, PageId p, SeqNo s) { dir_.written_back(p, n, s); }

  /// Whether commit_release drops node n's lock on p before returning.
  /// Primary copy releases remote-GLA locks asynchronously (the release
  /// message is processed at the authority after commit_release returns), so
  /// the post-commit lock audit must skip those pages.
  virtual bool lock_release_is_synchronous(PageId, NodeId) const {
    return true;
  }

  /// --audit invariants after commit_release, over the pre-commit snapshot
  /// of the transaction's dirty pages: every lock released, every committed
  /// page versioned in the directory, the committing node's surviving copy
  /// current, and — where the directory names the committing node as owner —
  /// that GLT/directory entry ownership agrees with the buffer.
  void audit_commit_state(const node::Txn& txn,
                          const std::vector<PageId>& dirty,
                          obs::Auditor& audit, sim::SimTime now);

  LockTable& table() { return table_; }
  CoherencyDirectory& directory() { return dir_; }

 protected:
  enum class Logical { Aborted, Granted, GrantedAfterWait };
  /// A lock_logical request parked in the lock table; lives in the
  /// requesting coroutine's frame until the grant.
  struct LockWaiter {
    sim::OneShot<bool> granted;
    NodeId node;
  };
  /// Acquire on the logical table; suspends while waiting (a waiter on a
  /// node other than the releasing context is woken by a short notification
  /// message). Returns Aborted if the wait would close a deadlock cycle (the
  /// request is then cancelled and the caller's transaction is the victim).
  sim::Task<Logical> lock_logical(node::Txn& txn, PageId p, LockMode mode);

  sim::Task<void> fetch_from_owner(node::Txn& txn, PageId p, SeqNo seqno,
                                   NodeId owner, bool transfer_ownership);

  // NOTE (CP.51): message handlers must not be capturing coroutine lambdas —
  // the coroutine frame would reference a dead closure. Handlers are plain
  // lambdas that call these member coroutines; arguments are copied into the
  // coroutine frames at call time.
  /// Owner-side processing of a direct page request.
  sim::Task<void> serve_page_request(PageId p, NodeId owner, NodeId requester,
                                     bool transfer_ownership,
                                     sim::OneShot<bool>* got);
  /// Fulfill a requester-side one-shot (message arrival).
  static sim::Task<void> fulfill_bool(sim::OneShot<bool>* o, bool v);
  static sim::Task<void> noop_handler();

  /// Drop every read authorization on p except the writer's own node; one
  /// revocation notice per remote holder, sent from `sender`.
  void revoke_auths_from(NodeId sender, PageId p, NodeId except);

  node::BufferManager& buf(NodeId n) {
    return *env_.bufs[static_cast<std::size_t>(n)];
  }
  node::CpuSet& cpu(NodeId n) { return *env_.cpus[static_cast<std::size_t>(n)]; }
  sim::Scheduler& sched() { return *env_.sched; }
  const SystemConfig& cfg() const { return *env_.cfg; }
  Metrics& metrics() { return *env_.metrics; }

  Env env_;
  LockTable table_;
  CoherencyDirectory dir_;
  /// Node whose context is executing the current release (wake-up messages
  /// originate here). Valid only during release processing.
  NodeId releasing_node_ = kNoNode;
};

}  // namespace gemsd::cc
