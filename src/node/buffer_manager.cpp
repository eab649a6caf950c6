#include "node/buffer_manager.hpp"

#include <cassert>

namespace gemsd::node {

BufferManager::BufferManager(sim::Scheduler& sched, const SystemConfig& cfg,
                             NodeId node, CpuSet& cpu,
                             storage::StorageManager& storage,
                             Metrics& metrics)
    : sched_(sched),
      cfg_(cfg),
      node_(node),
      cpu_(cpu),
      storage_(storage),
      metrics_(metrics),
      frames_(static_cast<std::size_t>(cfg.buffer_pages)) {}

std::optional<SeqNo> BufferManager::cached_seqno(PageId p) const {
  if (const Frame* f = frames_.peek(p)) return f->seqno;
  if (const SeqNo* s = writeback_.find(p)) return *s;
  return std::nullopt;
}

bool BufferManager::has_copy(PageId p) const {
  return frames_.contains(p) || writeback_.contains(p);
}

bool BufferManager::frame_dirty(PageId p) const {
  const Frame* f = frames_.peek(p);
  return f != nullptr && f->dirty;
}

void BufferManager::hit(PageId p) {
  metrics_.hits[static_cast<std::size_t>(p.partition)].inc();
  touch(p);
}

void BufferManager::touch(PageId p) {
  if (frames_.touch(p) != nullptr) return;
  // The copy only survives in the in-flight write-back table; re-frame it.
  if (const SeqNo* wb = writeback_.find(p)) {
    install_evicting(p, Frame{*wb, false});
  }
}

void BufferManager::count_miss(PageId p, bool invalidation) {
  metrics_.misses[static_cast<std::size_t>(p.partition)].inc();
  if (invalidation) {
    metrics_.invalidations.inc();
    metrics_.invalidations_by_partition[static_cast<std::size_t>(p.partition)]
        .inc();
  }
}

sim::Task<void> BufferManager::device_read(Txn* txn, PageId p) {
  // The transaction phases partition the response time: the CPU queueing
  // delay for initiating the I/O goes to t_cpu_wait, the rest of this
  // window (initiation burst + device service) to t_io.
  const sim::SimTime t0 = sched_.now();
  double cpu_wait = 0.0;
  if (storage_.is_gem(p.partition)) {
    // Synchronous GEM I/O: short initiation burst, processor held across the
    // device wait (close coupling's defining cost property).
    cpu_wait = co_await cpu_.acquire();
    co_await cpu_.busy(cfg_.gem.io_instr);
    co_await storage_.read(p);
    cpu_.release();
  } else if (storage_.has_gem_cache(p.partition)) {
    // Probe the GEM-resident global cache synchronously; fall back to the
    // disks on a miss and stage the page into the cache in the background.
    cpu_wait = co_await cpu_.acquire();
    co_await cpu_.busy(cfg_.gem.io_instr);
    const bool hit = co_await storage_.gem_cache_probe(p);
    cpu_.release();
    if (!hit) {
      cpu_wait += co_await cpu_.consume(cfg_.disk.io_instr);
      co_await storage_.disk_read(p);
      sched_.spawn(stage_into_gem_cache(p, /*dirty=*/false));
    }
  } else {
    cpu_wait = co_await cpu_.consume(cfg_.disk.io_instr);
    co_await storage_.read(p);
  }
  if (txn) {
    txn->t_cpu_wait += cpu_wait;
    txn->t_io += sched_.now() - t0 - cpu_wait;
  }
  if (metrics_.trace) {
    metrics_.trace->span(obs::TraceName::kIoRead, node_, txn ? txn->id : 0, t0,
                         sched_.now(), static_cast<double>(p.page),
                         static_cast<std::int32_t>(p.partition));
  }
}

sim::Task<void> BufferManager::stage_into_gem_cache(PageId p, bool dirty) {
  co_await cpu_.acquire();
  co_await cpu_.busy(cfg_.gem.io_instr);
  co_await storage_.gem_cache_insert(p, dirty);
  cpu_.release();
}

sim::Task<void> BufferManager::device_write(Txn* txn, PageId p) {
  // Same split as device_read: CPU queueing to t_cpu_wait, the rest to t_io.
  const sim::SimTime t0 = sched_.now();
  double cpu_wait = 0.0;
  if (storage_.is_gem(p.partition)) {
    cpu_wait = co_await cpu_.acquire();
    co_await cpu_.busy(cfg_.gem.io_instr);
    co_await storage_.write(p);
    cpu_.release();
  } else if (storage_.has_gem_cache(p.partition)) {
    // GEM is non-volatile: the write is durable once absorbed by the cache
    // (fast write / write buffer usage form); destage happens asynchronously.
    cpu_wait = co_await cpu_.acquire();
    co_await cpu_.busy(cfg_.gem.io_instr);
    co_await storage_.gem_cache_insert(p, /*dirty=*/true);
    cpu_.release();
  } else {
    cpu_wait = co_await cpu_.consume(cfg_.disk.io_instr);
    co_await storage_.write(p);
  }
  if (txn) {
    txn->t_cpu_wait += cpu_wait;
    txn->t_io += sched_.now() - t0 - cpu_wait;
  }
  if (metrics_.trace) {
    metrics_.trace->span(obs::TraceName::kIoWrite, node_, txn ? txn->id : 0,
                         t0, sched_.now(), static_cast<double>(p.page),
                         static_cast<std::int32_t>(p.partition));
  }
}

sim::Task<void> BufferManager::read_from_storage(Txn* txn, PageId p,
                                                 SeqNo seqno, bool count) {
  if (count) count_miss(p, false);
  // Merge with an in-flight read of the same page at this node.
  if (inflight_.contains(p)) {
    MergedRead self;
    co_await sched_.suspend([&](std::coroutine_handle<> h) {
      self.h = h;
      InflightRead& r = *inflight_.find(p);
      (r.tail != nullptr ? r.tail->next : r.head) = &self;
      r.tail = &self;
    });
    co_return;
  }
  inflight_.try_emplace(p);  // mark as leader
  co_await device_read(txn, p);
  install(p, seqno, /*dirty=*/false);
  MergedRead* w = inflight_.find(p)->head;
  inflight_.erase(p);
  while (w != nullptr) {
    MergedRead* next = w->next;
    sched_.schedule(sched_.now(), w->h);
    w = next;
  }
}

void BufferManager::install(PageId p, SeqNo seqno, bool dirty) {
  if (Frame* f = frames_.touch(p)) {
    f->seqno = seqno;
    f->dirty = f->dirty || dirty;
    return;
  }
  install_evicting(p, Frame{seqno, dirty});
}

void BufferManager::install_evicting(PageId p, Frame f) {
  while (frames_.full()) evict_one();
  frames_.insert(p, f);
}

void BufferManager::evict_one() {
  auto victim = frames_.lru();
  assert(victim.has_value());
  const PageId p = victim->first;
  const Frame f = victim->second;
  frames_.erase(p);
  if (f.dirty) {
    // Asynchronous write-back; the copy stays servable until it completes.
    writeback_[p] = f.seqno;
    metrics_.evict_writes.inc();
    ++writebacks_;
    sched_.spawn(writeback_task(p, f.seqno));
  }
}

sim::Task<void> BufferManager::writeback_task(PageId p, SeqNo seqno) {
  co_await device_write(nullptr, p);
  if (const SeqNo* s = writeback_.find(p); s != nullptr && *s == seqno) {
    writeback_.erase(p);
  }
  if (writeback_done_) writeback_done_(node_, p, seqno);
}

void BufferManager::mark_dirty(PageId p) {
  Frame* f = frames_.touch(p);
  if (f == nullptr) {
    // The frame was evicted between fetch and modification (possible under
    // heavy replacement): logically the txn still holds the data; reinstall.
    const SeqNo* wb = writeback_.find(p);
    install_evicting(p, Frame{wb != nullptr ? *wb : 0, true});
    return;
  }
  f->dirty = true;
}

void BufferManager::commit_dirty(PageId p, SeqNo new_seqno, bool stays_dirty) {
  Frame* f = frames_.touch(p);
  if (f == nullptr) {
    install_evicting(p, Frame{new_seqno, stays_dirty});
    return;
  }
  f->seqno = new_seqno;
  f->dirty = stays_dirty;
}

void BufferManager::shipped_copy(PageId p) {
  if (Frame* f = frames_.peek(p)) f->dirty = false;
}

sim::Task<void> BufferManager::force_write(Txn* txn, PageId p) {
  metrics_.force_writes.inc();
  co_await device_write(txn, p);
  if (Frame* f = frames_.peek(p)) f->dirty = false;
}

sim::Task<void> BufferManager::write_log(Txn* txn) {
  // Same split as device_read: CPU queueing to t_cpu_wait, the rest to t_io.
  const sim::SimTime t0 = sched_.now();
  double cpu_wait = 0.0;
  if (storage_.log_on_gem()) {
    cpu_wait = co_await cpu_.acquire();
    co_await cpu_.busy(cfg_.gem.io_instr);
    co_await storage_.log_write(node_);
    cpu_.release();
  } else {
    cpu_wait = co_await cpu_.consume(cfg_.disk.io_instr);
    co_await storage_.log_write(node_);
  }
  if (txn) {
    txn->t_cpu_wait += cpu_wait;
    txn->t_io += sched_.now() - t0 - cpu_wait;
  }
  if (metrics_.trace) {
    metrics_.trace->span(obs::TraceName::kIoLog, node_, txn ? txn->id : 0, t0,
                         sched_.now());
  }
}

sim::Task<void> BufferManager::access_unlocked(Txn& txn, PageId p, bool write,
                                               bool fresh_page) {
  if (has_copy(p)) {
    hit(p);
  } else if (fresh_page) {
    // Newly allocated append page: no read I/O, but not a buffer hit either.
    count_miss(p, false);
    install(p, 0, false);
  } else {
    co_await read_from_storage(&txn, p, 0);
  }
  if (write) {
    mark_dirty(p);
    txn.note_dirty_unlocked(p);
  }
}

}  // namespace gemsd::node
