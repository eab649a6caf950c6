// Cost gate on the model's hot path (DESIGN.md §5a): after warm-up, a run
// may make only a few heap allocations of a bounded number of bytes, a
// bounded number of coroutine frames, heap pushes and same-instant lane
// events, and a bounded number of lock-queue entry reads per committed
// transaction; handing out a trace transaction allocates nothing. The
// binary replaces the global operator new with a counting one, so it is its
// own executable (the main suite does not pay for the counter); frames are
// counted by the frame pool, events by the scheduler and queue reads by the
// lock table. The counts are deterministic for a given binary, so the gate
// is exact where a wall-clock benchmark cannot be: a coroutine wrapper that
// creeps back around a station, a delay that stops fast-forwarding, a
// lock-queue scan that grows back or a reference string copied out of the
// trace again fails it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "sim/frame_pool.hpp"
#include "workload/trace_generator.hpp"

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;  ///< bytes asked of operator new
}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gemsd {
namespace {

/// Counts per commit in the measured phase of a run.
struct PerCommit {
  double allocs;         ///< heap allocations
  double bytes;          ///< bytes asked of operator new
  double frames;         ///< coroutine frames
  double heap_pushes;    ///< events pushed on the scheduler's heap
  double fast_forwards;  ///< events taken at once (Scheduler::try_advance)
  double lane_events;    ///< events in the same-instant lane
  double lock_examined;  ///< lock-queue entries read by the table's scans
};

/// The counts of PerCommit in the measured phase of a run of `cfg`; each is
/// recorded as a test property.
PerCommit per_commit(const SystemConfig& cfg, System::Workload wl) {
  using sim::detail::FramePool;
  System sys(cfg, std::move(wl));
  const sim::Scheduler& sched = sys.scheduler();
  const cc::LockTable& table = sys.protocol().table();
  auto counts = [&] {
    return std::array<std::uint64_t, 7>{
        g_allocs,           g_bytes,
        FramePool::frames_allocated(),
        sched.heap_pushes(), sched.fast_forwards(),
        sched.lane_events(), table.entries_examined()};
  };
  sys.start_source();
  sys.run_until(cfg.warmup);
  sys.reset_stats();
  const auto before = counts();
  sys.run_until(cfg.warmup + cfg.measure);
  const auto after = counts();
  const RunResult r = sys.collect();
  EXPECT_GT(r.commits, 1000u);
  const double commits = static_cast<double>(r.commits);
  auto per = [&](std::size_t i) {
    return static_cast<double>(after[i] - before[i]) / commits;
  };
  const PerCommit c{per(0), per(1), per(2), per(3), per(4), per(5), per(6)};
  const std::pair<const char*, double> props[] = {
      {"allocs_per_commit", c.allocs},
      {"bytes_per_commit", c.bytes},
      {"frames_per_commit", c.frames},
      {"heap_pushes_per_commit", c.heap_pushes},
      {"fast_forwards_per_commit", c.fast_forwards},
      {"lane_events_per_commit", c.lane_events},
      {"lock_entries_examined_per_commit", c.lock_examined}};
  for (const auto& [key, value] : props) {
    ::testing::Test::RecordProperty(key, std::to_string(value));
  }
  return c;
}

TEST(AllocGate, GemTraceCellStaysWithinBudget) {
  // fig_4_7-style cell: the synthetic trace on 8 nodes, GEM locking,
  // affinity routing, buffer 1000; ~490 events per commit.
  sim::Rng rng(1);
  const workload::Trace trace =
      workload::generate_synthetic_trace(workload::SyntheticTraceConfig{}, rng);
  SystemConfig cfg = make_trace_config(trace);
  cfg.nodes = 8;
  cfg.coupling = Coupling::GemLocking;
  cfg.routing = Routing::Affinity;
  cfg.warmup = 5.0;
  cfg.measure = 5.0;
  const PerCommit c = per_commit(cfg, make_trace_workload(cfg, trace));
  EXPECT_LE(c.allocs, 15.0);  // measured 7.55
  // Measured 2,084 bytes: a transaction reads its references in the trace
  // (3,496 when each one copied them into 24-byte PageRefs).
  EXPECT_LE(c.bytes, 2400.0);
  EXPECT_LE(c.frames, 490.0);  // measured 423.6
  // Measured 272.5 pushes, 150.4 fast-forwards and 54.0 lane events (422.8
  // pushes without fast-forward dispatch); 970.5 queue entries read (1,947
  // when every test scanned the whole queue).
  EXPECT_LE(c.heap_pushes, 315.0);
  EXPECT_GE(c.fast_forwards, 128.0);
  EXPECT_LE(c.lane_events, 62.0);
  EXPECT_LE(c.lock_examined, 1120.0);
}

TEST(AllocGate, StandardTraceIsBuiltWithoutRegrowth) {
  // The generator sizes the trace store once (Trace::reserve), so a build
  // allocates the 13 Zipf tables (two vectors each), their vector, the type
  // counts, the transaction records and the packed references: measured 30
  // at both seeds, and 65 while the store regrew. The store is reserved at
  // its own width, 19 bits for each of the 1.15 M references it expects
  // (the expected count plus 10 %): measured 3,876,504 bytes at both seeds,
  // and 10,317,680 at 8 bytes per reference.
  for (const std::uint64_t seed : {1u, 7u}) {
    sim::Rng rng(seed);
    const std::uint64_t allocs0 = g_allocs;
    const std::uint64_t bytes0 = g_bytes;
    const workload::Trace trace = workload::generate_synthetic_trace(
        workload::SyntheticTraceConfig{}, rng);
    const std::uint64_t allocs = g_allocs - allocs0;
    const std::uint64_t bytes = g_bytes - bytes0;
    EXPECT_GT(trace.references(), 1000000u) << "seed " << seed;
    EXPECT_LE(allocs, 34u) << "seed " << seed;
    EXPECT_LE(bytes, 4460000u) << "seed " << seed;
    ::testing::Test::RecordProperty("allocs_seed_" + std::to_string(seed),
                                    std::to_string(allocs));
    ::testing::Test::RecordProperty("bytes_seed_" + std::to_string(seed),
                                    std::to_string(bytes));
  }
}

TEST(AllocGate, TraceWorkloadHandsOutViewsWithoutAllocating) {
  // TraceWorkload::next hands out a view of the transaction's references in
  // the packed store (Trace::txn): no allocation, where the copy into a
  // PageRef vector made one per transaction.
  sim::Rng rng(1);
  const workload::Trace trace =
      workload::generate_synthetic_trace(workload::SyntheticTraceConfig{}, rng);
  workload::TraceWorkload gen(trace);
  std::uint64_t refs = 0;
  const std::uint64_t allocs0 = g_allocs;
  for (int i = 0; i < 1000; ++i) refs += gen.next(rng).refs.size();
  const std::uint64_t allocs = g_allocs - allocs0;
  EXPECT_GT(refs, 1000u);
  EXPECT_EQ(allocs, 0u);
  ::testing::Test::RecordProperty("allocs_per_1000_next",
                                  std::to_string(allocs));
}

TEST(AllocGate, PclDebitCreditCellStaysWithinBudget) {
  // fig_4_5-style cell: debit-credit on 10 nodes, primary copy locking,
  // random routing, NOFORCE, buffer 1000.
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 10;
  cfg.arrival_rate_per_node = 100.0;
  cfg.coupling = Coupling::PrimaryCopy;
  cfg.routing = Routing::Random;
  cfg.update = UpdateStrategy::NoForce;
  cfg.buffer_pages = 1000;
  cfg.warmup = 5.0;
  cfg.measure = 10.0;
  const PerCommit c = per_commit(cfg, make_debit_credit_workload(cfg));
  EXPECT_LE(c.allocs, 30.0);  // measured 10.1
  EXPECT_LE(c.bytes, 504.0);  // measured 437.9
  EXPECT_LE(c.frames, 70.0);  // measured 61.0
  // Measured 33.6 pushes, 2.93 fast-forwards, 25.0 lane events and 3.11
  // queue entries read (36.5 pushes and 3.29 reads before).
  EXPECT_LE(c.heap_pushes, 38.6);
  EXPECT_GE(c.fast_forwards, 2.5);
  EXPECT_LE(c.lane_events, 28.8);
  EXPECT_LE(c.lock_examined, 3.6);
}

}  // namespace
}  // namespace gemsd
