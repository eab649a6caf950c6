// Allocation gate on the model's hot path (DESIGN.md §5a): after warm-up,
// a run may make only a few heap allocations and a bounded number of
// coroutine frames per committed transaction. The binary replaces the
// global operator new with a counting one, so it is its own executable (the
// main suite does not pay for the counter); frames are counted by the frame
// pool. The counts are deterministic for a given binary, so the gate is
// exact where a wall-clock benchmark cannot be: a coroutine wrapper that
// creeps back around a station fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "sim/frame_pool.hpp"
#include "workload/trace_generator.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gemsd {
namespace {

struct PerCommit {
  double allocs;  ///< heap allocations
  double frames;  ///< coroutine frames
};

/// Heap allocations and coroutine frames per commit in the measured phase
/// of a run of `cfg`; both are recorded as test properties.
PerCommit per_commit(const SystemConfig& cfg, System::Workload wl) {
  using sim::detail::FramePool;
  System sys(cfg, std::move(wl));
  sys.start_source();
  sys.run_until(cfg.warmup);
  sys.reset_stats();
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t frames0 = FramePool::frames_allocated();
  sys.run_until(cfg.warmup + cfg.measure);
  const std::uint64_t allocs = g_allocs - allocs0;
  const std::uint64_t frames = FramePool::frames_allocated() - frames0;
  const RunResult r = sys.collect();
  EXPECT_GT(r.commits, 1000u);
  const double commits = static_cast<double>(r.commits);
  const PerCommit c{static_cast<double>(allocs) / commits,
                    static_cast<double>(frames) / commits};
  ::testing::Test::RecordProperty("allocs_per_commit",
                                  std::to_string(c.allocs));
  ::testing::Test::RecordProperty("frames_per_commit",
                                  std::to_string(c.frames));
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
  EXPECT_LE(c.allocs, 15.0);
  EXPECT_LE(c.frames, 490.0);  // measured 423.6
}

TEST(AllocGate, StandardTraceIsBuiltWithoutRegrowth) {
  // The generator sizes the trace store once (Trace::reserve), so a build
  // allocates the 13 Zipf tables (two vectors each), their vector, the type
  // counts and the store's two vectors: measured 30 at both seeds, and 65
  // while the store regrew.
  for (const std::uint64_t seed : {1u, 7u}) {
    sim::Rng rng(seed);
    const std::uint64_t allocs0 = g_allocs;
    const workload::Trace trace = workload::generate_synthetic_trace(
        workload::SyntheticTraceConfig{}, rng);
    const std::uint64_t allocs = g_allocs - allocs0;
    EXPECT_GT(trace.references(), 1000000u) << "seed " << seed;
    EXPECT_LE(allocs, 34u) << "seed " << seed;
    ::testing::Test::RecordProperty("allocs_seed_" + std::to_string(seed),
                                    std::to_string(allocs));
  }
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
  EXPECT_LE(c.allocs, 30.0);
  EXPECT_LE(c.frames, 70.0);  // measured 61.0
}

}  // namespace
}  // namespace gemsd
