// Remaining coverage: fork/join, suspend-to-callback, histogram and RNG
// edges, bench option parsing, report formatting helpers, config scaling.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sim/join.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace gemsd {
namespace {

using sim::Join;
using sim::Scheduler;
using sim::Task;

Task<void> sleeper(Scheduler& s, double d, int* done) {
  co_await s.delay(d);
  ++*done;
}

Task<void> forker(Scheduler& s, double* finished_at, int* children_done) {
  Join j(s);
  j.spawn(sleeper(s, 3.0, children_done));
  j.spawn(sleeper(s, 1.0, children_done));
  j.spawn(sleeper(s, 2.0, children_done));
  co_await j.wait_all();
  *finished_at = s.now();
}

TEST(Join, WaitsForSlowestChild) {
  Scheduler s;
  double at = 0;
  int done = 0;
  s.spawn(forker(s, &at, &done));
  s.run_all();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(at, 3.0);  // parallel, not 6.0 serial
}

Task<void> empty_join(Scheduler& s, bool* resumed) {
  Join j(s);
  co_await j.wait_all();  // nothing spawned: must not block
  *resumed = true;
}

TEST(Join, EmptyJoinIsImmediate) {
  Scheduler s;
  bool resumed = false;
  s.spawn(empty_join(s, &resumed));
  s.run_all();
  EXPECT_TRUE(resumed);
}

Task<void> suspender(Scheduler& s, std::coroutine_handle<>* out,
                     double* resumed_at) {
  co_await s.suspend([&](std::coroutine_handle<> h) { *out = h; });
  *resumed_at = s.now();
}

TEST(Scheduler, SuspendToCallbackHandsOutHandle) {
  Scheduler s;
  std::coroutine_handle<> h{};
  double at = -1;
  s.spawn(suspender(s, &h, &at));
  s.run_until(1.0);
  ASSERT_TRUE(h);           // parked
  EXPECT_DOUBLE_EQ(at, -1);  // not yet resumed
  s.schedule(5.0, h);
  s.run_all();
  EXPECT_DOUBLE_EQ(at, 5.0);
}

TEST(Histogram, UnderflowAndOverflowBucketsStillCount) {
  sim::Histogram h(1e-3, 1.0, 10);
  h.add(1e-9);  // underflow
  h.add(50.0);  // overflow
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.quantile(0.9), 0.5);  // overflow dominates the top
}

TEST(Histogram, EmptyQuantileIsZero) {
  sim::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"prog",          "--quick",        "--max-nodes=7",
                        "--seed=123",    "--full",         "--csv",
                        "--measure=9.5", "--warmup=1.5"};
  const BenchOptions o =
      parse_bench_args(8, const_cast<char**>(argv));
  EXPECT_EQ(o.max_nodes, 7);
  EXPECT_EQ(o.seed, 123u);
  EXPECT_TRUE(o.full);
  EXPECT_TRUE(o.csv);
  EXPECT_DOUBLE_EQ(o.measure, 9.5);  // explicit value overrides --quick
  EXPECT_DOUBLE_EQ(o.warmup, 1.5);
}

TEST(BenchOptions, DefaultsWithoutFlags) {
  const char* argv[] = {"prog"};
  const BenchOptions o = parse_bench_args(1, const_cast<char**>(argv));
  EXPECT_EQ(o.max_nodes, 10);
  EXPECT_FALSE(o.full);
  EXPECT_GT(o.measure, o.warmup);
}

TEST(Report, LabelCombinesAxes) {
  RunResult r;
  r.coupling = Coupling::PrimaryCopy;
  r.update = UpdateStrategy::Force;
  r.routing = Routing::Random;
  EXPECT_EQ(r.label(), "PCL/FORCE/random");
}

TEST(Report, ToStringCoversAllEnums) {
  EXPECT_STREQ(to_string(Coupling::GemLocking), "GEM");
  EXPECT_STREQ(to_string(Coupling::LockEngine), "ENGINE");
  EXPECT_STREQ(to_string(UpdateStrategy::NoForce), "NOFORCE");
  EXPECT_STREQ(to_string(Routing::Affinity), "affinity");
  EXPECT_STREQ(to_string(StorageKind::DiskGemCache), "disk+gemcache");
  EXPECT_STREQ(to_string(StorageKind::DiskVolatileCache), "disk+vcache");
}

TEST(Config, PartitionPagesRespectsScaleFlag) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 5;
  cfg.partitions[0].scale_with_nodes = false;
  EXPECT_EQ(cfg.partition_pages(0), 100);
  cfg.partitions[0].scale_with_nodes = true;
  EXPECT_EQ(cfg.partition_pages(0), 500);
}

TEST(Config, DebitCreditDefaultsMatchTable41) {
  const SystemConfig cfg = make_debit_credit_config();
  EXPECT_EQ(cfg.cpu.processors, 4);
  EXPECT_DOUBLE_EQ(cfg.cpu.mips, 10.0);
  EXPECT_DOUBLE_EQ(cfg.arrival_rate_per_node, 100.0);
  EXPECT_EQ(cfg.buffer_pages, 200);
  EXPECT_DOUBLE_EQ(cfg.gem.page_access, 50e-6);
  EXPECT_DOUBLE_EQ(cfg.gem.entry_access, 2e-6);
  EXPECT_DOUBLE_EQ(cfg.comm.bandwidth, 10e6);
  EXPECT_DOUBLE_EQ(cfg.comm.short_instr, 5000.0);
  EXPECT_DOUBLE_EQ(cfg.comm.long_instr, 8000.0);
  EXPECT_DOUBLE_EQ(cfg.disk.db_disk, 15e-3);
  EXPECT_DOUBLE_EQ(cfg.disk.log_disk, 5e-3);
  EXPECT_DOUBLE_EQ(cfg.disk.io_instr, 3000.0);
  EXPECT_DOUBLE_EQ(cfg.gem.io_instr, 300.0);
  // Path length sums to the paper's 250k instructions.
  EXPECT_DOUBLE_EQ(
      cfg.path.bot_instr + 4 * cfg.path.per_ref_instr + cfg.path.eot_instr,
      250000.0);
  // Schema: 100 B/T pages, 1M ACCOUNT pages per node unit; HISTORY unlocked.
  EXPECT_EQ(cfg.partitions[DebitCreditIds::kBranchTeller].pages_per_unit, 100);
  EXPECT_EQ(cfg.partitions[DebitCreditIds::kAccount].pages_per_unit, 1000000);
  EXPECT_FALSE(cfg.partitions[DebitCreditIds::kHistory].locked);
  EXPECT_EQ(cfg.partitions[DebitCreditIds::kHistory].blocking_factor, 20);
}

TEST(Types, PageIdKeyIsInjectiveAcrossPartitions) {
  EXPECT_NE((PageId{0, 1}).key(), (PageId{1, 1}).key());
  EXPECT_NE((PageId{0, 1}).key(), (PageId{0, 2}).key());
  EXPECT_EQ((PageId{3, 42}).key(), (PageId{3, 42}).key());
}

TEST(Types, AppendSentinelIsNegative) {
  // resolve_append relies on the sentinel never colliding with a real page.
  EXPECT_LT(kAppendPage, 0);
}

}  // namespace
}  // namespace gemsd
