// Tests for the INI run-spec parser behind tools/gemsd_run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/config_file.hpp"

namespace gemsd {
namespace {

RunSpec parse(const std::string& text) {
  std::stringstream ss(text);
  return parse_run_spec(ss);
}

TEST(RunSpec, ParsesFullSystemSection) {
  const RunSpec s = parse(R"(
# comment
[system]
nodes = 7
coupling = pcl
update = force
routing = random
tps = 150
buffer = 1000
mpl = 99
warmup = 3.5
measure = 12
seed = 77
log = gem
group_commit = yes
pcl_read_opt = true
gem_read_auth = on
transport = gem
)");
  EXPECT_EQ(s.cfg.nodes, 7);
  EXPECT_EQ(s.cfg.coupling, Coupling::PrimaryCopy);
  EXPECT_EQ(s.cfg.update, UpdateStrategy::Force);
  EXPECT_EQ(s.cfg.routing, Routing::Random);
  EXPECT_DOUBLE_EQ(s.cfg.arrival_rate_per_node, 150.0);
  EXPECT_EQ(s.cfg.buffer_pages, 1000);
  EXPECT_EQ(s.cfg.mpl, 99);
  EXPECT_DOUBLE_EQ(s.cfg.warmup, 3.5);
  EXPECT_DOUBLE_EQ(s.cfg.measure, 12.0);
  EXPECT_EQ(s.cfg.seed, 77u);
  EXPECT_EQ(s.cfg.log_storage, StorageKind::Gem);
  EXPECT_TRUE(s.cfg.log_group_commit);
  EXPECT_TRUE(s.cfg.pcl_read_optimization);
  EXPECT_TRUE(s.cfg.gem_read_authorizations);
  EXPECT_EQ(s.cfg.comm.transport, MsgTransport::GemStore);
}

TEST(RunSpec, DefaultsAreTable41DebitCredit) {
  const RunSpec s = parse("");
  EXPECT_EQ(s.kind, RunSpec::Kind::DebitCredit);
  EXPECT_EQ(s.cfg.nodes, 1);
  EXPECT_EQ(s.cfg.buffer_pages, 200);
  ASSERT_EQ(s.cfg.partitions.size(), 3u);
  EXPECT_EQ(s.cfg.partitions[0].name, "BRANCH/TELLER");
}

TEST(RunSpec, PartitionStorageOverride) {
  const RunSpec s = parse(R"(
[system]
update = force
[partition.BRANCH/TELLER]
storage = gemcache
cache_pages = 4321
)");
  EXPECT_EQ(s.cfg.partitions[0].storage, StorageKind::DiskGemCache);
  EXPECT_EQ(s.cfg.partitions[0].gem_cache_pages, 4321);
}

TEST(RunSpec, TraceWorkloadSection) {
  const RunSpec s = parse(R"(
[workload]
kind = trace
trace_file = /tmp/foo.trace
trace_txns = 2500
)");
  EXPECT_EQ(s.kind, RunSpec::Kind::Trace);
  EXPECT_EQ(s.trace_file, "/tmp/foo.trace");
  EXPECT_EQ(s.trace_txns, 2500u);
}

TEST(RunSpec, RejectsUnknownKeys) {
  EXPECT_THROW(parse("[system]\nbogus = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[nonsense]\nx = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[system]\ncoupling = quantum\n"), std::runtime_error);
  EXPECT_THROW(parse("[system]\nnodes 4\n"), std::runtime_error);
  EXPECT_THROW(parse("[partition.NOPE]\nstorage = gem\n"),
               std::runtime_error);
  EXPECT_THROW(parse("[system]\ngroup_commit = maybe\n"), std::runtime_error);
}

TEST(RunSpec, ErrorsCarryLineNumbers) {
  try {
    parse("\n\n[system]\nbogus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

/// The error message of parsing `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RunSpec, ZeroBufferIsRejectedWithKeyAndLine) {
  // buffer = 0 used to hang: every install evicted from an empty LRU.
  const std::string err = parse_error("[system]\nnodes = 2\nbuffer = 0\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("buffer"), std::string::npos) << err;
}

TEST(RunSpec, NegativeBufferIsRejectedWithKeyAndLine) {
  // buffer = -5 used to wrap to an unbounded buffer and run silently.
  const std::string err = parse_error("[system]\nbuffer = -5\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("buffer"), std::string::npos) << err;
}

TEST(RunSpec, NegativeCachePagesAreRejected) {
  for (const char* key :
       {"cache_pages", "disk_cache_pages", "gem_cache_pages"}) {
    const std::string err = parse_error(
        std::string("[partition.ACCOUNT]\n") + key + " = -1\n");
    EXPECT_NE(err.find("line 2"), std::string::npos) << key << ": " << err;
    EXPECT_NE(err.find(key), std::string::npos) << key << ": " << err;
  }
  EXPECT_EQ(parse_error("[partition.ACCOUNT]\ncache_pages = 0\n"), "");
}

// warmup, measure and tps become event times. Each repro below ran on a
// 2-node GEM debit-credit spec before the parser checked them.

TEST(RunSpec, InfiniteMeasureIsRejectedWithKeyAndLine) {
  // measure = inf hung: the run never reached its end.
  const std::string err = parse_error("[system]\nnodes = 2\nmeasure = inf\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("measure"), std::string::npos) << err;
}

TEST(RunSpec, NanHorizonsAndRateAreRejectedWithKeyAndLine) {
  // measure, warmup or tps = nan printed an all-zero row and exited 0.
  for (const char* key : {"measure", "warmup", "tps"}) {
    const std::string err =
        parse_error(std::string("[system]\n") + key + " = nan\n");
    EXPECT_NE(err.find("line 2"), std::string::npos) << key << ": " << err;
    EXPECT_NE(err.find(key), std::string::npos) << key << ": " << err;
  }
}

TEST(RunSpec, NonPositiveMeasureIsRejected) {
  // measure = -1 printed an all-zero row and exited 0.
  for (const char* v : {"-1", "0"}) {
    const std::string err =
        parse_error(std::string("[system]\nmeasure = ") + v + "\n");
    EXPECT_NE(err.find("measure"), std::string::npos) << v << ": " << err;
  }
}

TEST(RunSpec, NegativeWarmupIsRejected) {
  // warmup = -1 moved the clock back to -1 and printed a normal-looking row.
  const std::string err = parse_error("[system]\nwarmup = -1\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("warmup"), std::string::npos) << err;
  EXPECT_EQ(parse_error("[system]\nwarmup = 0\n"), "");
}

TEST(RunSpec, NonPositiveTpsIsRejected) {
  // tps = -5 made every inter-arrival gap 0: arrivals never advanced time
  // and the run was OOM-killed.
  for (const char* v : {"-5", "0", "inf"}) {
    const std::string err =
        parse_error(std::string("[system]\ntps = ") + v + "\n");
    EXPECT_NE(err.find("tps"), std::string::npos) << v << ": " << err;
  }
}

TEST(RunSpec, LogDisksBelowOneIsRejectedWithKeyAndLine) {
  // log_disks = 0 used to run byte-identical to log_disks = 1.
  for (const char* v : {"0", "-2"}) {
    const std::string err = parse_error(
        std::string("[system]\nnodes = 2\nlog_disks = ") + v + "\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << v << ": " << err;
    EXPECT_NE(err.find("log_disks"), std::string::npos) << v << ": " << err;
  }
  EXPECT_EQ(parse_error("[system]\nlog_disks = 1\n"), "");
}

TEST(RunSpec, TraceTxnsOutOfRangeIsRejectedWithKeyAndLine) {
  // trace_txns = 0 printed an all-zero row and exited 0; -1 failed deep in
  // the trace generator with "vector::reserve", and 10^13 with a bare
  // std::bad_alloc.
  for (const char* v : {"0", "-1", "1000001", "10000000000000"}) {
    const std::string err = parse_error(
        std::string("[workload]\nkind = trace\ntrace_txns = ") + v + "\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << v << ": " << err;
    EXPECT_NE(err.find("trace_txns"), std::string::npos) << v << ": " << err;
  }
  EXPECT_EQ(parse_error("[workload]\nkind = trace\ntrace_txns = 1\n"), "");
  EXPECT_EQ(
      parse_error("[workload]\nkind = trace\ntrace_txns = 1000000\n"), "");
}

// Each repro below ran on a 2-node debit-credit spec before validate(): an
// all-zero row, a row that looks like a result, or free hardware, with exit
// 0. The value sits on line 3 after `nodes = 2`.

/// Expects `key = value` on line 3 to be rejected, naming the key and line.
void expect_rejected(const std::string& key, const std::string& value) {
  const std::string err =
      parse_error("[system]\nnodes = 2\n" + key + " = " + value + "\n");
  EXPECT_NE(err.find("line 3: " + key + ":"), std::string::npos)
      << key << " = " << value << ": " << err;
}

TEST(RunSpec, MplBelowOneIsRejectedWithKeyAndLine) {
  // A silent all-zero row: no transaction ever got a slot.
  for (const char* v : {"0", "-3"}) expect_rejected("mpl", v);
}

TEST(RunSpec, CpuProcsBelowOneIsRejectedWithKeyAndLine) {
  // A silent all-zero row; at 0 with cpu_util printed as -nan.
  for (const char* v : {"0", "-1"}) expect_rejected("cpu_procs", v);
}

TEST(RunSpec, NodesBelowOneOrOutOfRangeAreRejectedWithKeyAndLine) {
  // 0 failed deep inside construction with a ShardMap error; 1e10 was
  // rejected only by an out-of-range double-to-int cast (undefined
  // behaviour that happens to give INT_MIN on x86).
  for (const char* v : {"0", "1e10"}) expect_rejected("nodes", v);
}

TEST(RunSpec, NonFiniteOrNegativeGemEntryIsRejectedWithKeyAndLine) {
  // nan held the GEM server by an event due at NaN (zero commits at
  // utilization 1.0); -5 ran as a free GEM.
  for (const char* v : {"nan", "-5"}) expect_rejected("gem_entry_us", v);
}

TEST(RunSpec, NonFiniteOrNegativeMessageCostIsRejectedWithKeyAndLine) {
  // inf gave zero commits at utilization 1.0; -5000 ran as a free send.
  expect_rejected("msg_long_instr", "inf");
  expect_rejected("msg_short_instr", "-5000");
}

TEST(RunSpec, NegativeLockEngineTimeIsRejectedWithKeyAndLine) {
  // -1 gave output byte-identical to 0.
  expect_rejected("lock_engine_us", "-1");
}

TEST(RunSpec, EngineCouplingUnderNoforceIsRejectedWithKeyAndLine) {
  // [Yu87]'s coherency scheme is only sound with FORCE; System refused the
  // run only after the spec had been accepted.
  const std::string err =
      parse_error("[system]\nupdate = noforce\ncoupling = engine\n");
  EXPECT_NE(err.find("line 3: coupling:"), std::string::npos) << err;
  EXPECT_EQ(parse_error("[system]\nupdate = force\ncoupling = engine\n"), "");
}

TEST(RunSpec, GemCacheWithoutPagesIsRejectedWithKeyAndLine) {
  // A GEM cache of 0 pages ran as a one-page cache.
  const std::string spec =
      "[system]\nupdate = force\nstorage.BRANCH/TELLER = gemcache\n";
  const std::string err = parse_error(spec);
  EXPECT_NE(err.find("line 3: storage.BRANCH/TELLER:"), std::string::npos)
      << err;
  EXPECT_NE(err.find("gem_cache_pages.BRANCH/TELLER"), std::string::npos)
      << err;
  EXPECT_EQ(parse_error(spec + "gem_cache_pages.BRANCH/TELLER = 1\n"), "");
}

TEST(RunSpec, EveryViolationIsReportedOnItsLine) {
  const std::string err =
      parse_error("[system]\nmpl = 0\nnodes = 2\ncpu_procs = -1\n");
  EXPECT_NE(err.find("line 2: mpl:"), std::string::npos) << err;
  EXPECT_NE(err.find("line 4: cpu_procs:"), std::string::npos) << err;
}

TEST(RunSpec, SeedIsReadExactly) {
  // 2^53 + 1 has no double: read through one, it became ...992.
  EXPECT_EQ(parse("[system]\nseed = 9007199254740993\n").cfg.seed,
            9007199254740993u);
}

TEST(RunSpec, ShippedSpecsParse) {
  // The specs/ directory must stay in sync with the parser.
  const std::string dir = std::string(GEMSD_SOURCE_DIR) + "/specs/";
  for (const char* p : {"fig41_affinity_noforce.ini", "bt_on_gem_force.ini",
                        "trace_pcl.ini"}) {
    std::ifstream f(dir + p);
    ASSERT_TRUE(f.is_open()) << dir << p;
    EXPECT_NO_THROW(parse_run_spec(f)) << p;
  }
}

}  // namespace
}  // namespace gemsd
